// bitc analyze's incremental modes: the polling -watch daemon and the
// -verify-cache correctness gate. Both stand on core.LoadAnalysis (parse +
// type-check only, memoised across edits; the analyzers never need
// compiled code) and core.AnalyzeWithStore, the incremental driver.
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"bitc/internal/analysis"
	"bitc/internal/core"
	"bitc/internal/factstore"
	"bitc/internal/obs"
	"bitc/internal/parser"
	"bitc/internal/source"
	"bitc/internal/types"
)

// analyzeConfig carries the parsed analyze-mode flags from main.
type analyzeConfig struct {
	opts     analysis.Options
	format   string // pretty|json|sarif
	watch    bool
	interval time.Duration
	metrics  string // path of the bitc-metrics/v1 file -watch maintains
	verify   bool   // -verify-cache
	keepRuns uint64 // -keep-runs: fact-store retention window (0 = default 8)
}

// retention returns the fact-store pruning window: facts untouched for this
// many runs are evicted after each re-analysis.
func (c analyzeConfig) retention() uint64 {
	if c.keepRuns == 0 {
		return 8
	}
	return c.keepRuns
}

// runAnalyze dispatches `bitc analyze` once the flags are parsed.
func runAnalyze(path, src string, cfg analyzeConfig) error {
	switch {
	case cfg.verify:
		return verifyCache(path, src, cfg)
	case cfg.watch:
		return newWatcher(path, cfg, os.Stdout).loop()
	}
	prog, err := core.LoadAnalysis(path, src)
	if err != nil {
		return err
	}
	rep, err := prog.Analyze(cfg.opts)
	if err != nil {
		return err
	}
	if err := writeReport(os.Stdout, rep, cfg.format); err != nil {
		return err
	}
	if rep.HasErrors() {
		return fmt.Errorf("analysis reported %d error-severity findings", rep.CountBySeverity(source.Error))
	}
	return nil
}

func writeReport(w io.Writer, rep *analysis.Report, format string) error {
	switch format {
	case "json":
		return rep.WriteJSON(w)
	case "sarif":
		return rep.WriteSARIF(w)
	case "pretty":
		rep.Render(w)
		return nil
	default:
		return fmt.Errorf("unknown -format %q (want pretty, json, or sarif)", format)
	}
}

// verifyCache is the cache-correctness gate behind -verify-cache. It loads
// and analyzes the file cold, with parser.Parse and types.Check and an
// analysis without a store. It then primes LoadAnalysis's memo and a fact
// store with the file behind one extra leading comment line, and loads and
// analyzes the file itself warm: the memo serves every definition as a
// copy moved back by that line, and the store serves every fact it can.
// The warm program must render as the cold one does (core.RenderFrontEnd)
// and the two reports byte-identically (pretty and JSON both). The keys
// the warm run carried over from the primed run, where it found their
// inputs unchanged, must equal those a run of the warm program into an
// empty store derives (analysis.CompareCarriedKeys). CI sweeps this over
// every shipped example, so a memo or key-scheme bug that let a stale
// node, fact or key survive cannot land silently.
func verifyCache(path, src string, cfg analyzeConfig) error {
	prog, diags := parser.Parse(path, src)
	if err := diags.ErrOrNil(); err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	info, cdiags := types.Check(prog)
	if err := cdiags.ErrOrNil(); err != nil {
		return fmt.Errorf("typecheck: %w", err)
	}
	cold := &core.Program{Name: path, AST: prog, Info: info}
	coldRep, err := cold.Analyze(cfg.opts)
	if err != nil {
		return err
	}
	store := factstore.New()
	prime, err := core.LoadAnalysis(path, "; primes the memo and the fact store\n"+src)
	if err != nil {
		return err
	}
	if _, err := prime.AnalyzeWithStore(cfg.opts, store); err != nil {
		return err
	}
	warm, err := core.LoadAnalysis(path, src)
	if err != nil {
		return err
	}
	if core.RenderFrontEnd(warm, nil) != core.RenderFrontEnd(cold, nil) {
		return fmt.Errorf("verify-cache %s: the memoised front end's program differs from a cold parse and check", path)
	}
	warmRep, err := warm.AnalyzeWithStore(cfg.opts, store)
	if err != nil {
		return err
	}
	coldBytes, err := renderAll(coldRep)
	if err != nil {
		return err
	}
	warmBytes, err := renderAll(warmRep)
	if err != nil {
		return err
	}
	if !bytes.Equal(coldBytes, warmBytes) {
		return fmt.Errorf("verify-cache %s: warm report differs from cold (%d vs %d findings)",
			path, len(warmRep.Findings), len(coldRep.Findings))
	}
	// The warm run reused the primed run's keys wherever it found their
	// inputs unchanged; a run into an empty store derives every key.
	fresh := factstore.New()
	if _, err := warm.AnalyzeWithStore(cfg.opts, fresh); err != nil {
		return err
	}
	if err := analysis.CompareCarriedKeys(store, fresh, path); err != nil {
		return fmt.Errorf("verify-cache: %w", err)
	}
	st := store.Stats()
	fmt.Printf("verify-cache %s: OK (%d findings; %d cache entries, %d hits)\n",
		path, len(coldRep.Findings), st.Entries, st.Hits)
	return nil
}

func renderAll(rep *analysis.Report) ([]byte, error) {
	var buf bytes.Buffer
	rep.Render(&buf)
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// watcher is the `bitc analyze -watch` daemon: a poll loop (mtime+size; no
// platform watch dependency) holding one fact store across re-analyses, so
// every run after the first pays only for what the edit invalidated. It
// prints finding deltas rather than full reports, and optionally maintains
// a bitc-metrics/v1 file with the cold/warm re-analysis latencies.
type watcher struct {
	path string
	cfg  analyzeConfig
	out  io.Writer

	store   *factstore.Store
	started bool
	mtime   time.Time
	size    int64
	runs    int
	prev    map[string]int // finding line multiset of the last good run
	lastErr string
	prevSt  factstore.Stats
	metrics *obs.MetricsDoc
}

func newWatcher(path string, cfg analyzeConfig, out io.Writer) *watcher {
	return &watcher{
		path: path, cfg: cfg, out: out,
		store:   factstore.New(),
		metrics: obs.NewMetricsDoc("WATCH", false),
	}
}

func (w *watcher) loop() error {
	fmt.Fprintf(w.out, "[watch] %s every %s (ctrl-c to stop)\n", w.path, w.cfg.interval)
	for {
		if _, err := w.step(false); err != nil {
			return err
		}
		time.Sleep(w.cfg.interval)
	}
}

// step performs one poll: if the file changed (or force is set), re-read,
// re-analyze against the shared store, and report what changed. It returns
// whether an analysis ran. Only I/O errors are returned — parse and type
// errors are printed once and cleared by the next good run, like a
// compiler in a rebuild loop.
func (w *watcher) step(force bool) (bool, error) {
	st, err := os.Stat(w.path)
	if err != nil {
		return false, err
	}
	if !force && w.started && st.ModTime().Equal(w.mtime) && st.Size() == w.size {
		return false, nil
	}
	w.started = true
	w.mtime, w.size = st.ModTime(), st.Size()
	src, err := os.ReadFile(w.path)
	if err != nil {
		return false, err
	}
	prog, err := core.LoadAnalysis(w.path, string(src))
	if err != nil {
		if msg := err.Error(); msg != w.lastErr {
			fmt.Fprintf(w.out, "[watch] %s\n", msg)
			w.lastErr = msg
		}
		return false, nil
	}
	w.lastErr = ""

	start := time.Now()
	rep, err := prog.AnalyzeWithStore(w.cfg.opts, w.store)
	if err != nil {
		return false, err
	}
	elapsed := time.Since(start)
	w.runs++
	mode := "warm"
	if w.runs == 1 {
		mode = "cold"
	}

	lines := findingLines(rep)
	cur := make(map[string]int, len(lines))
	for _, l := range lines {
		cur[l]++
	}
	added, removed := diffLines(w.prev, cur)
	stats := w.store.Stats()
	hits := stats.Hits - w.prevSt.Hits
	misses := stats.Misses - w.prevSt.Misses
	w.prevSt = stats
	fmt.Fprintf(w.out, "[watch] run %d (%s): %d findings (+%d -%d) in %s; cache %d entries, %d hits, %d misses\n",
		w.runs, mode, len(rep.Findings), len(added), len(removed), elapsed.Round(time.Microsecond),
		stats.Entries, hits, misses)
	if w.runs == 1 {
		for _, l := range lines {
			fmt.Fprintf(w.out, "  %s\n", l)
		}
	} else {
		for _, l := range added {
			fmt.Fprintf(w.out, "  + %s\n", l)
		}
		for _, l := range removed {
			fmt.Fprintf(w.out, "  - %s\n", l)
		}
	}
	w.prev = cur

	if w.cfg.metrics != "" {
		w.metrics.Rows = append(w.metrics.Rows, obs.Metrics{
			Workload:   filepath.Base(w.path),
			Mode:       mode,
			AnalysisNS: elapsed.Nanoseconds(),
			Derived: map[string]float64{
				"findings":    float64(len(rep.Findings)),
				"cacheHits":   float64(hits),
				"cacheMisses": float64(misses),
				"entries":     float64(stats.Entries),
			},
		})
		if err := w.metrics.WriteFile(w.cfg.metrics); err != nil {
			return true, err
		}
	}
	// Bound the daemon's memory: facts untouched for -keep-runs edits are
	// garbage from definitions that no longer exist in that form.
	w.store.Prune(w.cfg.retention())
	return true, nil
}

// findingLines renders each finding as one stable line (the same shape as
// the pretty renderer's primary lines), for multiset delta reporting.
func findingLines(rep *analysis.Report) []string {
	lines := make([]string, 0, len(rep.Findings))
	for _, f := range rep.Findings {
		loc := "<unknown>"
		if rep.File != nil && f.Span.IsValid() {
			loc = rep.File.Describe(f.Span.Start)
		}
		lines = append(lines, fmt.Sprintf("%s: %s[%s]: %s", loc, f.Severity, f.Code, f.Message))
	}
	return lines
}

// diffLines returns the lines added and removed between two multisets,
// sorted, with multiplicity.
func diffLines(prev, cur map[string]int) (added, removed []string) {
	for l, n := range cur {
		for i := prev[l]; i < n; i++ {
			added = append(added, l)
		}
	}
	for l, n := range prev {
		for i := cur[l]; i < n; i++ {
			removed = append(removed, l)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed
}
