package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"bitc/internal/analysis"
	"bitc/internal/core"
	"bitc/internal/corpus"
	"bitc/internal/factstore"
)

const (
	watchFuncs       = 1000 // an edit takes 20-40 ms
	watchFuncsShort  = 120
	watchSetups      = 5
	watchDaemonEdits = 100 // edits one daemon serves before the next cold-starts
	watchKeepRuns    = 8   // the retention bitc analyze -watch prunes to by default
	watchName        = "watch.bitc"
)

// editOrder is the seeded order in which analyze-watch edits the corpus's
// functions: a Fisher-Yates shuffle driven by splitmix64, so that the order
// depends on nothing but the seed.
func editOrder(seed uint64, nfuncs, k int) []int {
	order := make([]int, (nfuncs/k)*k)
	for i := range order {
		order[i] = i
	}
	x := seed
	for i := len(order) - 1; i > 0; i-- {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		j := int(z % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// editAt makes edit i of the sequence. The first pass over order changes
// each function's unique constant as corpus.EditOne does, the second pass
// changes it back, and so on, so that every edit touches one function and
// the sequence never runs out.
func editAt(text string, order []int, i int) (string, error) {
	idx := order[i%len(order)]
	if (i/len(order))%2 == 0 {
		return corpus.EditOne(text, idx), nil
	}
	from, to := strconv.Itoa(2000000+idx), strconv.Itoa(1000000+idx)
	out := strings.Replace(text, from, to, 1)
	if out == text {
		return "", fmt.Errorf("edit %d: constant %s not found", i, from)
	}
	return out, nil
}

// analyzeWatch drives analyze-watch, the bitc analyze -watch loop. Set-up is
// the daemon's cold start: parse, type-check and analyse into a fresh fact
// store. Each operation then edits one function and re-analyses against
// the shared store, from the edited text to the report, and prunes the
// store as the daemon does. The compiler and the VM are never run.
//
// A daemon serves watchDaemonEdits edits, then the next one cold-starts. A
// daemon's live heap grows with every edit it serves, and with it the
// garbage-collector pacing and the cost of an edit; daemons of fixed
// lifetime keep what a run measures independent of how many edits fit in
// its window.
func analyzeWatch(r *run) error {
	nfuncs := watchFuncs
	if r.cfg.short {
		nfuncs = watchFuncsShort
	}
	k := clusterWidth(r.cfg.seed)
	opts := analysis.Options{}
	text := corpus.Text(nfuncs, k)
	var store *factstore.Store
	var coldUS []float64
	funcs := 0
	coldStart := func() error {
		start := time.Now()
		prog, err := core.LoadAnalysis(watchName, text)
		if err != nil {
			return err
		}
		store = factstore.New()
		cold := time.Now()
		if _, err := prog.AnalyzeWithStore(opts, store); err != nil {
			return err
		}
		coldUS = append(coldUS, float64(time.Since(cold).Microseconds()))
		r.setups = append(r.setups, time.Since(start))
		funcs = countFuncs(prog.AST)
		return nil
	}
	for rep := 0; rep < watchSetups; rep++ {
		if err := coldStart(); err != nil {
			return err
		}
	}

	order := editOrder(r.cfg.seed, nfuncs, k)
	next := 0
	nextText := func() error {
		if next > 0 && next%watchDaemonEdits == 0 {
			if err := coldStart(); err != nil {
				return err
			}
		}
		var err error
		text, err = editAt(text, order, next)
		next++
		return err
	}
	reanalyze := func() (*analysis.Report, error) {
		prog, err := core.LoadAnalysis(watchName, text)
		if err != nil {
			return nil, err
		}
		return prog.AnalyzeWithStore(opts, store)
	}
	// finish does what the daemon does once it has reported.
	var last *analysis.Report
	var lastText string
	finish := func(rep *analysis.Report, err error) {
		store.Prune(watchKeepRuns)
		if err == nil {
			last, lastText = rep, text
		}
	}
	var misses []float64
	var hits, lookups float64
	edit := func(traced bool) {
		if err := nextText(); err != nil {
			r.verify("edit", err)
			return
		}
		before := store.Stats()
		var rep *analysis.Report
		var d time.Duration
		var err error
		if traced {
			r.lexOp(watchName, text)
			_, d, err = r.tr.root("edit", "edit", func(id int) error {
				prog, info, err := analysisStaged(r.tr, id, watchName, text)
				if err != nil {
					return err
				}
				r.tr.child(id, "analysis.warm", func() { rep, err = analysis.RunWithStore(prog, info, opts, store) })
				return err
			})
		} else {
			d, err = timed(func() (err error) {
				rep, err = reanalyze()
				return err
			})
		}
		r.record("edit", traced, d, err)
		after := store.Stats()
		misses = append(misses, float64(after.Misses-before.Misses))
		hits += float64(after.Hits - before.Hits)
		lookups += float64(after.Hits - before.Hits + after.Misses - before.Misses)
		finish(rep, err)
	}
	r.openWindow()
	r.loop(func() {
		edit(false)
		if r.tr != nil {
			edit(true)
		}
	})
	if !r.cfg.trace {
		// The memory pass measures the last edits a daemon serves.
		memEdit := func() error {
			if err := nextText(); err != nil {
				return err
			}
			rep, err := reanalyze()
			finish(rep, err)
			return err
		}
		for next%watchDaemonEdits != watchDaemonEdits-rssRuns {
			if err := memEdit(); err != nil {
				r.verify("edit", err)
				break
			}
		}
		if err := r.measureRSS("edit", memEdit); err != nil {
			return err
		}
	}
	if last != nil {
		r.verify("warm report equals cold", sameAsCold(lastText, last, opts))
		r.layer["analysis.findings"] = float64(len(last.Findings))
	}

	r.layer["program.funcs"] = float64(funcs)
	r.layer["analysis.cold_us_per_func"] = p10(coldUS) / float64(funcs)
	r.layer["factstore.hit_ratio"] = ratio(hits, lookups)
	r.layer["factstore.misses_per_edit"] = median(misses)
	r.layer["factstore.entries"] = float64(store.Stats().Entries)
	if r.tr != nil {
		r.stageTimes("edit", funcs)
	}
	return nil
}

// sameAsCold checks that a warm report renders byte for byte as a cold
// analysis of the same text does.
func sameAsCold(text string, warm *analysis.Report, opts analysis.Options) error {
	prog, err := core.LoadAnalysis(watchName, text)
	if err != nil {
		return err
	}
	cold, err := prog.Analyze(opts)
	if err != nil {
		return err
	}
	render := func(rep *analysis.Report) ([]byte, error) {
		var b bytes.Buffer
		rep.Render(&b)
		err := rep.WriteJSON(&b)
		return b.Bytes(), err
	}
	w, err := render(warm)
	if err != nil {
		return err
	}
	c, err := render(cold)
	if err != nil {
		return err
	}
	if !bytes.Equal(w, c) {
		return fmt.Errorf("warm report (%d findings) differs from cold (%d findings)", len(warm.Findings), len(cold.Findings))
	}
	return nil
}
