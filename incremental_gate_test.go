package bitc

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"bitc/internal/analysis"
	"bitc/internal/core"
	"bitc/internal/corpus"
	"bitc/internal/factstore"
)

// renderReport snapshots a report in the pretty and JSON formats.
func renderReport(t *testing.T, rep *analysis.Report) string {
	t.Helper()
	var buf bytes.Buffer
	rep.Render(&buf)
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestIncrementalGate is the incremental-analysis acceptance gate, run from
// scripts/check.sh with BITC_INCR_GATE=1 (it is too slow for every plain
// `go test`). It generates a synthetic monorepo-scale corpus (~100k
// functions; override with BITC_INCR_GATE_FUNCS), then asserts the two
// hard claims of the incremental driver:
//
//  1. Correctness: after a one-function edit, a warm cached run over the
//     memoised load of the edited text renders byte-identically to a cold
//     analysis of a cold load (core.Load) of it (checked at a reduced
//     scale where a second cold analysis is cheap; the per-example
//     equality sweep in scripts/check.sh and the unit tests in
//     internal/analysis and internal/core cover the golden corpus).
//  2. Latency: at full scale, warm re-analysis after a one-function edit
//     is at least 20x faster than the cold analysis. Both sides time the
//     analysis alone; the front end that precedes it has a cache of its
//     own, core.LoadAnalysis's memo (docs/incremental.md, "The front
//     end"), which this gate does not measure.
func TestIncrementalGate(t *testing.T) {
	if os.Getenv("BITC_INCR_GATE") == "" {
		t.Skip("set BITC_INCR_GATE=1 to run the incremental scale gate")
	}
	nfuncs := 100000
	if s := os.Getenv("BITC_INCR_GATE_FUNCS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 100 {
			t.Fatalf("bad BITC_INCR_GATE_FUNCS %q", s)
		}
		nfuncs = n
	}
	const cluster = 25
	opts := analysis.Options{}

	// Correctness at reduced scale: warm-after-edit == fresh cold.
	{
		src := corpus.Text(2000, cluster)
		store := factstore.New()
		prog, err := core.LoadAnalysis("corpus.bitc", src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prog.AnalyzeWithStore(opts, store); err != nil {
			t.Fatal(err)
		}
		edited := corpus.EditOne(src, 777)
		eprog, err := core.LoadAnalysis("corpus.bitc", edited)
		if err != nil {
			t.Fatal(err)
		}
		warmRep, err := eprog.AnalyzeWithStore(opts, store)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := core.Load("corpus.bitc", edited, core.DefaultConfig)
		if err != nil {
			t.Fatal(err)
		}
		freshRep, err := cold.Analyze(opts)
		if err != nil {
			t.Fatal(err)
		}
		if renderReport(t, warmRep) != renderReport(t, freshRep) {
			t.Fatal("warm run after edit is not byte-identical to a fresh cold run")
		}
	}

	// Latency at full scale: cold analysis vs warm one-edit re-analysis.
	src := corpus.Text(nfuncs, cluster)
	prog, err := core.LoadAnalysis("corpus.bitc", src)
	if err != nil {
		t.Fatal(err)
	}
	store := factstore.New()
	runtime.GC()
	start := time.Now()
	coldRep, err := prog.AnalyzeWithStore(opts, store)
	if err != nil {
		t.Fatal(err)
	}
	coldNs := time.Since(start)

	edited := corpus.EditOne(src, nfuncs/2)
	eprog, err := core.LoadAnalysis("corpus.bitc", edited)
	if err != nil {
		t.Fatal(err)
	}
	// Collect the cold run's garbage before timing the warm run: the
	// measurement targets re-analysis latency, not the previous run's GC
	// debt (the watch daemon likewise idles between analyses).
	runtime.GC()
	start = time.Now()
	warmRep, err := eprog.AnalyzeWithStore(opts, store)
	if err != nil {
		t.Fatal(err)
	}
	warmNs := time.Since(start)

	if len(coldRep.Findings) != len(warmRep.Findings) {
		t.Errorf("finding count changed across the edit: %d -> %d",
			len(coldRep.Findings), len(warmRep.Findings))
	}
	ratio := float64(coldNs) / float64(warmNs)
	st := store.Stats()
	t.Logf("corpus: %d funcs; cold analysis %v, warm one-edit re-analysis %v (%.1fx); store: %d entries, %d hits, %d misses",
		nfuncs, coldNs, warmNs, ratio, st.Entries, st.Hits, st.Misses)
	if ratio < 20 {
		t.Errorf("warm re-analysis only %.1fx faster than cold; the gate requires >= 20x", ratio)
	}
}
