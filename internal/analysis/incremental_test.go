package analysis_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"bitc/internal/analysis"
	"bitc/internal/ast"
	"bitc/internal/corpus"
	"bitc/internal/factstore"
	"bitc/internal/parser"
	"bitc/internal/types"
)

// check parses and type-checks src, failing the test on any diagnostic.
func check(t *testing.T, src string) (*ast.Program, *types.Info) {
	t.Helper()
	prog, diags := parser.Parse("t.bitc", src)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	info, cdiags := types.Check(prog)
	if cdiags.HasErrors() {
		t.Fatalf("check: %v", cdiags)
	}
	return prog, info
}

// renderAll snapshots a report in every output format the CLI exposes.
func renderAll(t *testing.T, rep *analysis.Report) string {
	t.Helper()
	var buf bytes.Buffer
	rep.Render(&buf)
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteSARIF(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func runStore(t *testing.T, src string, opts analysis.Options, store *factstore.Store) (*analysis.Report, string) {
	t.Helper()
	prog, info := check(t, src)
	rep, err := analysis.RunWithStore(prog, info, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	return rep, renderAll(t, rep)
}

// incrSrc trips every analyzer family (races, deadstores, truncation,
// definite-init, escapes, suppressions) across several interacting
// functions, so cold/warm equivalence exercises all cached fact kinds.
const incrSrc = `
(defstruct cell (v int64))
(define counter cell (make cell :v 0))
(define shadow cell (make cell :v 0))
(define (bump (d int64)) unit
  (set-field! counter v (+ (field counter v) d)))
(define (bump2) unit
  (with-lock l1 (bump 2)))
(define (waste) int64
  (let ((unused 1) (mutable x 0))
    (println x)
    (set! x 2)
    (set! x 3)
    7))
(define (narrow (n int64)) uint8
  (cast uint8 n))
(define (leaky) int64
  (with-region r
    (let ((t (alloc-in r (make cell :v 9))))
      (field t v))))
(define (main) unit
  (let ((t1 (spawn (bump 1))) (t2 (spawn (bump2))))
    (join t1) (join t2)
    (println (waste))
    (println (narrow 300))
    (println (leaky))))
`

// TestIncrementalMatchesCold: one program, three runs — the plain driver,
// a cold cached run, and a warm fully-cached rerun — must render
// byte-identically in every output format.
func TestIncrementalMatchesCold(t *testing.T) {
	opts := analysis.Options{Parallelism: 1}
	prog, info := check(t, incrSrc)
	plain, err := analysis.Run(prog, info, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, plain)

	store := factstore.New()
	_, cold := runStore(t, incrSrc, opts, store)
	if cold != want {
		t.Errorf("cold cached run differs from plain run:\nplain:\n%s\ncold:\n%s", want, cold)
	}
	if st := store.Stats(); st.Puts == 0 {
		t.Error("cold run put nothing in the store")
	}
	_, warm := runStore(t, incrSrc, opts, store)
	if warm != want {
		t.Errorf("warm cached run differs from plain run:\nplain:\n%s\nwarm:\n%s", want, warm)
	}
	st := store.Stats()
	if st.Runs != 2 {
		t.Errorf("runs = %d, want 2", st.Runs)
	}
	// The warm run must not have recomputed any per-function finding: every
	// put after the cold run would be a cache failure.
	if coldPuts := st.Puts; coldPuts == 0 {
		t.Error("no puts recorded")
	}
	store.BeginRun() // third generation: all entries were touched in run 2
}

// TestIncrementalWarmIsAllHits: a rerun on unchanged input must hit for
// every fact the cold run stored — zero puts, zero misses.
func TestIncrementalWarmIsAllHits(t *testing.T) {
	opts := analysis.Options{Parallelism: 1}
	store := factstore.New()
	runStore(t, incrSrc, opts, store)
	cold := store.Stats()
	runStore(t, incrSrc, opts, store)
	warm := store.Stats()
	if warm.Puts != cold.Puts {
		t.Errorf("warm run put %d new entries; want 0", warm.Puts-cold.Puts)
	}
	if warm.Misses != cold.Misses {
		t.Errorf("warm run missed %d times; want 0", warm.Misses-cold.Misses)
	}
}

// TestIncrementalAfterEdit: editing one function and re-running against the
// same store must equal a fresh cold run of the edited text, and must leave
// unrelated functions' facts untouched (their findings are served from
// cache, not recomputed).
func TestIncrementalAfterEdit(t *testing.T) {
	opts := analysis.Options{Parallelism: 1}
	edited := strings.Replace(incrSrc, "(cast uint8 n)", "(cast uint8 (+ n 1))", 1)
	if edited == incrSrc {
		t.Fatal("edit did not apply")
	}

	store := factstore.New()
	runStore(t, incrSrc, opts, store)
	_, warm := runStore(t, edited, opts, store)

	prog, info := check(t, edited)
	fresh, err := analysis.Run(prog, info, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := renderAll(t, fresh); warm != want {
		t.Errorf("warm run after edit differs from fresh cold run:\nfresh:\n%s\nwarm:\n%s", want, warm)
	}
}

// clustersSrc is three flow-disconnected clusters (the corpus shape): each
// has a private struct-typed global, a lock, and a two-function call chain.
// No cluster can exchange points-to facts with another, so an edit inside
// one must leave the others' cached facts untouched.
const clustersSrc = `
(defstruct St (a int64))
(define g1 St (make St :a 0))
(define g2 St (make St :a 0))
(define g3 St (make St :a 0))
(define (c1a) int64
  (with-lock l1 (set-field! g1 a 1))
  (c1b))
(define (c1b) int64 (field g1 a))
(define (c2a) int64
  (with-lock l2 (set-field! g2 a 2))
  (c2b))
(define (c2b) int64 (field g2 a))
(define (c3a) int64
  (with-lock l3 (set-field! g3 a 3))
  (c3b))
(define (c3b) int64 (field g3 a))
`

// TestIncrementalInvalidationScope: after editing one function, only its
// cluster's facts (its traits and findings, its flow component's
// points-to-dependent findings, its SCC chain's summaries) may be
// recomputed; the other clusters must be served from cache. Measured by
// the store's put counter.
func TestIncrementalInvalidationScope(t *testing.T) {
	opts := analysis.Options{Parallelism: 1}
	store := factstore.New()
	runStore(t, clustersSrc, opts, store)
	cold := store.Stats()

	edited := strings.Replace(clustersSrc, "(define (c2b) int64 (field g2 a))",
		"(define (c2b) int64 (+ (field g2 a) 0))", 1)
	_, warm := runStore(t, edited, opts, store)
	after := store.Stats()

	newPuts := after.Puts - cold.Puts
	if newPuts == 0 {
		t.Fatal("edit invalidated nothing — keys are not content-sensitive")
	}
	// Cluster 2 is one of three equal clusters; recomputing it alone must
	// put well under a third of the cold fact count.
	if newPuts*3 >= cold.Puts {
		t.Errorf("edit of one cluster function recomputed %d of %d facts — invalidation is too coarse", newPuts, cold.Puts)
	}

	prog, info := check(t, edited)
	fresh, err := analysis.Run(prog, info, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := renderAll(t, fresh); warm != want {
		t.Errorf("warm run after cluster edit differs from fresh cold run")
	}
}

// TestIncrementalTypesEditInvalidatesAll: editing a global definition
// changes the type-environment signature, which must invalidate every
// function's cached findings while still producing a report identical to a
// fresh cold run.
func TestIncrementalTypesEditInvalidatesAll(t *testing.T) {
	opts := analysis.Options{Parallelism: 1}
	store := factstore.New()
	runStore(t, incrSrc, opts, store)
	cold := store.Stats()

	edited := strings.Replace(incrSrc, "(define shadow cell (make cell :v 0))",
		"(define shadow cell (make cell :v 7))", 1)
	_, warm := runStore(t, edited, opts, store)
	after := store.Stats()
	if after.Puts-cold.Puts == 0 {
		t.Fatal("global-definition edit invalidated nothing")
	}

	prog, info := check(t, edited)
	fresh, err := analysis.Run(prog, info, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := renderAll(t, fresh); warm != want {
		t.Errorf("warm run after global edit differs from fresh cold run")
	}
}

// TestIncrementalSuppressionSurvivesNeighborEdit: a suppressed finding must
// stay suppressed (and keep appearing in the suppressed list) when an
// unrelated neighboring function is edited and the run is served warm.
func TestIncrementalSuppressionSurvivesNeighborEdit(t *testing.T) {
	src := `
(define (noisy) int64
  (let ((mutable x 0))
    (set! x 1) ; bitc:ignore BITC-DEAD001
    (set! x 2)
    x))
(define (neighbor (n int64)) int64 (+ n 1))
(define (main) unit
  (println (noisy))
  (println (neighbor 1)))
`
	opts := analysis.Options{Parallelism: 1}
	store := factstore.New()
	rep, _ := runStore(t, src, opts, store)
	if len(rep.Suppressed) == 0 {
		t.Fatal("expected a suppressed finding in the cold run")
	}
	nsup := len(rep.Suppressed)

	edited := strings.Replace(src, "(+ n 1)", "(+ n 2)", 1)
	rep2, warm := runStore(t, edited, opts, store)
	if len(rep2.Suppressed) != nsup {
		t.Fatalf("suppressed count changed after neighbor edit: %d -> %d", nsup, len(rep2.Suppressed))
	}
	for _, f := range rep2.Findings {
		if f.Code == "BITC-DEAD001" && strings.Contains(f.Message, "x") {
			// The ignored store must not resurface as an active finding.
			prog, _ := check(t, edited)
			line, _ := prog.File.Position(f.Span.Start)
			if line == 4 {
				t.Fatalf("suppressed finding resurfaced after neighbor edit: %v", f)
			}
		}
	}

	prog, info := check(t, edited)
	fresh, err := analysis.Run(prog, info, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := renderAll(t, fresh); warm != want {
		t.Errorf("warm suppression run differs from fresh cold run:\nfresh:\n%s\nwarm:\n%s", want, warm)
	}
}

// TestIncrementalDeterminism: the same store-backed analysis run twice from
// scratch (two stores) and twice warm must render byte-identically; this is
// the analyze-twice-diff-bytes gate for the cached hash paths.
func TestIncrementalDeterminism(t *testing.T) {
	opts := analysis.Options{} // default parallelism: races would show here
	var outs []string
	for i := 0; i < 2; i++ {
		store := factstore.New()
		_, a := runStore(t, incrSrc, opts, store)
		_, b := runStore(t, incrSrc, opts, store)
		outs = append(outs, a, b)
	}
	for i := 1; i < len(outs); i++ {
		if outs[i] != outs[0] {
			t.Fatalf("run %d differs from run 0:\n%s\n----\n%s", i, outs[0], outs[i])
		}
	}
}

// TestIncrementalNilStore: a nil store must behave exactly like Run.
func TestIncrementalNilStore(t *testing.T) {
	opts := analysis.Options{Parallelism: 1}
	prog, info := check(t, incrSrc)
	rep, err := analysis.RunWithStore(prog, info, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := analysis.Run(prog, info, opts)
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(t, rep) != renderAll(t, plain) {
		t.Error("nil-store run differs from plain run")
	}
}

// TestWatchHeapFlat drives the analyze -watch loop — one-function edits
// re-analysed against a shared store pruned to the daemon's default
// retention — and checks the live heap does not grow with the edit count.
// Cached facts must not pin the source text they were computed from: a
// name sliced out of one edit's text would keep that whole text alive for
// as long as the fact stays cached.
func TestWatchHeapFlat(t *testing.T) {
	const nfuncs, k, warmEdits, edits = 240, 24, 16, 64
	text := corpus.Text(nfuncs, k)
	store := factstore.New()
	edit := func(i int) { // i < nfuncs: each edit dirties a different function
		text = corpus.EditOne(text, i)
		prog, info := check(t, text)
		if _, err := analysis.RunWithStore(prog, info, analysis.Options{}, store); err != nil {
			t.Fatal(err)
		}
		store.Prune(8)
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < warmEdits; i++ {
		edit(i)
	}
	early := liveHeap()
	for i := warmEdits; i < warmEdits+edits; i++ {
		edit(i)
	}
	late := liveHeap()
	runtime.KeepAlive(store) // the daemon holds its store across edits
	t.Logf("live heap %d -> %d bytes over %d edits; source text %d bytes", early, late, edits, len(text))
	if late > early+uint64(len(text)) {
		t.Errorf("live heap grew by %d bytes over %d edits, more than one source text (%d bytes)",
			late-early, edits, len(text))
	}
}

// TestIncrementalParallelKeys: key building fans out over the worker pool
// once a program has a few thousand functions (and, for summary keys, a few
// hundred SCCs per dependency level). Keys built in parallel must equal the
// sequential ones — a parallel warm run over a sequential cold run's store
// misses nothing — and a parallel warm run after an edit must still render
// like a fresh cold run. 701 three-function clusters give 2103 functions,
// and a chunk boundary falls inside a call chain, so hashing a caller's
// summary key before its callee's would show up as a miss.
func TestIncrementalParallelKeys(t *testing.T) {
	src := corpus.Text(2103, 3)
	store := factstore.New()
	runStore(t, src, analysis.Options{Parallelism: 1}, store)
	before := store.Stats()
	runStore(t, src, analysis.Options{Parallelism: 2}, store)
	if misses := store.Stats().Misses - before.Misses; misses != 0 {
		t.Fatalf("parallel warm run missed %d times over a sequential cold run's store", misses)
	}

	edited := corpus.EditOne(src, 1050)
	_, warm := runStore(t, edited, analysis.Options{Parallelism: 2}, store)
	prog, info := check(t, edited)
	fresh, err := analysis.Run(prog, info, analysis.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(t, fresh) != warm {
		t.Error("parallel warm run after an edit differs from a fresh cold run")
	}
}
