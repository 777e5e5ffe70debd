package analysis_test

import (
	"strings"
	"testing"

	"bitc/internal/analysis"
	"bitc/internal/factstore"
	"bitc/internal/source"
)

const tallyHeader = `
(defstruct stats (hits int64))
(define tally stats (make stats :hits 0))
`

// ---------------------------------------------------------------------------
// BITC-ATOM001: shared writes outside atomic regions
// ---------------------------------------------------------------------------

func TestAtomSharedBareWritePositive(t *testing.T) {
	rep := runOn(t, tallyHeader+`
(define (good) unit
  (atomic (set-field! tally hits (+ (field tally hits) 1))))
(define (bad) unit
  (set-field! tally hits (+ (field tally hits) 1)))
(define (main) unit
  (let ((t (spawn (good)))) (bad) (join t)))`)
	found := false
	for _, f := range rep.Findings {
		if f.Code != analysis.CodeAtomShared {
			continue
		}
		found = true
		if !strings.Contains(f.Message, "tally.hits") || !strings.Contains(f.Message, "bad") {
			t.Fatalf("message does not name the location and function: %q", f.Message)
		}
		if len(f.Related) == 0 {
			t.Fatalf("finding has no related span pointing at the atomic access")
		}
	}
	if !found {
		t.Fatalf("no BITC-ATOM001 for a bare write to an atomically managed location; got %v", codesOf(rep))
	}
}

func TestAtomSharedAllAtomicNegative(t *testing.T) {
	rep := runOn(t, tallyHeader+`
(define (good) unit
  (atomic (set-field! tally hits (+ (field tally hits) 1))))
(define (main) unit
  (let ((t (spawn (good)))) (good) (join t)))`)
	if hasCode(rep, analysis.CodeAtomShared) {
		t.Fatalf("all-atomic program flagged: %v", codesOf(rep))
	}
}

// A location nobody manages transactionally is the race checker's business,
// not this one's: without at least one atomic access there is no STM
// conflict-detection blind spot to point at.
func TestAtomSharedNoAtomicManagementNegative(t *testing.T) {
	rep := runOn(t, tallyHeader+`
(define (bare) unit
  (set-field! tally hits (+ (field tally hits) 1)))
(define (main) unit
  (let ((t (spawn (bare)))) (bare) (join t)))`)
	if hasCode(rep, analysis.CodeAtomShared) {
		t.Fatalf("location with no atomic management flagged: %v", codesOf(rep))
	}
}

// The bare write and the atomic context both live behind calls: the summary
// instantiation must carry the atomic bit down into helpers and still see
// the helper's bare store as unprotected from the other entry path.
func TestAtomSharedInterprocedural(t *testing.T) {
	rep := runOn(t, tallyHeader+`
(define (store (n int64)) unit
  (set-field! tally hits n))
(define (txn-store (n int64)) unit
  (atomic (store n)))
(define (main) unit
  (let ((t (spawn (txn-store 1)))) (store 2) (join t)))`)
	found := 0
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeAtomShared {
			found++
		}
	}
	if found == 0 {
		t.Fatalf("no BITC-ATOM001 through a call chain; got %v", codesOf(rep))
	}
}

// ---------------------------------------------------------------------------
// BITC-ATOM002: irreversible effects inside atomics
// ---------------------------------------------------------------------------

func TestAtomEffectExternInterprocedural(t *testing.T) {
	rep := runOn(t, tallyHeader+`
(external ping (-> (int64) int64) "ping")
(define (notify (n int64)) unit (ping n) ())
(define (main) unit
  (atomic
    (set-field! tally hits 1)
    (notify 1)))`)
	found := false
	for _, f := range rep.Findings {
		if f.Code != analysis.CodeAtomEffect {
			continue
		}
		found = true
		if f.Severity != source.Error {
			t.Fatalf("ATOM002 severity = %v, want error", f.Severity)
		}
		if !strings.Contains(f.Message, "ping") || !strings.Contains(f.Message, "retry") {
			t.Fatalf("message does not explain the retry hazard: %q", f.Message)
		}
	}
	if !found {
		t.Fatalf("extern reached inside atomic through a helper not flagged; got %v", codesOf(rep))
	}
}

func TestAtomEffectPrintInsideAtomic(t *testing.T) {
	rep := runOn(t, tallyHeader+`
(define (main) unit
  (atomic
    (set-field! tally hits 1)
    (println 1)))`)
	if !hasCode(rep, analysis.CodeAtomEffect) {
		t.Fatalf("observable I/O inside atomic not flagged; got %v", codesOf(rep))
	}
}

func TestAtomEffectOutsideAtomicNegative(t *testing.T) {
	rep := runOn(t, tallyHeader+`
(external ping (-> (int64) int64) "ping")
(define (main) unit
  (atomic (set-field! tally hits 1))
  (ping 1)
  (println 1))`)
	if hasCode(rep, analysis.CodeAtomEffect) {
		t.Fatalf("effects after the transaction flagged: %v", codesOf(rep))
	}
}

// ---------------------------------------------------------------------------
// BITC-ATOM003: descending prepare order within an indexed lock family
// ---------------------------------------------------------------------------

func TestAtomPrepareDescendingPositive(t *testing.T) {
	rep := runOn(t, tallyHeader+`
(define (move) unit
  (with-lock shard2
    (with-lock shard0
      (set-field! tally hits 1))))
(define (main) unit (move))`)
	found := false
	for _, f := range rep.Findings {
		if f.Code != analysis.CodeAtomPrepare {
			continue
		}
		found = true
		if !strings.Contains(f.Message, "shard0") || !strings.Contains(f.Message, "shard2") {
			t.Fatalf("message does not name both locks: %q", f.Message)
		}
	}
	if !found {
		t.Fatalf("descending shard acquisition not flagged; got %v", codesOf(rep))
	}
	// One descending pair, with no reverse path: the cycle-based deadlock
	// checker must stay silent here — catching this early is ATOM003's job.
	if hasCode(rep, "BITC-DLOCK001") {
		t.Fatalf("DLOCK001 fired without a cycle: %v", codesOf(rep))
	}
}

func TestAtomPrepareAscendingNegative(t *testing.T) {
	rep := runOn(t, tallyHeader+`
(define (move) unit
  (with-lock shard0
    (with-lock shard2
      (set-field! tally hits 1))))
(define (main) unit (move))`)
	if hasCode(rep, analysis.CodeAtomPrepare) {
		t.Fatalf("ascending acquisition flagged: %v", codesOf(rep))
	}
}

// Locks from different families, or without a trailing index, carry no
// ordering convention to violate.
func TestAtomPrepareUnrelatedLocksNegative(t *testing.T) {
	rep := runOn(t, tallyHeader+`
(define (a) unit
  (with-lock shard2 (with-lock mu0 (set-field! tally hits 1))))
(define (b) unit
  (with-lock outer (with-lock inner (set-field! tally hits 2))))
(define (main) unit (a) (b))`)
	if hasCode(rep, analysis.CodeAtomPrepare) {
		t.Fatalf("unrelated lock names flagged: %v", codesOf(rep))
	}
}

// The edge comes from a call chain: holding shard3, call a helper that
// takes shard1.
func TestAtomPrepareInterprocedural(t *testing.T) {
	rep := runOn(t, tallyHeader+`
(define (inner) unit
  (with-lock shard1 (set-field! tally hits 1)))
(define (outer) unit
  (with-lock shard3 (inner)))
(define (main) unit (outer))`)
	if !hasCode(rep, analysis.CodeAtomPrepare) {
		t.Fatalf("descending acquisition through a call not flagged; got %v", codesOf(rep))
	}
}

// ---------------------------------------------------------------------------
// BITC-ATOM004: nested atomics and unbounded retry loops
// ---------------------------------------------------------------------------

func TestAtomNestedThroughCall(t *testing.T) {
	rep := runOn(t, tallyHeader+`
(define (step) unit
  (atomic (set-field! tally hits (+ (field tally hits) 1))))
(define (main) unit
  (atomic (step) (step)))`)
	found := false
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeAtomNested && strings.Contains(f.Message, "nest") {
			found = true
		}
	}
	if !found {
		t.Fatalf("nested atomic through a call not flagged; got %v", codesOf(rep))
	}
}

func TestAtomRetryLoopPositive(t *testing.T) {
	rep := runOn(t, tallyHeader+`
(define (step) unit
  (atomic (set-field! tally hits (- (field tally hits) 1))))
(define (main) unit
  (while (> (field tally hits) 0)
    (step)))`)
	found := false
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeAtomNested && strings.Contains(f.Message, "retried") {
			found = true
			if !strings.Contains(f.Message, "tally.hits") {
				t.Fatalf("retry finding does not name the shared condition: %q", f.Message)
			}
		}
	}
	if !found {
		t.Fatalf("unbounded retry loop over shared state not flagged; got %v", codesOf(rep))
	}
}

// Bounded iteration (dotimes) and loops whose condition reads only locals
// are not retry loops: the shape being flagged is "repeat until shared
// state says stop".
func TestAtomRetryNegatives(t *testing.T) {
	rep := runOn(t, tallyHeader+`
(define (step) unit
  (atomic (set-field! tally hits (+ (field tally hits) 1))))
(define (bounded (k int64)) unit
  (dotimes (i k) (step)))
(define (local-cond (k int64)) unit
  (let ((mutable n k))
    (while (> n 0)
      (step)
      (set! n (- n 1)))))
(define (main) unit (bounded 3) (local-cond 3))`)
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeAtomNested && strings.Contains(f.Message, "retried") {
			t.Fatalf("bounded/local-condition loop flagged as a retry loop: %q", f.Message)
		}
	}
}

// ---------------------------------------------------------------------------
// incremental cache transparency for the atomic fact kinds
// ---------------------------------------------------------------------------

// atomIncrSrc trips all four BITC-ATOM codes at once, so cold/warm
// equivalence exercises every cached atomic fact kind (atomic sites,
// irreversible effects, retry loops, lock edges) together with the older
// fact families. audit is a second entry point in its own flow component
// (tally is its only global), so an edit to it leaves every other summary
// clean.
const atomIncrSrc = `
(defstruct cell (v int64))
(define counter cell (make cell :v 0))
(external ping (-> (int64) int64) "ping")
(define (txn) unit
  (atomic (set-field! counter v (+ (field counter v) 1))))
(define (bare) unit
  (set-field! counter v 3))
(define (effectful) unit
  (atomic
    (set-field! counter v 1)
    (ping 1)
    ()))
(define (nested) unit
  (atomic (txn)))
(define (spin) unit
  (while (> (field counter v) 0) (txn)))
(define (move) unit
  (with-lock shard1 (with-lock shard0 (set-field! counter v 2))))
(define (neighbor (n int64)) int64 (+ n 1))
(define (main) unit
  (let ((t (spawn (txn))))
    (bare)
    (join t)
    (effectful)
    (nested)
    (spin)
    (move)
    (println (neighbor 1))))
(define tally cell (make cell :v 0))
(define (audit) unit
  (atomic (set-field! tally v (+ (field tally v) 1))))
`

// TestIncrementalAtomicFactsMatchCold: plain, cold-cached, warm-cached, and
// warm-after-one-edit runs of a program that fires every ATOM code must all
// render byte-identically to a fresh cold run in every output format, both
// after an edit that leaves every summary value unchanged (the aggregation
// cache hits) and after one that changes a summary's value (it misses).
func TestIncrementalAtomicFactsMatchCold(t *testing.T) {
	opts := analysis.Options{Parallelism: 1}
	prog, info := check(t, atomIncrSrc)
	plain, err := analysis.Run(prog, info, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range []string{
		analysis.CodeAtomShared, analysis.CodeAtomEffect,
		analysis.CodeAtomPrepare, analysis.CodeAtomNested,
	} {
		if !hasCode(plain, code) {
			t.Fatalf("fixture does not fire %s; the cache test is vacuous (got %v)", code, codesOf(plain))
		}
	}
	want := renderAll(t, plain)

	store := factstore.New()
	_, cold := runStore(t, atomIncrSrc, opts, store)
	if cold != want {
		t.Errorf("cold cached run differs from plain run")
	}
	_, warm := runStore(t, atomIncrSrc, opts, store)
	if warm != want {
		t.Errorf("warm cached run differs from plain run:\nplain:\n%s\nwarm:\n%s", want, warm)
	}

	edited := strings.Replace(atomIncrSrc, "(+ n 1)", "(+ n 2)", 1)
	_, warmEdit := runStore(t, edited, opts, store)
	eprog, einfo := check(t, edited)
	fresh, err := analysis.Run(eprog, einfo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if wantEdit := renderAll(t, fresh); warmEdit != wantEdit {
		t.Errorf("warm one-edit run differs from fresh cold run on atomic facts:\nfresh:\n%s\nwarm:\n%s", wantEdit, warmEdit)
	}

	// A space inside audit's atomic shifts its access spans, so audit's
	// summary value changes and the aggregation cache misses. Only audit is
	// recomputed, so the warm run must decode every other summary before
	// the fold: the nested atomic, effect, retry and lock-edge sites of
	// main's component included. The control edit is the same length and
	// changes audit's text but no summary value, so it invalidates the same
	// function keys and hits the aggregation cache: one miss apart.
	shifted := strings.Replace(edited, "(atomic (set-field! tally", "(atomic  (set-field! tally", 1)
	control := strings.Replace(edited, "(field tally v) 1)", "(field tally v) 2)", 1)
	rerun := func(src string) (uint64, string) {
		store := factstore.New()
		runStore(t, edited, opts, store)
		before := store.Stats().Misses
		_, out := runStore(t, src, opts, store)
		return store.Stats().Misses - before, out
	}
	shiftMisses, warmShift := rerun(shifted)
	controlMisses, _ := rerun(control)
	if shiftMisses != controlMisses+1 {
		t.Errorf("summary-changing edit missed %d times, same-value edit %d; want exactly one more (the aggregation key)",
			shiftMisses, controlMisses)
	}
	sprog, sinfo := check(t, shifted)
	freshShift, err := analysis.Run(sprog, sinfo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if wantShift := renderAll(t, freshShift); warmShift != wantShift {
		t.Errorf("warm run after an aggregation miss differs from fresh cold run:\nfresh:\n%s\nwarm:\n%s", wantShift, warmShift)
	}
}

// TestIncrementalAtomSuppressionSurvivesNeighborEdit: a directive-suppressed
// ATOM001 finding must stay suppressed (and keep appearing in the
// suppressed list) when an unrelated function is edited and the rerun is
// served warm from the fact store.
func TestIncrementalAtomSuppressionSurvivesNeighborEdit(t *testing.T) {
	src := `
(defstruct cell (v int64))
(define counter cell (make cell :v 0))
(define (txn) unit
  (atomic (set-field! counter v (+ (field counter v) 1))))
(define (init) unit
  (set-field! counter v 0)) ; bitc:ignore BITC-ATOM001
(define (neighbor (n int64)) int64 (+ n 1))
(define (main) unit
  (init)
  (let ((t (spawn (txn)))) (txn) (join t))
  (println (neighbor 1)))
`
	opts := analysis.Options{Parallelism: 1}
	store := factstore.New()
	rep, _ := runStore(t, src, opts, store)
	suppressed := 0
	for _, f := range rep.Suppressed {
		if f.Code == analysis.CodeAtomShared {
			suppressed++
		}
	}
	if suppressed == 0 {
		t.Fatalf("cold run did not record the suppressed ATOM001 (suppressed=%v findings=%v)",
			len(rep.Suppressed), codesOf(rep))
	}

	edited := strings.Replace(src, "(+ n 1)", "(+ n 2)", 1)
	rep2, warm := runStore(t, edited, opts, store)
	got := 0
	for _, f := range rep2.Suppressed {
		if f.Code == analysis.CodeAtomShared {
			got++
		}
	}
	if got != suppressed {
		t.Fatalf("suppressed ATOM001 count changed after neighbor edit: %d -> %d", suppressed, got)
	}
	if hasCode(rep2, analysis.CodeAtomShared) {
		t.Fatalf("suppressed ATOM001 resurfaced as an active finding: %v", codesOf(rep2))
	}

	eprog, einfo := check(t, edited)
	fresh, err := analysis.Run(eprog, einfo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := renderAll(t, fresh); warm != want {
		t.Errorf("warm suppression run differs from fresh cold run")
	}
}
