package analysis_test

import (
	"strings"
	"testing"

	"bitc/internal/analysis"
	"bitc/internal/parser"
	"bitc/internal/source"
	"bitc/internal/types"
)

// runOn parses, checks, and analyses src with all analyzers enabled.
func runOn(t *testing.T, src string) *analysis.Report {
	t.Helper()
	return runOpts(t, src, analysis.Options{})
}

func runOpts(t *testing.T, src string, opts analysis.Options) *analysis.Report {
	t.Helper()
	prog, diags := parser.Parse("t.bitc", src)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	info, cdiags := types.Check(prog)
	if cdiags.HasErrors() {
		t.Fatalf("check: %v", cdiags)
	}
	rep, err := analysis.Run(prog, info, opts)
	if err != nil {
		t.Fatalf("analysis: %v", err)
	}
	return rep
}

func codesOf(rep *analysis.Report) []string {
	var out []string
	for _, f := range rep.Findings {
		out = append(out, f.Code)
	}
	return out
}

func hasCode(rep *analysis.Report, code string) bool {
	for _, f := range rep.Findings {
		if f.Code == code {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// race (ported lockset adapter)
// ---------------------------------------------------------------------------

const counterHeader = `
(defstruct cell (v int64))
(define counter cell (make cell :v 0))
`

func TestRacePositive(t *testing.T) {
	rep := runOn(t, counterHeader+`
	  (define (bump) unit
	    (set-field! counter v (+ (field counter v) 1)))
	  (define (main) unit
	    (let ((t1 (spawn (bump))) (t2 (spawn (bump))))
	      (join t1) (join t2)))`)
	if !hasCode(rep, analysis.CodeRace) {
		t.Fatalf("race not reported: %v", codesOf(rep))
	}
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeRace {
			if len(f.Related) == 0 {
				t.Error("race finding has no related span")
			}
			if !strings.Contains(f.Message, "counter.v") {
				t.Errorf("message = %q", f.Message)
			}
		}
	}
}

func TestRaceNegative(t *testing.T) {
	rep := runOn(t, counterHeader+`
	  (define (bump) unit
	    (with-lock m (set-field! counter v (+ (field counter v) 1))))
	  (define (main) unit
	    (let ((t1 (spawn (bump))) (t2 (spawn (bump))))
	      (join t1) (join t2)))`)
	if hasCode(rep, analysis.CodeRace) {
		t.Fatalf("false race: %v", rep.Findings)
	}
}

// ---------------------------------------------------------------------------
// escape (ported region adapter)
// ---------------------------------------------------------------------------

func TestEscapePositive(t *testing.T) {
	rep := runOn(t, `
	  (defstruct msg (v int64))
	  (define (leak) msg
	    (with-region r
	      (alloc-in r (make msg :v 1))))`)
	if !hasCode(rep, analysis.CodeEscape) {
		t.Fatalf("escape not reported: %v", codesOf(rep))
	}
}

func TestEscapeNegative(t *testing.T) {
	rep := runOn(t, `
	  (defstruct msg (v int64))
	  (define (f) int64
	    (with-region r
	      (let ((m (alloc-in r (make msg :v 1))))
	        (field m v))))`)
	if hasCode(rep, analysis.CodeEscape) {
		t.Fatalf("false escape: %v", rep.Findings)
	}
}

// ---------------------------------------------------------------------------
// deadlock
// ---------------------------------------------------------------------------

func TestDeadlockInversionPositive(t *testing.T) {
	rep := runOn(t, counterHeader+`
	  (define (ab) unit
	    (with-lock a (with-lock b (set-field! counter v 1))))
	  (define (ba) unit
	    (with-lock b (with-lock a (set-field! counter v 2))))
	  (define (main) unit
	    (let ((t1 (spawn (ab))) (t2 (spawn (ba))))
	      (join t1) (join t2)))`)
	if !hasCode(rep, analysis.CodeLockOrder) {
		t.Fatalf("ABBA inversion not reported: %v", codesOf(rep))
	}
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeLockOrder && len(f.Related) == 0 {
			t.Error("inversion finding lacks the reverse-order site")
		}
	}
}

func TestDeadlockConsistentOrderNegative(t *testing.T) {
	rep := runOn(t, counterHeader+`
	  (define (f) unit
	    (with-lock a (with-lock b (set-field! counter v 1))))
	  (define (g) unit
	    (with-lock a (with-lock b (set-field! counter v 2))))
	  (define (main) unit
	    (let ((t1 (spawn (f))) (t2 (spawn (g))))
	      (join t1) (join t2)))`)
	if hasCode(rep, analysis.CodeLockOrder) {
		t.Fatalf("false inversion: %v", rep.Findings)
	}
}

func TestDeadlockInterprocedural(t *testing.T) {
	// The second lock is taken inside a callee.
	rep := runOn(t, counterHeader+`
	  (define (inner-b) unit (with-lock b (set-field! counter v 1)))
	  (define (inner-a) unit (with-lock a (set-field! counter v 2)))
	  (define (ab) unit (with-lock a (inner-b)))
	  (define (ba) unit (with-lock b (inner-a)))
	  (define (main) unit
	    (begin (ab) (ba)))`)
	if !hasCode(rep, analysis.CodeLockOrder) {
		t.Fatalf("interprocedural inversion missed: %v", codesOf(rep))
	}
}

func TestRaceSecondAccessInHelper(t *testing.T) {
	// The spawned thread's write happens two calls deep; the summary-based
	// analysis must surface it against main's direct write, with the helper's
	// access as the related span.
	rep := runOn(t, counterHeader+`
	  (define (store-it) unit (set-field! counter v 2))
	  (define (worker) unit (store-it))
	  (define (main) unit
	    (let ((t1 (spawn (worker))))
	      (set-field! counter v 1)
	      (join t1)))`)
	if !hasCode(rep, analysis.CodeRace) {
		t.Fatalf("interprocedural race missed: %v", codesOf(rep))
	}
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeRace {
			if len(f.Related) == 0 {
				t.Error("race finding has no related span")
			}
			if !strings.Contains(f.Message, "counter.v") {
				t.Errorf("message = %q", f.Message)
			}
		}
	}
}

func TestRaceHelperLockNegative(t *testing.T) {
	// Same shape, but the helper's write is guarded by the same lock as
	// main's: summaries must propagate the callee's lockset.
	rep := runOn(t, counterHeader+`
	  (define (store-it) unit (with-lock m (set-field! counter v 2)))
	  (define (worker) unit (store-it))
	  (define (main) unit
	    (let ((t1 (spawn (worker))))
	      (with-lock m (set-field! counter v 1))
	      (join t1)))`)
	if hasCode(rep, analysis.CodeRace) {
		t.Fatalf("false interprocedural race: %v", rep.Findings)
	}
}

func TestDeadlockCycleAcrossTwoFunctions(t *testing.T) {
	// Each half of the a->b / b->a cycle spans a caller/callee pair; the
	// finding must carry the reverse-order site as a related span.
	rep := runOn(t, counterHeader+`
	  (define (take-b) unit (with-lock b (set-field! counter v 1)))
	  (define (take-a) unit (with-lock a (set-field! counter v 2)))
	  (define (ab) unit (with-lock a (take-b)))
	  (define (ba) unit (with-lock b (take-a)))
	  (define (main) unit
	    (begin (ab) (ba)))`)
	if !hasCode(rep, analysis.CodeLockOrder) {
		t.Fatalf("two-function lock cycle missed: %v", codesOf(rep))
	}
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeLockOrder && len(f.Related) == 0 {
			t.Error("cycle finding lacks the reverse-order related span")
		}
	}
}

func TestDeadlockSelfAcquire(t *testing.T) {
	rep := runOn(t, counterHeader+`
	  (define (f) unit
	    (with-lock a (with-lock a (set-field! counter v 1))))`)
	if !hasCode(rep, analysis.CodeLockSelf) {
		t.Fatalf("self-deadlock not reported: %v", codesOf(rep))
	}
}

// ---------------------------------------------------------------------------
// definit
// ---------------------------------------------------------------------------

func TestDefInitPositive(t *testing.T) {
	rep := runOn(t, `
	  (define (f) int64
	    (let ((mutable x 0))
	      (println x)
	      (set! x 5)
	      x))`)
	if !hasCode(rep, analysis.CodeDefInit) {
		t.Fatalf("placeholder read not reported: %v", codesOf(rep))
	}
}

func TestDefInitNegativeAssignFirst(t *testing.T) {
	rep := runOn(t, `
	  (define (f) int64
	    (let ((mutable x 0))
	      (set! x 5)
	      (println x)
	      x))`)
	if hasCode(rep, analysis.CodeDefInit) {
		t.Fatalf("false definit: %v", rep.Findings)
	}
}

func TestDefInitAccumulatorIdiomNegative(t *testing.T) {
	// Loop accumulators and induction variables read the placeholder
	// meaningfully; both the self-update and the loop exemption apply.
	rep := runOn(t, `
	  (define (sum (n int64)) int64
	    (let ((mutable i 0) (mutable acc 0))
	      (while (< i n)
	        (set! acc (+ acc i))
	        (set! i (+ i 1)))
	      acc))`)
	if hasCode(rep, analysis.CodeDefInit) {
		t.Fatalf("accumulator idiom flagged: %v", rep.Findings)
	}
}

func TestDefInitBranchOnlyAssignPositive(t *testing.T) {
	// Assignment on one branch only is not definite.
	rep := runOn(t, `
	  (define (f (c bool)) int64
	    (let ((mutable x 0))
	      (if c (set! x 1) ())
	      (println x)
	      x))`)
	if !hasCode(rep, analysis.CodeDefInit) {
		t.Fatalf("branch-only assignment not caught: %v", codesOf(rep))
	}
}

func TestDefInitBothBranchesAssignNegative(t *testing.T) {
	rep := runOn(t, `
	  (define (f (c bool)) int64
	    (let ((mutable x 0))
	      (if c (set! x 1) (set! x 2))
	      (println x)
	      x))`)
	if hasCode(rep, analysis.CodeDefInit) {
		t.Fatalf("definite branch assignment flagged: %v", rep.Findings)
	}
}

func TestDefInitMeaningfulInitNegative(t *testing.T) {
	// A non-placeholder initialiser is a real value; reads are fine.
	rep := runOn(t, `
	  (define (f) int64
	    (let ((mutable x 41))
	      (println x)
	      (set! x 5)
	      x))`)
	if hasCode(rep, analysis.CodeDefInit) {
		t.Fatalf("meaningful init flagged: %v", rep.Findings)
	}
}

// ---------------------------------------------------------------------------
// truncate
// ---------------------------------------------------------------------------

func TestTruncatePositive(t *testing.T) {
	rep := runOn(t, `
	  (define (f (x int64)) uint8
	    (cast uint8 x))`)
	if !hasCode(rep, analysis.CodeTruncate) {
		t.Fatalf("narrowing cast not reported: %v", codesOf(rep))
	}
}

func TestTruncateNegativeWiden(t *testing.T) {
	rep := runOn(t, `
	  (define (f (x uint16)) int64
	    (cast int64 x))`)
	if hasCode(rep, analysis.CodeTruncate) {
		t.Fatalf("widening cast flagged: %v", rep.Findings)
	}
}

func TestTruncateNegativeLiteralFits(t *testing.T) {
	rep := runOn(t, `
	  (define (f) uint8
	    (cast uint8 255))`)
	if hasCode(rep, analysis.CodeTruncate) {
		t.Fatalf("fitting literal flagged: %v", rep.Findings)
	}
}

func TestTruncateNegativeMasked(t *testing.T) {
	// Value-range lite: a masked value fits the narrow target.
	rep := runOn(t, `
	  (define (f (x int64)) uint8
	    (cast uint8 (bitand x 255)))`)
	if hasCode(rep, analysis.CodeTruncate) {
		t.Fatalf("masked cast flagged: %v", rep.Findings)
	}
}

func TestTruncateSignedToUnsignedPositive(t *testing.T) {
	// Same width, signed source: negatives do not fit the unsigned target.
	rep := runOn(t, `
	  (define (f (x int32)) uint32
	    (cast uint32 x))`)
	if !hasCode(rep, analysis.CodeTruncate) {
		t.Fatalf("sign-losing cast not reported: %v", codesOf(rep))
	}
}

func TestTruncateFloatNote(t *testing.T) {
	rep := runOn(t, `
	  (define (f (x float64)) int64
	    (cast int64 x))`)
	if !hasCode(rep, analysis.CodeFloatTrunc) {
		t.Fatalf("float->int note missing: %v", codesOf(rep))
	}
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeFloatTrunc && f.Severity != source.Note {
			t.Errorf("float trunc severity = %v, want note", f.Severity)
		}
	}
}

func TestTruncateBranchRefinedNegative(t *testing.T) {
	// Inside the guards x is known to lie in [0, 255], so the narrowing
	// cast cannot truncate.
	rep := runOn(t, `
	  (define (f (x int64)) uint8
	    (if (< x 256)
	        (if (>= x 0) (cast uint8 x) (cast uint8 0))
	        (cast uint8 0)))`)
	if hasCode(rep, analysis.CodeTruncate) {
		t.Fatalf("branch-refined cast flagged: %v", rep.Findings)
	}
}

func TestTruncateBranchTooWidePositive(t *testing.T) {
	// The guard narrows x, but not enough for the target type.
	rep := runOn(t, `
	  (define (f (x int64)) uint8
	    (if (< x 1000)
	        (if (>= x 0) (cast uint8 x) (cast uint8 0))
	        (cast uint8 0)))`)
	if !hasCode(rep, analysis.CodeTruncate) {
		t.Fatalf("under-narrowed cast not reported: %v", codesOf(rep))
	}
}

func TestTruncateAndGuardNegative(t *testing.T) {
	// Refinement looks through short-circuit conjunctions on the true edge.
	rep := runOn(t, `
	  (define (f (x int64)) uint8
	    (if (and (>= x 0) (< x 256))
	        (cast uint8 x)
	        (cast uint8 0)))`)
	if hasCode(rep, analysis.CodeTruncate) {
		t.Fatalf("and-guarded cast flagged: %v", rep.Findings)
	}
}

func TestTruncateAssignedRangeNegative(t *testing.T) {
	// The last assignment dominates the cast and its value fits.
	rep := runOn(t, `
	  (define (f (x int64)) uint8
	    (let ((mutable y 0))
	      (set! y (bitand x 127))
	      (cast uint8 y)))`)
	if hasCode(rep, analysis.CodeTruncate) {
		t.Fatalf("range-assigned cast flagged: %v", rep.Findings)
	}
}

func TestTruncateWrappedWideOperandPositive(t *testing.T) {
	// 64-bit +/- wraps at run time: n = 0 makes (- n 1) 2^64-1, and a
	// non-negative int64 x at its top makes (+ x 1) negative. Each cast
	// must be judged on its operand's full source type.
	cases := []struct{ src, rng string }{
		{`(define (f (n uint64)) int32
		    (if (< n 100) (cast int32 (- n 1)) 0))`, "[0, 18446744073709551615]"},
		{`(define (f (x int64)) uint64
		    (if (>= x 0) (cast uint64 (+ x 1)) 0))`, "[-9223372036854775808, 9223372036854775807]"},
	}
	for _, c := range cases {
		rep := runOn(t, c.src)
		found := false
		for _, f := range rep.Findings {
			if f.Code == analysis.CodeTruncate {
				found = true
				if !strings.Contains(f.Message, "source range "+c.rng) {
					t.Errorf("%s: source range outside the source type: %s", c.src, f.Message)
				}
			}
		}
		if !found {
			t.Errorf("%s: wrapping cast not reported: %v", c.src, codesOf(rep))
		}
	}
}

func TestTruncateWidenedNarrowCounterNegative(t *testing.T) {
	// The loop widens b's stored range past int8's top; a value still fits
	// its type, so the widening casts see at most int8's range.
	rep := runOn(t, `
	  (define (f) int64
	    (let ((mutable b (cast int8 120)))
	      (dotimes (k 10)
	        (if (>= b 100) (set! b (+ b 1)) ()))
	      (+ (cast int64 b) (cast int64 (+ b 1)))))`)
	if hasCode(rep, analysis.CodeTruncate) {
		t.Fatalf("widened int8 counter flagged: %v", rep.Findings)
	}
}

func TestTruncateLoopMaskNarrowedNegative(t *testing.T) {
	// The loop-head widening loses y's upper bound; narrowing must recover
	// the mask's [0, 127] before the cast after the loop.
	rep := runOn(t, `
	  (define (f (x int64)) uint8
	    (let ((mutable y 0))
	      (dotimes (k 10)
	        (set! y (bitand x 127)))
	      (cast uint8 y)))`)
	if hasCode(rep, analysis.CodeTruncate) {
		t.Fatalf("loop-masked cast flagged: %v", rep.Findings)
	}
}

// ---------------------------------------------------------------------------
// deadstore
// ---------------------------------------------------------------------------

func TestDeadStorePositive(t *testing.T) {
	rep := runOn(t, `
	  (define (f) int64
	    (let ((mutable x 1))
	      (set! x 2)
	      (set! x 3)
	      x))`)
	if !hasCode(rep, analysis.CodeDeadStore) {
		t.Fatalf("dead store not reported: %v", codesOf(rep))
	}
}

func TestDeadStoreNegativeReadLater(t *testing.T) {
	rep := runOn(t, `
	  (define (f) int64
	    (let ((mutable x 1))
	      (set! x 2)
	      (println x)
	      x))`)
	if hasCode(rep, analysis.CodeDeadStore) {
		t.Fatalf("live store flagged: %v", rep.Findings)
	}
}

func TestDeadStoreNegativeLambdaCapture(t *testing.T) {
	// A closure can observe any later value of x: stores are never dead.
	rep := runOn(t, `
	  (define (f) int64
	    (let ((mutable x 1))
	      (let ((get (lambda () x)))
	        (set! x 2)
	        (get))))`)
	if hasCode(rep, analysis.CodeDeadStore) {
		t.Fatalf("captured store flagged: %v", rep.Findings)
	}
}

func TestUnusedBindingPositive(t *testing.T) {
	rep := runOn(t, `
	  (define (f) int64
	    (let ((unused 41) (kept 1))
	      kept))`)
	if !hasCode(rep, analysis.CodeUnusedBinding) {
		t.Fatalf("unused binding not reported: %v", codesOf(rep))
	}
}

func TestUnusedBindingNegative(t *testing.T) {
	rep := runOn(t, `
	  (define (f) int64
	    (let ((a 1) (b 2))
	      (+ a b)))`)
	if hasCode(rep, analysis.CodeUnusedBinding) {
		t.Fatalf("used bindings flagged: %v", rep.Findings)
	}
}

func TestUnusedBindingUnderscoreExempt(t *testing.T) {
	rep := runOn(t, `
	  (define (f) int64
	    (let ((_ignored 41))
	      7))`)
	if hasCode(rep, analysis.CodeUnusedBinding) {
		t.Fatalf("underscore binding flagged: %v", rep.Findings)
	}
}

func TestWriteOnlyBindingPositive(t *testing.T) {
	rep := runOn(t, `
	  (define (f) int64
	    (let ((mutable x 0))
	      (set! x 9)
	      7))`)
	found := false
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeUnusedBinding && strings.Contains(f.Message, "never read") {
			found = true
		}
	}
	if !found {
		t.Fatalf("write-only binding not reported: %v", rep.Findings)
	}
}

// ---------------------------------------------------------------------------
// ffi
// ---------------------------------------------------------------------------

func TestFFINonScalarExternalPositive(t *testing.T) {
	rep := runOn(t, `
	  (external blob_sum (-> ((vector int64)) int64) "blob_sum")
	  (define (main) int64 7)`)
	if !hasCode(rep, analysis.CodeFFIType) {
		t.Fatalf("non-scalar external not reported: %v", codesOf(rep))
	}
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeFFIType && f.Severity != source.Error {
			t.Errorf("FFI001 severity = %v, want error", f.Severity)
		}
	}
}

func TestFFIScalarExternalNegative(t *testing.T) {
	rep := runOn(t, `
	  (external c_abs (-> (int64) int64) "abs")
	  (define (main) int64 (c_abs -7))`)
	if hasCode(rep, analysis.CodeFFIType) {
		t.Fatalf("scalar external flagged: %v", rep.Findings)
	}
}

func TestFFIAtomicPositive(t *testing.T) {
	rep := runOn(t, `
	  (external c_abs (-> (int64) int64) "abs")
	  (define (main) int64
	    (atomic (c_abs -7)))`)
	if !hasCode(rep, analysis.CodeFFIAtomic) {
		t.Fatalf("external under atomic not reported: %v", codesOf(rep))
	}
}

func TestFFIAtomicInterprocedural(t *testing.T) {
	rep := runOn(t, `
	  (external c_abs (-> (int64) int64) "abs")
	  (define (helper (x int64)) int64 (c_abs x))
	  (define (main) int64
	    (atomic (helper -7)))`)
	if !hasCode(rep, analysis.CodeFFIAtomic) {
		t.Fatalf("interprocedural atomic call missed: %v", codesOf(rep))
	}
}

func TestFFIAtomicNegative(t *testing.T) {
	rep := runOn(t, `
	  (external c_abs (-> (int64) int64) "abs")
	  (define (main) int64
	    (c_abs -7))`)
	if hasCode(rep, analysis.CodeFFIAtomic) {
		t.Fatalf("plain external call flagged: %v", rep.Findings)
	}
}

func TestFFIRegionPositive(t *testing.T) {
	rep := runOn(t, `
	  (defstruct msg (v int64))
	  (external c_keep (-> (msg) int64) "keep")
	  (define (f) int64
	    (with-region r
	      (let ((m (alloc-in r (make msg :v 1))))
	        (c_keep m))))`)
	if !hasCode(rep, analysis.CodeFFIRegion) {
		t.Fatalf("unpinned region value not reported: %v", codesOf(rep))
	}
}

func TestFFIRegionNegative(t *testing.T) {
	// A scalar derived from region data is fine to pass.
	rep := runOn(t, `
	  (defstruct msg (v int64))
	  (external c_abs (-> (int64) int64) "abs")
	  (define (f) int64
	    (with-region r
	      (let ((m (alloc-in r (make msg :v 1))))
	        (c_abs (field m v)))))`)
	if hasCode(rep, analysis.CodeFFIRegion) {
		t.Fatalf("scalar pass flagged: %v", rep.Findings)
	}
}
