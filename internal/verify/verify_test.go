package verify_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bitc/internal/ast"
	"bitc/internal/parser"
	"bitc/internal/types"
	"bitc/internal/verify"
)

func report(t *testing.T, src string) *verify.Report {
	t.Helper()
	prog, diags := parser.Parse("t.bitc", src)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	info, cdiags := types.Check(prog)
	if cdiags.HasErrors() {
		t.Fatalf("check: %v", cdiags)
	}
	return verify.Program(prog, info, verify.DefaultOptions)
}

func allProved(t *testing.T, src string) *verify.Report {
	t.Helper()
	rep := report(t, src)
	if rep.Failed != 0 {
		for _, vc := range rep.VCs {
			if !vc.Result.Proved {
				t.Errorf("failed VC [%s] %s: cex %v", vc.Kind, vc.Desc, vc.Result.Counterexample)
			}
		}
		t.Fatalf("%s", rep.Summary())
	}
	return rep
}

func someFailed(t *testing.T, src string, wantKind verify.Kind) *verify.Report {
	t.Helper()
	rep := report(t, src)
	if rep.Failed == 0 {
		t.Fatalf("expected a failing VC: %s", rep.Summary())
	}
	found := false
	for _, vc := range rep.VCs {
		if !vc.Result.Proved && vc.Kind == wantKind {
			found = true
		}
	}
	if !found {
		t.Fatalf("no failing VC of kind %s in %s", wantKind, rep.Summary())
	}
	return rep
}

func TestSimpleEnsuresProved(t *testing.T) {
	rep := allProved(t, `
	  (define (inc (x int64)) int64
	    :requires (< x 1000)
	    :ensures (> %result x)
	    (+ x 1))`)
	if rep.Proved != 1 || len(rep.VCs) != 1 {
		t.Fatalf("%s", rep.Summary())
	}
}

func TestEnsuresFailureDetected(t *testing.T) {
	someFailed(t, `
	  (define (dec (x int64)) int64
	    :ensures (> %result x)
	    (- x 1))`, verify.KindEnsures)
}

func TestAssertWithRequires(t *testing.T) {
	allProved(t, `
	  (define (f (x int64) (y int64)) int64
	    :requires (>= x 0)
	    :requires (> y x)
	    (assert (>= y 1))
	    (- y x))`)
}

func TestAssertWithoutSupportFails(t *testing.T) {
	someFailed(t, `
	  (define (f (x int64)) int64
	    (assert (>= x 0))
	    x)`, verify.KindAssert)
}

func TestDivByZeroVC(t *testing.T) {
	allProved(t, `
	  (define (f (x int64)) int64
	    :requires (> x 0)
	    (/ 100 x))`)
	someFailed(t, `
	  (define (g (x int64)) int64 (/ 100 x))`, verify.KindDivZero)
}

func TestBoundsVC(t *testing.T) {
	allProved(t, `
	  (define (f (n int64)) int64
	    :requires (> n 0)
	    (let ((v (make-vector n 0)))
	      (vector-ref v (- n 1))))`)
	someFailed(t, `
	  (define (g (n int64)) int64
	    (let ((v (make-vector n 0)))
	      (vector-ref v n)))`, verify.KindBounds)
}

// TestShadowedBuiltinNotProved: a name a local shadows denotes the local,
// not the builtin or the outer binding it hides. Each program below traps
// or fails its assert when run, so no bounds or assert VC may be proved: a
// local closure named + makes (+ 5 0) 500, not 5; an inner (let ((n 1)) n)
// leaves the parameter n at 7; an inner x bound to 5 leaves the outer x at
// 1. The table of local closures named after every head verify dispatches
// on (internal/corpus/testdata/shadowed) joins them.
func TestShadowedBuiltinNotProved(t *testing.T) {
	srcs := map[string]string{
		"closure-named-+": `
(define (main) int64
  (let ((v (make-vector 10 7))
        (+ (lambda ((a int64) (b int64)) int64 (* a 100))))
    (vector-ref v (+ 5 0))))`,
		"shadowed-parameter": `
(define (g (n int64)) int64
  (let ((v (make-vector 3 0)))
    (let ((n 1)) n)
    (vector-ref v n)))
(define (main) int64 (g 7))`,
		"shadowed-let": `
(define (main) int64
  (let ((x 1))
    (let ((x 5)) x)
    (assert (= x 5))
    x))`,
	}
	files, err := filepath.Glob("../corpus/testdata/shadowed/*.bitc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no shadowed-head programs: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(b)
	}
	for name, src := range srcs {
		for _, vc := range report(t, src).VCs {
			if (vc.Kind == verify.KindBounds || vc.Kind == verify.KindAssert) && vc.Result.Proved {
				t.Errorf("%s: shadowed name read as what it hides: %s proved", name, vc.Desc)
			}
		}
	}
}

func TestVectorLiteralBounds(t *testing.T) {
	allProved(t, `(define (f) int64 (vector-ref (vector 1 2 3) 2))`)
	someFailed(t, `(define (g) int64 (vector-ref (vector 1 2 3) 3))`, verify.KindBounds)
}

func TestDoTimesBounds(t *testing.T) {
	// The canonical loop: index always within the vector it sweeps.
	allProved(t, `
	  (define (sum (n int64)) int64
	    :requires (>= n 0)
	    (let ((v (make-vector n 7)))
	      (let ((mutable acc 0))
	        (dotimes (i n)
	          (set! acc (+ acc (vector-ref v i))))
	        acc)))`)
}

func TestCalleeContractsAssumed(t *testing.T) {
	allProved(t, `
	  (define (pos (x int64)) int64
	    :requires (>= x 0)
	    :ensures (>= %result 1)
	    (+ x 1))
	  (define (f (y int64)) int64
	    :requires (>= y 5)
	    (let ((r (pos y)))
	      (assert (>= r 1))
	      r))`)
}

func TestCalleeRequiresCheckedAtCall(t *testing.T) {
	someFailed(t, `
	  (define (pos (x int64)) int64
	    :requires (>= x 0)
	    (+ x 1))
	  (define (f (y int64)) int64 (pos y))`, verify.KindRequires)
	allProved(t, `
	  (define (pos (x int64)) int64
	    :requires (>= x 0)
	    (+ x 1))
	  (define (f (y int64)) int64
	    :requires (> y 3)
	    (pos y))`)
}

func TestBranchReasoning(t *testing.T) {
	allProved(t, `
	  (define (absval (x int64)) int64
	    :ensures (>= %result 0)
	    (if (< x 0) (- 0 x) x))`)
	someFailed(t, `
	  (define (wrong (x int64)) int64
	    :ensures (>= %result 0)
	    (if (< x 0) x (- 0 x)))`, verify.KindEnsures)
}

func TestMinMaxSemantics(t *testing.T) {
	allProved(t, `
	  (define (clamp (x int64)) int64
	    :ensures (>= %result 0)
	    (max x 0))`)
	allProved(t, `
	  (define (low (a int64) (b int64)) int64
	    :ensures (<= %result a)
	    (min a b))`)
}

func TestLoopHavocIsSound(t *testing.T) {
	// acc is modified in the loop, so a post-loop assert about its initial
	// value must NOT be provable.
	someFailed(t, `
	  (define (f (n int64)) int64
	    (let ((mutable acc 0))
	      (dotimes (i n) (set! acc (+ acc 1)))
	      (assert (= acc 0))
	      acc))`, verify.KindAssert)
}

func TestWhileNegatedConditionAfterLoop(t *testing.T) {
	allProved(t, `
	  (define (f (n int64)) int64
	    (let ((mutable i 0))
	      (while (< i n) (set! i (+ i 1)))
	      (assert (>= i n))
	      i))`)
}

func TestNonLinearSkippedNotFailed(t *testing.T) {
	rep := report(t, `
	  (define (f (x int64) (y int64)) int64
	    (assert (>= (* x x) 0))
	    (* x y))`)
	if rep.Skipped == 0 {
		t.Fatalf("non-linear assert should be skipped: %s", rep.Summary())
	}
	if rep.Failed != 0 {
		t.Fatalf("non-linear assert must not be reported as failed: %s", rep.Summary())
	}
}

func TestCounterexampleSurfaces(t *testing.T) {
	rep := report(t, `
	  (define (f (x int64)) int64
	    :ensures (> %result 10)
	    (+ x 1))`)
	if rep.Failed == 0 {
		t.Fatal("expected failure")
	}
	for _, vc := range rep.VCs {
		if !vc.Result.Proved && len(vc.Result.Counterexample) == 0 {
			t.Error("failing VC without counterexample facts")
		}
	}
}

func TestSummaryString(t *testing.T) {
	rep := report(t, `(define (f (x int64)) int64 (+ x 1))`)
	if !strings.Contains(rep.Summary(), "VCs") {
		t.Errorf("summary = %q", rep.Summary())
	}
}

func TestBooleanResultEnsures(t *testing.T) {
	allProved(t, `
	  (define (is-neg (x int64)) bool
	    :requires (< x 0)
	    :ensures %result
	    (< x 0))`)
}

func TestAssertChainsAccumulate(t *testing.T) {
	allProved(t, `
	  (define (f (x int64)) int64
	    :requires (> x 10)
	    (assert (> x 5))
	    (assert (> x 3))
	    x)`)
}

func TestLoopInvariantEntry(t *testing.T) {
	// Invariant false on entry is caught.
	someFailed(t, `
	  (define (f (n int64)) int64
	    (let ((mutable i 5))
	      (while (< i n)
	        :invariant (>= i 10)
	        (set! i (+ i 1)))
	      i))`, verify.KindInvar)
}

func TestLoopInvariantPreservedAndUsed(t *testing.T) {
	// The canonical invariant proof: i stays non-negative, so after the
	// loop i >= n is known AND i >= 0 survives.
	allProved(t, `
	  (define (f (n int64)) int64
	    :requires (>= n 0)
	    :ensures (>= %result n)
	    (let ((mutable i 0))
	      (while (< i n)
	        :invariant (>= i 0)
	        (set! i (+ i 1)))
	      (assert (>= i 0))
	      i))`)
}

func TestLoopInvariantNotPreservedCaught(t *testing.T) {
	// Body breaks the invariant: preservation VC fails.
	someFailed(t, `
	  (define (f (n int64)) int64
	    (let ((mutable i 0))
	      (while (< i n)
	        :invariant (>= i 0)
	        (set! i (- i 1)))
	      i))`, verify.KindInvar)
}

func TestLoopInvariantGivesBoundsProof(t *testing.T) {
	// A while-loop vector sweep needs the invariant to prove bounds.
	allProved(t, `
	  (define (sum (n int64)) int64
	    :requires (> n 0)
	    (let ((v (make-vector n 0)) (mutable i 0) (mutable acc 0))
	      (while (< i n)
	        :invariant (>= i 0)
	        (set! acc (+ acc (vector-ref v i)))
	        (set! i (+ i 1)))
	      acc))`)
}

const cellHeader = `(defstruct cell (v int64) (cap int64))
`

func TestFieldReadsStableWithoutWrites(t *testing.T) {
	allProved(t, cellHeader+`
	  (define (f (s cell)) int64
	    (assert (= (field s v) (field s v)))
	    (field s v))`)
}

func TestFieldWriteThenReadKnown(t *testing.T) {
	allProved(t, cellHeader+`
	  (define (f (s cell)) int64
	    (set-field! s v 5)
	    (assert (= (field s v) 5))
	    (field s v))`)
}

func TestFieldAliasingIsSound(t *testing.T) {
	// Writing through t may alias s: knowledge about s.v must die.
	someFailed(t, cellHeader+`
	  (define (f (s cell) (u cell)) int64
	    (set-field! s v 5)
	    (set-field! u v 9)
	    (assert (= (field s v) 5))
	    (field s v))`, verify.KindAssert)
}

func TestFieldKnowledgeDiesAtCalls(t *testing.T) {
	someFailed(t, cellHeader+`
	  (define (mutate (s cell)) unit (set-field! s v 0))
	  (define (f (s cell)) int64
	    (set-field! s v 5)
	    (mutate s)
	    (assert (= (field s v) 5))
	    (field s v))`, verify.KindAssert)
}

func TestBoundedPushRequiresProvable(t *testing.T) {
	// The bounded-stack shape: the guard makes the callee's requires hold.
	allProved(t, cellHeader+`
	  (define (push (s cell)) unit
	    :requires (< (field s v) (field s cap))
	    (set-field! s v (+ (field s v) 1)))
	  (define (checked-push (s cell)) bool
	    (if (< (field s v) (field s cap))
	        (begin (push s) #t)
	        #f))`)
}

func TestFieldConditionsFlowThroughBranches(t *testing.T) {
	allProved(t, cellHeader+`
	  (define (f (s cell)) int64
	    :requires (>= (field s v) 0)
	    (if (> (field s v) 10)
	        (begin (assert (> (field s v) 5)) 1)
	        0))`)
}

func TestVerifyOptionsToggles(t *testing.T) {
	src := `
	  (define (f (x int64)) int64
	    (let ((v (make-vector 4 0)))
	      (+ (/ 10 x) (vector-ref v x))))`
	prog, _ := parser.Parse("t", src)
	info, _ := types.Check(prog)
	all := verify.Program(prog, info, verify.DefaultOptions)
	if len(all.VCs) != 2 {
		t.Fatalf("default options generated %d VCs, want 2", len(all.VCs))
	}
	none := verify.Program(prog, info, verify.Options{})
	if len(none.VCs) != 0 {
		t.Fatalf("disabled options generated %d VCs", len(none.VCs))
	}
	onlyDiv := verify.Program(prog, info, verify.Options{CheckDivZero: true})
	if len(onlyDiv.VCs) != 1 || onlyDiv.VCs[0].Kind != verify.KindDivZero {
		t.Fatalf("div-only options: %+v", onlyDiv.VCs)
	}
}

func TestVerifySingleFunction(t *testing.T) {
	src := `
	  (define (good (x int64)) int64 :ensures (>= %result x) x)
	  (define (bad (x int64)) int64 :ensures (> %result x) x)`
	prog, _ := parser.Parse("t", src)
	info, _ := types.Check(prog)
	var goodFn *ast.DefineFunc
	for _, d := range prog.Defs {
		if fn, ok := d.(*ast.DefineFunc); ok && fn.Name == "good" {
			goodFn = fn
		}
	}
	rep := verify.Function(goodFn, info, verify.DefaultOptions)
	if rep.Failed != 0 || rep.Proved != 1 {
		t.Fatalf("single-function verify: %s", rep.Summary())
	}
}
