package analysis_test

import (
	"testing"

	"bitc/internal/analysis"
	"bitc/internal/ast"
	"bitc/internal/bench"
	"bitc/internal/parser"
	"bitc/internal/source"
	"bitc/internal/types"
)

// proofsOn parses, checks, and runs the bounds prover over src.
func proofsOn(t *testing.T, src string) *analysis.BoundsProofSet {
	t.Helper()
	prog, info := checkSrc(t, src)
	return analysis.BoundsProofs(prog, info)
}

func checkSrc(t *testing.T, src string) (*ast.Program, *types.Info) {
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

func TestBoundsConstantOOB(t *testing.T) {
	rep := runOn(t, `
	  (define (main) int64
	    (let ((v (make-vector 5 0)))
	      (vector-ref v 9)))`)
	if !hasCode(rep, analysis.CodeBoundOOB) {
		t.Fatalf("constant out-of-range access not reported: %v", codesOf(rep))
	}
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeBoundOOB && f.Severity != source.Error {
			t.Errorf("BOUND001 severity = %v, want error", f.Severity)
		}
	}
}

func TestBoundsNegativeIndexOOB(t *testing.T) {
	rep := runOn(t, `
	  (define (main) int64
	    (let ((v (make-vector 5 0)))
	      (vector-ref v (- 0 3))))`)
	if !hasCode(rep, analysis.CodeBoundOOB) {
		t.Fatalf("negative index not reported: %v", codesOf(rep))
	}
}

func TestBoundsBranchRefinedOOB(t *testing.T) {
	// The else branch of (< i 10) knows i >= 10 >= the length.
	rep := runOn(t, `
	  (define (get (i int64)) int64
	    (let ((v (make-vector 10 0)))
	      (if (< i 10)
	          0
	          (vector-ref v i))))`)
	if !hasCode(rep, analysis.CodeBoundOOB) {
		t.Fatalf("branch-refined OOB not reported: %v", codesOf(rep))
	}
}

func TestBoundsSymbolicOOB(t *testing.T) {
	// The index equals the symbolic length: v[n] with len(v) == n.
	rep := runOn(t, `
	  (define (get (n int64)) int64
	    (let ((v (make-vector n 0)))
	      (vector-ref v n)))`)
	if !hasCode(rep, analysis.CodeBoundOOB) {
		t.Fatalf("symbolic v[n] with len n not reported: %v", codesOf(rep))
	}
}

func TestBoundsProvenSitesReportNothing(t *testing.T) {
	rep := runOpts(t, `
	  (define (sum (n int64)) int64
	    (let ((v (make-vector n 0)))
	      (dotimes (i n) (vector-set! v i i))
	      (let ((mutable acc 0))
	        (dotimes (i n) (set! acc (+ acc (vector-ref v i))))
	        acc)))`, analysis.Options{Strict: true})
	if hasCode(rep, analysis.CodeBoundOOB) || hasCode(rep, analysis.CodeBoundMaybe) {
		t.Fatalf("proven loop accesses still reported: %v", codesOf(rep))
	}
}

func TestBoundsUnprovenOnlyUnderStrict(t *testing.T) {
	src := `
	  (define (get (n int64) (i int64)) int64
	    (let ((v (make-vector n 0)))
	      (vector-ref v i)))`
	if rep := runOn(t, src); hasCode(rep, analysis.CodeBoundMaybe) {
		t.Fatalf("BOUND002 leaked into a non-strict report: %v", codesOf(rep))
	}
	rep := runOpts(t, src, analysis.Options{Strict: true})
	if !hasCode(rep, analysis.CodeBoundMaybe) {
		t.Fatalf("BOUND002 missing under -strict: %v", codesOf(rep))
	}
	for _, f := range rep.Findings {
		if f.Code == analysis.CodeBoundMaybe && f.Severity != source.Note {
			t.Errorf("BOUND002 severity = %v, want note", f.Severity)
		}
	}
}

func TestBoundsWhileInduction(t *testing.T) {
	// A hand-rolled counter loop: (set! i (+ i 1)) under (< i n) must keep
	// the relational bound i <= n-1 and discharge both accesses.
	ps := proofsOn(t, `
	  (define (fill (n int64)) int64
	    (let ((v (make-vector n 0)))
	      (let ((mutable i 0))
	        (while (< i n)
	          (vector-set! v i (vector-ref v i))
	          (set! i (+ i 1))))
	      0))`)
	if ps.Sites != 2 || ps.Proved != 2 {
		t.Fatalf("while-loop induction: proved %d/%d sites, want 2/2", ps.Proved, ps.Sites)
	}
}

func TestBoundsDownCountNarrowing(t *testing.T) {
	// A descending counter widens its lower bound away at the loop head; the
	// narrowing phase must recover i >= 0 from the guard for the access.
	ps := proofsOn(t, `
	  (define (drain (n int64)) int64
	    (let ((v (make-vector n 0)))
	      (let ((mutable i (- n 1)) (mutable acc 0))
	        (while (>= i 0)
	          (set! acc (+ acc (vector-ref v i)))
	          (set! i (- i 1)))
	        acc)))`)
	if ps.Sites != 1 || ps.Proved != 1 {
		t.Fatalf("down-count loop: proved %d/%d sites, want 1/1", ps.Proved, ps.Sites)
	}
}

func TestBoundsVectorLiteralLength(t *testing.T) {
	ps := proofsOn(t, `
	  (define (main) int64
	    (let ((v (vector 1 2 3)))
	      (vector-ref v 2)))`)
	if ps.Sites != 1 || ps.Proved != 1 {
		t.Fatalf("vector literal: proved %d/%d sites, want 1/1", ps.Proved, ps.Sites)
	}
}

func TestBoundsUnknownVectorUnproven(t *testing.T) {
	// A parameter vector has no visible allocation site: nothing provable,
	// nothing flagged as an error.
	ps := proofsOn(t, `
	  (define (get (v (vector int64))) int64
	    (vector-ref v 0))
	  (define (main) int64
	    (get (make-vector 4 7)))`)
	if ps.Proved != 0 {
		t.Fatalf("parameter vector access must stay unproven, proved %d/%d", ps.Proved, ps.Sites)
	}
}

// TestBoundsE1Discharge is the ISSUE acceptance gate: the prover must
// discharge at least 60% of the static vector-access sites across the E1
// benchmark kernels.
func TestBoundsE1Discharge(t *testing.T) {
	total, proved := 0, 0
	for _, name := range bench.KernelNames() {
		src, ok := bench.KernelSource(name)
		if !ok {
			t.Fatalf("kernel %s has no source", name)
		}
		ps := proofsOn(t, src)
		t.Logf("%s: proved %d/%d vector-access sites", name, ps.Proved, ps.Sites)
		total += ps.Sites
		proved += ps.Proved
	}
	if total == 0 {
		t.Fatal("no vector-access sites found in E1 kernels")
	}
	if proved*100 < total*60 {
		t.Fatalf("prover discharged %d/%d E1 sites (%d%%), acceptance floor is 60%%",
			proved, total, proved*100/total)
	}
}

// TestBoundsSuppression: the standard directives mute bounds findings.
func TestBoundsSuppression(t *testing.T) {
	rep := runOn(t, `
	  (define (main) int64
	    (let ((v (make-vector 5 0)))
	      (suppress "BITC-BOUND001" (vector-ref v 9))))`)
	if hasCode(rep, analysis.CodeBoundOOB) {
		t.Fatalf("suppressed BOUND001 still reported: %v", codesOf(rep))
	}
	found := false
	for _, f := range rep.Suppressed {
		if f.Code == analysis.CodeBoundOOB {
			found = true
		}
	}
	if !found {
		t.Fatal("suppressed finding not recorded in Suppressed")
	}
}

// ---------------------------------------------------------------------------
// BITC-PROV001: capability narrowing at the FFI boundary
// ---------------------------------------------------------------------------

func TestFFIProvNarrowingCast(t *testing.T) {
	rep := runOn(t, `
	  (external put8 (-> (uint8) int64) "put8")
	  (define (emit8 (x int64)) int64
	    (put8 (cast uint8 x)))`)
	if !hasCode(rep, analysis.CodeFFIProv) {
		t.Fatalf("unguarded narrowing cast at FFI boundary not reported: %v", codesOf(rep))
	}
}

func TestFFIProvGuardedCastClean(t *testing.T) {
	// Branch refinement proves the value fits the declared window.
	rep := runOn(t, `
	  (external put8 (-> (uint8) int64) "put8")
	  (define (emit8 (x int64)) int64
	    (if (and (>= x 0) (< x 256))
	        (put8 (cast uint8 x))
	        0))`)
	if hasCode(rep, analysis.CodeFFIProv) {
		t.Fatalf("guarded in-window cast reported: %v", codesOf(rep))
	}
}

func TestFFIProvLiteralClean(t *testing.T) {
	rep := runOn(t, `
	  (external put8 (-> (uint8) int64) "put8")
	  (define (emit8c) int64
	    (put8 (cast uint8 42)))`)
	if hasCode(rep, analysis.CodeFFIProv) {
		t.Fatalf("constant in-window cast reported: %v", codesOf(rep))
	}
}
