package analysis_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bitc/internal/analysis"
	"bitc/internal/bench"
	"bitc/internal/corpus"
	"bitc/internal/serve"
)

// Hand-written programs whose proofs depend on code outside the accessing
// function: a vector allocated in another function, held in a global, or
// captured by a lambda (which couples its function to the leak boundary).
// Each has a choose-style access that the prover must leave unproven
// because a second, shorter vector can reach it from elsewhere.
const (
	srcVecHelper = `
(define (mk (n int64)) (vector int64) (make-vector n 0))
(define (fill (n int64)) int64
  (let ((v (mk n)) (w (make-vector n 0)))
    (dotimes (i n) (vector-set! v i i) (vector-set! w i i))
    (+ (vector-ref v 0) (vector-ref w 0))))
(define (choose (c bool)) int64
  (let ((v (if c (make-vector 4 0) (mk 2))))
    (vector-ref v 3)))
(define (plain (x int64)) int64 (+ x 1))
`
	srcVecGlobal = `
(define gv (vector int64) (make-vector 8 0))
(define gs (vector int64) (vector 1 2 3))
(define (put (i int64) (x int64)) unit
  (if (and (>= i 0) (< i 8)) (vector-set! gv i x) ()))
(define (sum) int64
  (let ((mutable acc 0))
    (dotimes (i 8) (set! acc (+ acc (vector-ref gv i))))
    acc))
(define (choose (c bool)) int64
  (let ((v (if c gs (make-vector 10 0))))
    (vector-ref v 5)))
(define (other (x int64)) int64 (* x 2))
`
	srcVecLambda = `
(define (show (x int64)) unit (println x))
(define (esc (n int64)) int64
  (let ((v (make-vector n 0)))
    (let ((get (lambda ((i int64)) int64 (vector-ref v i))))
      (dotimes (i n) (vector-set! v i i))
      (show (get 0))
      (vector-ref v (- n 1)))))
(define (deferred) (-> (int64) int64)
  (let ((w (vector 1 2 3)))
    (lambda ((i int64)) int64 (vector-ref w 2))))
(define (leaker) (-> () (vector int64))
  (lambda () (vector 7)))
(define (pick (f (-> () (vector int64))) (c bool)) int64
  (let ((w (make-vector 4 0)))
    (let ((x (if c w (f))))
      (vector-ref x 2))))
`
)

// splicedKernels renames every E1 kernel's entry point so that all four can
// share one program.
func splicedKernels(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, name := range bench.KernelNames() {
		src, ok := bench.KernelSource(name)
		if !ok {
			t.Fatalf("no kernel %q", name)
		}
		b.WriteString(strings.Replace(src, "(define (entry ", "(define (entry-"+name+" ", 1))
	}
	return b.String()
}

// demandInputs lists every program the site-scanning prover is checked on.
func demandInputs(t *testing.T) map[string]string {
	t.Helper()
	in := map[string]string{}
	for _, root := range []string{"../../examples", "../core/testdata"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || filepath.Ext(path) != ".bitc" {
				return err
			}
			src, err := os.ReadFile(path)
			in[path] = string(src)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range bench.KernelNames() {
		in["kernel:"+name], _ = bench.KernelSource(name)
	}
	for _, kind := range []string{"shard", "twopc"} {
		src, err := serve.EmitProgram(kind, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		in["serve:"+kind] = src
	}
	in["mixed:helper"] = srcVecHelper
	in["mixed:global"] = srcVecGlobal
	in["mixed:lambda"] = srcVecLambda
	in["mixed:corpus+kernels"] = corpus.Text(120, 8) + splicedKernels(t) + srcVecLambda
	return in
}

func sameProofs(a, b *analysis.BoundsProofSet) bool {
	return a.Sites == b.Sites && a.Proved == b.Proved && reflect.DeepEqual(a.Elidable(), b.Elidable())
}

// TestBoundsProofsDemandExact holds the demand-driven prover (the engine
// runs only on functions the site scan selects) to the every-function
// reference on every shipped, kernel, golden and generated program plus
// hand-written cases with sites in lambdas and vectors from elsewhere.
func TestBoundsProofsDemandExact(t *testing.T) {
	inputs := demandInputs(t)
	totalSites := 0
	for name, src := range inputs {
		prog, info := checkSrc(t, src)
		want := analysis.BoundsProofsWholeProgram(prog, info)
		totalSites += want.Sites
		if got := analysis.BoundsProofs(prog, info); !sameProofs(got, want) {
			t.Errorf("%s: demand proofs %d/%d %v, whole-program %d/%d %v",
				name, got.Proved, got.Sites, got.Elidable(), want.Proved, want.Sites, want.Elidable())
		}
	}
	if len(inputs) < 30 || totalSites < 30 {
		t.Fatalf("exactness suite too thin: %d programs, %d sites", len(inputs), totalSites)
	}
}

// TestBoundsProofsIgnoreUnrelatedCode: appending site-free code that
// shares no vector with a kernel cannot change its proofs, and a program
// without a vector access proves nothing.
func TestBoundsProofsIgnoreUnrelatedCode(t *testing.T) {
	filler := corpus.Text(200, 24)
	for _, name := range bench.KernelNames() {
		src, _ := bench.KernelSource(name)
		prog, info := checkSrc(t, src)
		alone := analysis.BoundsProofs(prog, info)
		prog, info = checkSrc(t, src+filler)
		if padded := analysis.BoundsProofs(prog, info); !sameProofs(padded, alone) {
			t.Errorf("%s: appending unrelated code changed the proofs: %d/%d %v, alone %d/%d %v",
				name, padded.Proved, padded.Sites, padded.Elidable(), alone.Proved, alone.Sites, alone.Elidable())
		}
	}
	prog, info := checkSrc(t, filler)
	ps := analysis.BoundsProofs(prog, info)
	if ps.Sites != 0 || ps.Proved != 0 || ps.Elidable() == nil || len(ps.Elidable()) != 0 {
		t.Fatalf("site-free program: %d/%d sites, elidable %v (want 0/0 and an empty non-nil map)",
			ps.Proved, ps.Sites, ps.Elidable())
	}
}
