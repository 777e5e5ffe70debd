package ast_test

import (
	"strings"
	"testing"

	"bitc/internal/ast"
	"bitc/internal/parser"
)

// reparse is the canonical round trip: parse, print, parse again, print
// again; both printed forms must agree.
func reparse(t *testing.T, src string) string {
	t.Helper()
	p1, d1 := parser.Parse("a", src)
	if d1.HasErrors() {
		t.Fatalf("parse: %v", d1)
	}
	s1 := ast.PrintProgram(p1)
	p2, d2 := parser.Parse("b", s1)
	if d2.HasErrors() {
		t.Fatalf("reparse of %q: %v", s1, d2)
	}
	s2 := ast.PrintProgram(p2)
	if s1 != s2 {
		t.Fatalf("printer unstable:\n%s\n%s", s1, s2)
	}
	return s1
}

func TestPrintCoversEveryForm(t *testing.T) {
	// One program exercising every expression and definition form.
	src := `
	(defstruct s :packed :align 4 (a (bitfield uint16 9)) (b uint8) (arr (array uint8 4)))
	(defunion u (A) (B (x int64) (s string)))
	(external ext (-> (int64) int64) "sym")
	(define gv int64 42)
	(define (f (p s) (o u) (g (-> (int64) int64))) int64
	  :requires (> gv 0)
	  :ensures (>= %result 0)
	  (begin
	    (assert #t)
	    (let* ((a 1.5) (mutable b 2))
	      (set! b (+ b 1))
	      (while (< b 10) (set! b (* b 2)))
	      (dotimes (i 3) (println i)))
	    (letrec ((go (lambda ((k int64)) int64 (if (= k 0) 0 (go (- k 1))))))
	      (go 3))
	    (case o
	      ((A) 0)
	      ((B x str) (string-length str))
	      (_ -1))
	    (with-region r
	      (let ((m (alloc-in r (make s :a 1 :b 2 :arr (vector 0 0 0 0)))))
	        (set-field! m b 3)
	        (field m b)))
	    (with-lock l (atomic (spawn (g 1))))
	    (cast int64 (vector-ref (vector #\x "str" ) 0))))`
	// The vector with mixed types won't type-check, but printing is
	// type-agnostic; we only parse + print here.
	out := reparse(t, src)
	for _, want := range []string{
		"defstruct", ":packed", ":align 4", "bitfield", "array",
		"defunion", "external", ":requires", ":ensures",
		"let*", "letrec", "lambda", "while", "dotimes", "case",
		"with-region", "alloc-in", "set-field!", "with-lock", "atomic",
		"spawn", "cast", "assert", "#\\x",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed program missing %q", want)
		}
	}
}

func TestWalkVisitsEverything(t *testing.T) {
	prog, diags := parser.Parse("w", `
	  (define (f (x int64)) int64
	    (let ((v (vector 1 2)))
	      (if (> x 0)
	          (begin (vector-set! v 0 x) (vector-ref v 0))
	          (case x (0 9) (_ (- 0 x))))))`)
	if diags.HasErrors() {
		t.Fatal(diags)
	}
	count := 0
	var sawIf, sawCase, sawCall bool
	ast.WalkDef(prog.Defs[0], func(e ast.Expr) bool {
		count++
		switch e.(type) {
		case *ast.If:
			sawIf = true
		case *ast.Case:
			sawCase = true
		case *ast.Call:
			sawCall = true
		}
		return true
	})
	if count < 15 || !sawIf || !sawCase || !sawCall {
		t.Errorf("walk visited %d nodes (if=%v case=%v call=%v)", count, sawIf, sawCase, sawCall)
	}
}

func TestWalkPrune(t *testing.T) {
	prog, _ := parser.Parse("w", `(define (f) int64 (if #t (+ 1 2) (+ 3 4)))`)
	var total, afterPrune int
	ast.WalkDef(prog.Defs[0], func(e ast.Expr) bool { total++; return true })
	ast.WalkDef(prog.Defs[0], func(e ast.Expr) bool {
		afterPrune++
		_, isIf := e.(*ast.If)
		return !isIf // skip the if's children
	})
	if afterPrune >= total {
		t.Errorf("prune did not prune: %d vs %d", afterPrune, total)
	}
}

func TestWalkNilSafe(t *testing.T) {
	ast.Walk(nil, func(ast.Expr) bool { t.Fatal("visited nil"); return true })
}

func TestFloatPrintingReparses(t *testing.T) {
	for _, src := range []string{
		`(define x 1.5)`, `(define x 1e9)`, `(define x 2.0)`, `(define x -0.25)`,
	} {
		out := reparse(t, src)
		p, d := parser.Parse("f", out)
		if d.HasErrors() {
			t.Fatalf("%q -> %q: %v", src, out, d)
		}
		if _, ok := p.Defs[0].(*ast.DefineVar).Init.(*ast.FloatLit); !ok {
			t.Errorf("%q printed as %q which is no longer a float", src, out)
		}
	}
}

func TestDefNames(t *testing.T) {
	prog, _ := parser.Parse("n", `
	  (define (f) int64 1)
	  (define g int64 2)
	  (defstruct s (x int64))
	  (defunion u (A))
	  (external e (-> () int64) "e")`)
	want := []string{"f", "g", "s", "u", "e"}
	for i, d := range prog.Defs {
		if d.DefName() != want[i] {
			t.Errorf("def %d name = %s, want %s", i, d.DefName(), want[i])
		}
	}
}
