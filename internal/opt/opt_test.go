package opt_test

import (
	"fmt"
	"strings"
	"testing"

	"bitc/internal/compiler"
	"bitc/internal/ir"
	"bitc/internal/opt"
	"bitc/internal/parser"
	"bitc/internal/types"
	"bitc/internal/vm"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	prog, diags := parser.Parse("t.bitc", src)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	info, cdiags := types.Check(prog)
	if cdiags.HasErrors() {
		t.Fatalf("check: %v", cdiags)
	}
	mod, mdiags := compiler.Compile(prog, info, compiler.Options{})
	if mdiags.HasErrors() {
		t.Fatalf("compile: %v", mdiags)
	}
	return mod
}

func runMod(t *testing.T, mod *ir.Module, fn string, args ...vm.Value) vm.Value {
	t.Helper()
	machine := vm.New(mod, vm.Options{})
	val, err := machine.RunFunc(fn, args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return val
}

func countInstrs(mod *ir.Module, fn string) int {
	f := mod.FuncByName(fn)
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

func TestConstFoldPreservesSemantics(t *testing.T) {
	src := `(define (f (x int64)) int64 (+ x (* 3 (+ 2 2))))`
	mod := compile(t, src)
	before := runMod(t, mod, "f", vm.IntValue(5))
	res := opt.Optimize(mod, opt.O1)
	after := runMod(t, mod, "f", vm.IntValue(5))
	if before.I != after.I || after.I != 17 {
		t.Fatalf("before=%d after=%d", before.I, after.I)
	}
	if res.ConstFolded < 2 {
		t.Errorf("folded only %d", res.ConstFolded)
	}
}

func TestConstFoldNeverFoldsDivByZero(t *testing.T) {
	src := `(define (f) int64 (/ 1 0))`
	mod := compile(t, src)
	opt.Optimize(mod, opt.O1)
	machine := vm.New(mod, vm.Options{})
	if _, err := machine.RunFunc("f"); err == nil || !strings.Contains(err.Error(), "division") {
		t.Fatalf("div-by-zero trap lost: %v", err)
	}
}

func TestConstFoldRespectsWidth(t *testing.T) {
	src := `(define (f) uint8 (+ (cast uint8 200) (cast uint8 100)))`
	mod := compile(t, src)
	opt.Optimize(mod, opt.O2)
	val := runMod(t, mod, "f")
	if val.I != 44 {
		t.Fatalf("u8 200+100 = %d, want 44 (wrap preserved)", val.I)
	}
}

func TestDeadCodeRemoved(t *testing.T) {
	src := `(define (f (x int64)) int64
	          (let ((unused (* x 99)) (u2 (+ x 1)))
	            x))`
	mod := compile(t, src)
	before := countInstrs(mod, "f")
	res := opt.Optimize(mod, opt.O1)
	after := countInstrs(mod, "f")
	if res.DeadRemoved == 0 || after >= before {
		t.Fatalf("dead code not removed: %d -> %d (removed %d)", before, after, res.DeadRemoved)
	}
	if runMod(t, mod, "f", vm.IntValue(7)).I != 7 {
		t.Fatal("semantics changed")
	}
}

func TestCopyPropagation(t *testing.T) {
	src := `(define (f (x int64)) int64 (let ((a x) (b x)) (+ a b)))`
	mod := compile(t, src)
	res := opt.Optimize(mod, opt.O1)
	if res.CopiesRemoved == 0 {
		t.Error("no copies propagated")
	}
	if runMod(t, mod, "f", vm.IntValue(21)).I != 42 {
		t.Fatal("semantics changed")
	}
}

func TestUnboxAnnotationLoopLocals(t *testing.T) {
	// A tight loop over locals: almost everything should be unboxable.
	src := `(define (f (n int64)) int64
	          (let ((mutable acc 0))
	            (dotimes (i n) (set! acc (+ acc (* i 3))))
	            acc))`
	mod := compile(t, src)
	res := opt.Optimize(mod, opt.O2)
	bs := res.Boxing
	if bs.ScalarResults == 0 {
		t.Fatal("no scalar results found")
	}
	if bs.Unboxable == 0 {
		t.Fatalf("nothing unboxable: %+v", bs)
	}
	// The accumulator is returned, so at least one value must stay boxed.
	if bs.Boxed() == 0 {
		t.Fatalf("everything unboxed, including the escaping return: %+v", bs)
	}
}

func TestUnboxAnnotationHeapEscape(t *testing.T) {
	src := `
	  (defstruct p (v int64))
	  (define (f (x int64)) p (make p :v (* x 2)))`
	mod := compile(t, src)
	res := opt.Optimize(mod, opt.O2)
	if res.Boxing.EscapeHeap == 0 {
		t.Fatalf("heap escape not detected: %+v", res.Boxing)
	}
}

func TestUnboxAnnotationCallEscape(t *testing.T) {
	src := `
	  (define (g (x int64)) int64 x)
	  (define (big (a int64) (b int64) (c int64) (d int64) (e int64)) int64
	    (+ a (+ b (+ c (+ d (+ e (g (g (g (g (g a)))))))))))
	  (define (f (x int64)) int64 (big (* x 1) (* x 2) (* x 3) (* x 4) (* x 5)))`
	mod := compile(t, src)
	// Calls stay calls, so their arguments escape at the call.
	for _, fn := range mod.Funcs {
		opt.AnnotateUnboxed(fn)
	}
	bs := opt.AnnotateUnboxed(mod.FuncByName("f"))
	if bs.EscapeCall == 0 {
		t.Fatalf("call escape not detected: %+v", bs)
	}
}

func TestNoBoxHonouredByVM(t *testing.T) {
	src := `(define (work) int64
	          (let ((mutable acc 0))
	            (dotimes (i 5000) (set! acc (+ acc i)))
	            acc))`
	mod := compile(t, src)
	opt.Optimize(mod, opt.O2)

	naive := vm.New(mod, vm.Options{Mode: vm.Boxed})
	if _, err := naive.RunFunc("work"); err != nil {
		t.Fatal(err)
	}
	optimised := vm.New(mod, vm.Options{Mode: vm.Boxed, RespectNoBox: true})
	val, err := optimised.RunFunc("work")
	if err != nil {
		t.Fatal(err)
	}
	if val.I != 12497500 {
		t.Fatalf("result = %d", val.I)
	}
	if optimised.Stats.BoxAllocs >= naive.Stats.BoxAllocs {
		t.Fatalf("NoBox did not reduce boxing: %d vs %d",
			optimised.Stats.BoxAllocs, naive.Stats.BoxAllocs)
	}
	if optimised.Stats.BoxAllocs == 0 {
		t.Fatal("optimiser claims zero boxes — escaping values must still box")
	}
}

func TestOptimizedModulePassesFullSuiteSpot(t *testing.T) {
	// A composite program exercising structs, unions, closures, loops —
	// optimisation at O2 must not change any result.
	src := `
	  (defstruct acc (total int64))
	  (defunion opt (None) (Some (v int64)))
	  (define (maybe-add (a acc) (o opt)) unit
	    (case o
	      ((Some v) (set-field! a total (+ (field a total) v)))
	      ((None) ())))
	  (define (run) int64
	    (let ((a (make acc :total 0)))
	      (dotimes (i 50)
	        (maybe-add a (if (= (mod i 2) 0) (Some i) (None))))
	      (field a total)))`
	mod := compile(t, src)
	want := runMod(t, mod, "run").I
	mod2 := compile(t, src)
	opt.Optimize(mod2, opt.O2)
	got := runMod(t, mod2, "run").I
	if want != got || want != 600 {
		t.Fatalf("want %d got %d", want, got)
	}
}

func TestOptimizeLevels(t *testing.T) {
	src := `(define (f) int64 (+ 1 2))`
	mod := compile(t, src)
	if res := opt.Optimize(mod, opt.O0); res.ConstFolded != 0 {
		t.Error("O0 did work")
	}
	if res := opt.Optimize(mod, opt.O1); res.ConstFolded == 0 {
		t.Error("O1 did nothing")
	}
}

func TestO2KeepsBothBranches(t *testing.T) {
	src := `(define (f (c bool) (x int64)) int64 (if c (+ x 1) (- x 1)))`
	mod := compile(t, src)
	opt.Optimize(mod, opt.O2)
	if runMod(t, mod, "f", vm.BoolValue(true), vm.IntValue(10)).I != 11 {
		t.Fatal("true branch broken")
	}
	if runMod(t, mod, "f", vm.BoolValue(false), vm.IntValue(10)).I != 9 {
		t.Fatal("false branch broken")
	}
}

func TestO2MatchesO0OnRepeatedSubexpressions(t *testing.T) {
	// Expression-heavy program: O2 result must equal O0 result.
	src := `(define (f (x int64) (y int64)) int64
	          (+ (+ (* x y) (- x y))
	             (+ (* x y) (+ (- x y) (* y y)))))`
	m0 := compile(t, src)
	m2 := compile(t, src)
	opt.Optimize(m2, opt.O2)
	for _, pair := range [][2]int64{{3, 4}, {-2, 7}, {0, 0}} {
		a := runMod(t, m0, "f", vm.IntValue(pair[0]), vm.IntValue(pair[1])).I
		b := runMod(t, m2, "f", vm.IntValue(pair[0]), vm.IntValue(pair[1])).I
		if a != b {
			t.Fatalf("O0=%d O2=%d at %v", a, b, pair)
		}
	}
}

func TestConstFoldMatchesVMSignedness(t *testing.T) {
	// Every operand is a constant computed in the function's one block, so
	// O1 folds each operation; O0 leaves it to the VM. (- z o) is the
	// type's all-ones value: 2^n-1 for the unsigned types, -1 for int64.
	operands := []string{"(- z o)", "(- (- z o) o)", "o", "t"}
	ops := []string{"/", "mod", "<", "<=", ">", ">="}
	for _, ty := range []string{"uint8", "uint16", "uint32", "uint64", "int64"} {
		for _, op := range ops {
			for _, a := range operands {
				for _, b := range operands {
					result := ty
					if op != "/" && op != "mod" {
						result = "bool"
					}
					src := fmt.Sprintf(`(define (f) %s (let ((z %s 0) (o %s 1) (t %s 2)) (%s %s %s)))`,
						result, ty, ty, ty, op, a, b)
					m0 := compile(t, src)
					m1 := compile(t, src)
					if res := opt.Optimize(m1, opt.O1); res.ConstFolded == 0 {
						t.Fatalf("%s: nothing folded", src)
					}
					want, got := runMod(t, m0, "f"), runMod(t, m1, "f")
					if want.K != got.K || want.I != got.I {
						t.Errorf("%s: O0=%d O1=%d", src, want.I, got.I)
					}
				}
			}
		}
	}
}
