package vm_test

import (
	"strings"
	"testing"

	"bitc/internal/compiler"
	"bitc/internal/core"
	"bitc/internal/opt"
	"bitc/internal/parser"
	"bitc/internal/types"
	"bitc/internal/vm"
)

// compileSrc runs the full front-end pipeline.
func compileSrc(t *testing.T, src string, opts compiler.Options) *vmModule {
	t.Helper()
	prog, diags := parser.Parse("t.bitc", src)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	info, cdiags := types.Check(prog)
	if cdiags.HasErrors() {
		t.Fatalf("check: %v", cdiags)
	}
	mod, mdiags := compiler.Compile(prog, info, opts)
	if mdiags.HasErrors() {
		t.Fatalf("compile: %v", mdiags)
	}
	return &vmModule{mod: mod}
}

type vmModule struct{ mod interface{} }

func run(t *testing.T, src string, fn string, args ...vm.Value) (vm.Value, *vm.VM) {
	t.Helper()
	return runOpts(t, src, fn, vm.Options{}, compiler.Options{}, args...)
}

func runOpts(t *testing.T, src, fn string, vopts vm.Options, copts compiler.Options, args ...vm.Value) (vm.Value, *vm.VM) {
	t.Helper()
	prog, diags := parser.Parse("t.bitc", src)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	info, cdiags := types.Check(prog)
	if cdiags.HasErrors() {
		t.Fatalf("check: %v", cdiags)
	}
	mod, mdiags := compiler.Compile(prog, info, copts)
	if mdiags.HasErrors() {
		t.Fatalf("compile: %v", mdiags)
	}
	machine := vm.New(mod, vopts)
	val, err := machine.RunFunc(fn, args...)
	if err != nil {
		t.Fatalf("run %s: %v", fn, err)
	}
	return val, machine
}

func runErr(t *testing.T, src, fn string, args ...vm.Value) error {
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
	machine := vm.New(mod, vm.Options{})
	_, err := machine.RunFunc(fn, args...)
	if err == nil {
		t.Fatalf("expected a trap from %s", fn)
	}
	return err
}

func TestArithmeticAndRecursion(t *testing.T) {
	src := `(define (fib (n int32)) int32
	          (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))`
	val, _ := run(t, src, "fib", vm.IntValue(20))
	if val.I != 6765 {
		t.Fatalf("fib(20) = %d", val.I)
	}
}

func TestIntegerWrapAround(t *testing.T) {
	src := `(define (f (x uint8)) uint8 (+ x 1))`
	val, _ := run(t, src, "f", vm.IntValue(255))
	if val.I != 0 {
		t.Fatalf("255+1 as u8 = %d, want 0 (wrap)", val.I)
	}
	src = `(define (g (x int8)) int8 (+ x 1))`
	val, _ = run(t, src, "g", vm.IntValue(127))
	if val.I != -128 {
		t.Fatalf("127+1 as i8 = %d, want -128", val.I)
	}
}

func TestUnsignedComparison(t *testing.T) {
	src := `(define (f (a uint8) (b uint8)) bool (< a b))`
	// 200 as u8 vs 100: unsigned 200 > 100.
	val, _ := run(t, src, "f", vm.IntValue(200), vm.IntValue(100))
	if val.I != 0 {
		t.Fatal("unsigned comparison treated as signed")
	}
}

func TestMutableLocalsAndWhile(t *testing.T) {
	src := `(define (sum-to (n int64)) int64
	          (let ((mutable acc 0) (mutable i 0))
	            (while (< i n)
	              (set! acc (+ acc i))
	              (set! i (+ i 1)))
	            acc))`
	val, _ := run(t, src, "sum-to", vm.IntValue(100))
	if val.I != 4950 {
		t.Fatalf("sum = %d", val.I)
	}
}

func TestDoTimesAndVectors(t *testing.T) {
	src := `(define (build (n int64)) int64
	          (let ((v (make-vector n 0)))
	            (dotimes (i n) (vector-set! v i (* i i)))
	            (let ((mutable acc 0))
	              (dotimes (i n) (set! acc (+ acc (vector-ref v i))))
	              acc)))`
	val, machine := run(t, src, "build", vm.IntValue(10))
	if val.I != 285 {
		t.Fatalf("sum of squares = %d", val.I)
	}
	if machine.Stats.VecOps == 0 || machine.Stats.Allocs == 0 {
		t.Error("stats not recorded")
	}
}

func TestVectorLiteral(t *testing.T) {
	src := `(define (f) int64 (vector-ref (vector 10 20 30) 1))`
	val, _ := run(t, src, "f")
	if val.I != 20 {
		t.Fatalf("got %d", val.I)
	}
}

func TestStructsFieldAccess(t *testing.T) {
	src := `
	  (defstruct point (x int32) (y int32))
	  (define (f) int32
	    (let ((p (make point :x 3 :y 4)))
	      (set-field! p x 30)
	      (+ (field p x) (field p y))))`
	val, _ := run(t, src, "f")
	if val.I != 34 {
		t.Fatalf("got %d", val.I)
	}
}

func TestUnionsAndCase(t *testing.T) {
	src := `
	  (defunion shape
	    (Circle (r float64))
	    (Rect (w float64) (h float64))
	    (Empty))
	  (define (area (s shape)) float64
	    (case s
	      ((Circle r) (* 3.0 (* r r)))
	      ((Rect w h) (* w h))
	      ((Empty) 0.0)))
	  (define (f) float64 (+ (area (Circle 2.0)) (+ (area (Rect 3.0 4.0)) (area Empty))))`
	val, _ := run(t, src, "f")
	if val.Float() != 24.0 {
		t.Fatalf("got %g", val.Float())
	}
}

func TestRecursiveUnionList(t *testing.T) {
	src := `
	  (defunion list (Nil) (Cons (head int64) (tail list)))
	  (define (sum (l list)) int64
	    (case l
	      ((Nil) 0)
	      ((Cons h t) (+ h (sum t)))))
	  (define (upto (n int64)) list
	    (if (= n 0) (Nil) (Cons n (upto (- n 1)))))
	  (define (f) int64 (sum (upto 10)))`
	val, _ := run(t, src, "f")
	if val.I != 55 {
		t.Fatalf("got %d", val.I)
	}
}

func TestCaseLiteralPatterns(t *testing.T) {
	src := `(define (name (x int64)) string
	          (case x (0 "zero") (1 "one") (_ "many")))`
	val, _ := run(t, src, "name", vm.IntValue(1))
	if val.Str() != "one" {
		t.Fatalf("got %q", val.Str())
	}
	val, _ = run(t, src, "name", vm.IntValue(7))
	if val.Str() != "many" {
		t.Fatalf("got %q", val.Str())
	}
}

func TestClosuresAndHigherOrder(t *testing.T) {
	src := `
	  (define (compose (f (-> (int64) int64)) (g (-> (int64) int64))) (-> (int64) int64)
	    (lambda ((x int64)) int64 (f (g x))))
	  (define (main-test) int64
	    (let ((add3 (lambda ((x int64)) int64 (+ x 3)))
	          (dbl (lambda ((x int64)) int64 (* x 2))))
	      ((compose add3 dbl) 10)))`
	val, _ := run(t, src, "main-test")
	if val.I != 23 {
		t.Fatalf("got %d", val.I)
	}
}

// TestClosureCapture runs programs whose lambdas call captured locals under
// both dispatch strategies at O0 and O2. A captured local that shadows a
// top-level function, a builtin or a constructor is called as the closure
// it holds, never as the global it shadows.
func TestClosureCapture(t *testing.T) {
	cases := []struct {
		name, src string
		want      int64
	}{
		{"adder", `
		  (define (adder (n int64)) (-> (int64) int64)
		    (lambda ((x int64)) int64 (+ x n)))
		  (define (main) int64 ((adder 5) 37))`, 42},
		{"shadowed-function", `
		  (define (f (x int64)) int64 x)
		  (define (main) int64
		    (let ((f (lambda ((y int64)) int64 (+ y 100))))
		      (+ (f 1) ((lambda ((z int64)) int64 (f z)) 1))))`, 202},
		{"shadowed-function-param", `
		  (define (g (f (-> (int64) int64))) int64 ((lambda ((z int64)) int64 (f z)) 1))
		  (define (f (x int64)) int64 x)
		  (define (main) int64 (g (lambda ((y int64)) int64 (+ y 100))))`, 101},
		{"shadowed-builtin", `
		  (define (main) int64
		    (let ((+ (lambda ((a int64) (b int64)) int64 (* a b))))
		      ((lambda ((z int64)) int64 (+ z 3)) 5)))`, 15},
		{"shadowed-constructor", `
		  (defunion opt (None) (Some (v int64)))
		  (define (main) int64
		    (let ((Some (lambda ((x int64)) int64 (* x 10))))
		      ((lambda ((z int64)) int64 (Some z)) 4)))`, 40},
	}
	for _, c := range cases {
		for _, d := range dispatchModes {
			for _, lvl := range []opt.Level{opt.O0, opt.O2} {
				prog, err := core.Load("t.bitc", c.src, core.Config{Optimize: lvl, Dispatch: d})
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				val, _, err := prog.Run()
				if err != nil {
					t.Fatalf("%s/%v/O%d: %v", c.name, d, lvl, err)
				}
				if val.I != c.want {
					t.Errorf("%s/%v/O%d: got %s, want %d", c.name, d, lvl, val.String(), c.want)
				}
			}
		}
	}
}

func TestNestedClosureCapture(t *testing.T) {
	src := `
	  (define (f (a int64)) int64
	    (let ((outer (lambda ((b int64)) (-> (int64) int64)
	                   (lambda ((c int64)) int64 (+ a (+ b c))))))
	      ((outer 10) 100)))`
	val, _ := run(t, src, "f", vm.IntValue(1))
	if val.I != 111 {
		t.Fatalf("got %d", val.I)
	}
}

func TestMutableCaptureRejected(t *testing.T) {
	src := `
	  (define (f) int64
	    (let ((mutable n 0))
	      (let ((g (lambda () int64 n)))
	        (g))))`
	prog, _ := parser.Parse("t", src)
	info, cd := types.Check(prog)
	if cd.HasErrors() {
		t.Fatalf("check: %v", cd)
	}
	_, mdiags := compiler.Compile(prog, info, compiler.Options{})
	if !mdiags.HasErrors() || !strings.Contains(mdiags.Error(), "mutable binding") {
		t.Fatalf("expected capture error, got %v", mdiags)
	}
}

func TestLetrec(t *testing.T) {
	src := `
	  (define (f (n int64)) bool
	    (letrec ((even? (lambda ((k int64)) bool (if (= k 0) #t (odd? (- k 1)))))
	             (odd?  (lambda ((k int64)) bool (if (= k 0) #f (even? (- k 1))))))
	      (even? n)))`
	val, _ := run(t, src, "f", vm.IntValue(10))
	if val.I != 1 {
		t.Fatal("10 should be even")
	}
}

func TestStringsAndChars(t *testing.T) {
	src := `
	  (define (f (s string)) int64
	    (let ((mutable count 0))
	      (dotimes (i (string-length s))
	        (if (= (string-ref s i) #\a) (set! count (+ count 1))))
	      count))`
	val, _ := run(t, src, "f", vm.StrValue("banana"))
	if val.I != 3 {
		t.Fatalf("got %d", val.I)
	}
}

func TestStringAppendCompare(t *testing.T) {
	src := `(define (f) bool (= (string-append "foo" "bar") "foobar"))`
	val, _ := run(t, src, "f")
	if val.I != 1 {
		t.Fatal("string append/compare failed")
	}
}

func TestGlobals(t *testing.T) {
	src := `
	  (define base int64 100)
	  (define scaled int64 (* base 3))
	  (define (f) int64 (+ base scaled))`
	val, _ := run(t, src, "f")
	if val.I != 400 {
		t.Fatalf("got %d", val.I)
	}
}

func TestAndOrShortCircuit(t *testing.T) {
	// Division by zero in the second operand must not run when the first
	// already decides.
	src := `
	  (define (safe (x int64)) bool
	    (and (!= x 0) (> (/ 100 x) 5)))
	  (define (f) bool (safe 0))`
	val, _ := run(t, src, "f")
	if val.I != 0 {
		t.Fatal("expected #f")
	}
}

func TestCasts(t *testing.T) {
	src := `(define (f (x int64)) int8 (cast int8 x))`
	val, _ := run(t, src, "f", vm.IntValue(300))
	if val.I != 44 {
		t.Fatalf("cast 300->i8 = %d, want 44", val.I)
	}
	src = `(define (g (x float64)) int32 (cast int32 x))`
	val, _ = run(t, src, "g", vm.FloatValue(3.9))
	if val.I != 3 {
		t.Fatalf("cast 3.9->i32 = %d", val.I)
	}
	src = `(define (h (c char)) int32 (cast int32 c))`
	val, _ = run(t, src, "h", vm.CharValue('A'))
	if val.I != 65 {
		t.Fatalf("cast char = %d", val.I)
	}
}

func TestTraps(t *testing.T) {
	cases := []struct{ name, src, fn, want string }{
		{"div0", `(define (f (x int64)) int64 (/ 1 x))`, "f", "division by zero"},
		{"oob", `(define (f) int64 (vector-ref (vector 1) 5))`, "f", "out of range"},
		{"assert", `(define (f) unit (assert (> 1 2)))`, "f", "assertion failed"},
		{"strrange", `(define (f) char (string-ref "ab" 9))`, "f", "out of range"},
		{"stackoverflow", `(define (f (n int64)) int64 (+ 1 (f n)))`, "f", "stack overflow"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			if c.name == "div0" || c.name == "stackoverflow" {
				err = runErr(t, c.src, c.fn, vm.IntValue(0))
			} else {
				err = runErr(t, c.src, c.fn)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want %q", err, c.want)
			}
		})
	}
}

func TestRegionAllocAndExitTrap(t *testing.T) {
	// Using a region value inside its extent works…
	src := `
	  (defstruct msg (v int64))
	  (define (ok) int64
	    (with-region r
	      (let ((m (alloc-in r (make msg :v 9))))
	        (field m v))))`
	val, machine := run(t, src, "ok")
	if val.I != 9 {
		t.Fatalf("got %d", val.I)
	}
	if machine.Stats.RegionAllocs != 1 {
		t.Errorf("region allocs = %d", machine.Stats.RegionAllocs)
	}
	// …but a reference escaping the region traps on use.
	src2 := `
	  (defstruct msg (v int64))
	  (define (leak) msg
	    (with-region r (alloc-in r (make msg :v 9))))
	  (define (boom) int64 (field (leak) v))`
	err := runErr(t, src2, "boom")
	if !strings.Contains(err.Error(), "region") {
		t.Errorf("error = %v", err)
	}
}

func TestSpawnJoinChannels(t *testing.T) {
	src := `
	  (define (worker (c (chan int64)) (n int64)) unit
	    (let ((mutable i 0))
	      (while (< i n)
	        (send c i)
	        (set! i (+ i 1)))))
	  (define (f) int64
	    (let ((c (make-chan 4)))
	      (spawn (worker c 10))
	      (let ((mutable acc 0))
	        (dotimes (k 10) (set! acc (+ acc (recv c))))
	        acc)))`
	val, _ := run(t, src, "f")
	if val.I != 45 {
		t.Fatalf("got %d", val.I)
	}
}

func TestUnbufferedRendezvous(t *testing.T) {
	src := `
	  (define (pong (c (chan int64)) (d (chan int64))) unit
	    (send d (+ (recv c) 1)))
	  (define (f) int64
	    (let ((c (make-chan 0)) (d (make-chan 0)))
	      (spawn (pong c d))
	      (send c 41)
	      (recv d)))`
	val, _ := run(t, src, "f")
	if val.I != 42 {
		t.Fatalf("got %d", val.I)
	}
}

func TestJoinWaits(t *testing.T) {
	src := `
	  (defstruct cell (v int64))
	  (define shared cell (make cell :v 0))
	  (define (worker) unit (set-field! shared v 7))
	  (define (f) int64
	    (let ((tid (spawn (worker))))
	      (join tid)
	      (field shared v)))`
	val, _ := run(t, src, "f")
	if val.I != 7 {
		t.Fatalf("got %d", val.I)
	}
}

func TestDeadlockDetected(t *testing.T) {
	src := `
	  (define (f) int64
	    (let ((c (make-chan 0)))
	      (recv c)))`
	err := runErr(t, src, "f")
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error = %v", err)
	}
}

func TestLocksMutualExclusion(t *testing.T) {
	src := `
	  (defstruct cell (v int64))
	  (define counter cell (make cell :v 0))
	  (define (bump (n int64)) unit
	    (dotimes (i n)
	      (with-lock m
	        (set-field! counter v (+ (field counter v) 1)))))
	  (define (f) int64
	    (let ((t1 (spawn (bump 500))) (t2 (spawn (bump 500))))
	      (join t1) (join t2)
	      (field counter v)))`
	val, _ := run(t, src, "f")
	if val.I != 1000 {
		t.Fatalf("locked counter = %d, want 1000", val.I)
	}
}

func TestUnsynchronisedRace(t *testing.T) {
	// The same counter without a lock loses updates under preemption:
	// read-modify-write is torn by the scheduler.
	src := `
	  (defstruct cell (v int64))
	  (define counter cell (make cell :v 0))
	  (define (bump (n int64)) unit
	    (dotimes (i n)
	      (let ((cur (field counter v)))
	        (yield)
	        (set-field! counter v (+ cur 1)))))
	  (define (f) int64
	    (let ((t1 (spawn (bump 300))) (t2 (spawn (bump 300))))
	      (join t1) (join t2)
	      (field counter v)))`
	val, _ := runOpts(t, src, "f", vm.Options{Seed: 42, Quantum: 3}, compiler.Options{})
	if val.I == 600 {
		t.Fatal("expected lost updates from the race, got exactly 600")
	}
}

func TestAtomicSTM(t *testing.T) {
	src := `
	  (defstruct cell (v int64))
	  (define counter cell (make cell :v 0))
	  (define (bump (n int64)) unit
	    (dotimes (i n)
	      (atomic
	        (set-field! counter v (+ (field counter v) 1)))))
	  (define (f) int64
	    (let ((t1 (spawn (bump 400))) (t2 (spawn (bump 400))))
	      (join t1) (join t2)
	      (field counter v)))`
	val, machine := runOpts(t, src, "f", vm.Options{Seed: 7, Quantum: 5}, compiler.Options{})
	if val.I != 800 {
		t.Fatalf("atomic counter = %d, want 800", val.I)
	}
	if machine.Stats.TxCommits < 800 {
		t.Errorf("commits = %d", machine.Stats.TxCommits)
	}
}

func TestAtomicComposability(t *testing.T) {
	// The slide deck's bank example: a composed transfer never exposes the
	// intermediate state, even though it is built from two operations.
	src := `
	  (defstruct account (bal int64))
	  (define a1 account (make account :bal 1000))
	  (define a2 account (make account :bal 0))
	  (define (transfer (n int64)) unit
	    (dotimes (i n)
	      (atomic
	        (set-field! a1 bal (- (field a1 bal) 1))
	        (set-field! a2 bal (+ (field a2 bal) 1)))))
	  (define (watcher (n int64)) int64
	    (let ((mutable bad 0))
	      (dotimes (i n)
	        (atomic
	          (if (!= (+ (field a1 bal) (field a2 bal)) 1000)
	              (set! bad (+ bad 1))
	              ())))
	      bad))
	  (define (f) int64
	    (let ((tw (spawn (transfer 200))))
	      (let ((bad (watcher 200)))
	        (join tw)
	        bad)))`
	val, _ := runOpts(t, src, "f", vm.Options{Seed: 3, Quantum: 4}, compiler.Options{})
	if val.I != 0 {
		t.Fatalf("invariant violated %d times under STM", val.I)
	}
}

func TestContractsRuntime(t *testing.T) {
	src := `
	  (define (half (x int64)) int64
	    :requires (>= x 0)
	    :ensures (<= %result x)
	    (/ x 2))`
	val, _ := runOpts(t, src, "half", vm.Options{}, compiler.Options{EmitContracts: true}, vm.IntValue(10))
	if val.I != 5 {
		t.Fatalf("got %d", val.I)
	}
	// Violating the precondition traps when contracts are emitted.
	prog, _ := parser.Parse("t", src)
	info, _ := types.Check(prog)
	mod, _ := compiler.Compile(prog, info, compiler.Options{EmitContracts: true})
	machine := vm.New(mod, vm.Options{})
	if _, err := machine.RunFunc("half", vm.IntValue(-4)); err == nil ||
		!strings.Contains(err.Error(), "requires") {
		t.Fatalf("err = %v", err)
	}
}

func TestExterns(t *testing.T) {
	src := `
	  (external c-add (-> (int64 int64) int64) "c_add")
	  (define (f) int64 (c-add 20 22))`
	prog, _ := parser.Parse("t", src)
	info, cd := types.Check(prog)
	if cd.HasErrors() {
		t.Fatal(cd)
	}
	mod, md := compiler.Compile(prog, info, compiler.Options{})
	if md.HasErrors() {
		t.Fatal(md)
	}
	machine := vm.New(mod, vm.Options{})
	machine.Externs["c_add"] = func(args []int64) int64 { return args[0] + args[1] }
	val, err := machine.RunFunc("f")
	if err != nil {
		t.Fatal(err)
	}
	if val.I != 42 {
		t.Fatalf("got %d", val.I)
	}
	if machine.Stats.ExternCalls != 1 || machine.Stats.MarshalledBytes == 0 {
		t.Error("extern stats missing")
	}
	// Unregistered symbol traps.
	machine2 := vm.New(mod, vm.Options{})
	if _, err := machine2.RunFunc("f"); err == nil {
		t.Fatal("unregistered extern should trap")
	}
}

func TestPrintOutput(t *testing.T) {
	src := `(define (f) unit (begin (println "hello") (println 42)))`
	prog, _ := parser.Parse("t", src)
	info, _ := types.Check(prog)
	mod, _ := compiler.Compile(prog, info, compiler.Options{})
	var sb strings.Builder
	machine := vm.New(mod, vm.Options{Stdout: &sb})
	if _, err := machine.RunFunc("f"); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "hello\n42\n" {
		t.Fatalf("output = %q", sb.String())
	}
}

func TestBoxedModeCostsMore(t *testing.T) {
	src := `(define (work) int64
	          (let ((mutable acc 0))
	            (dotimes (i 10000) (set! acc (+ acc (* i 3))))
	            acc))`
	_, unboxed := runOpts(t, src, "work", vm.Options{Mode: vm.Unboxed}, compiler.Options{})
	valB, boxed := runOpts(t, src, "work", vm.Options{Mode: vm.Boxed}, compiler.Options{})
	if valB.I != 149985000 {
		t.Fatalf("boxed result wrong: %d", valB.I)
	}
	if unboxed.Stats.BoxAllocs != 0 {
		t.Error("unboxed mode allocated boxes")
	}
	if boxed.Stats.BoxAllocs < 20000 {
		t.Errorf("boxed mode allocated only %d boxes", boxed.Stats.BoxAllocs)
	}
}

func TestDeterministicScheduling(t *testing.T) {
	src := `
	  (defstruct cell (v int64))
	  (define c cell (make cell :v 0))
	  (define (bump (n int64)) unit
	    (dotimes (i n)
	      (let ((cur (field c v)))
	        (set-field! c v (+ cur 1)))))
	  (define (f) int64
	    (let ((t1 (spawn (bump 100))) (t2 (spawn (bump 100))))
	      (join t1) (join t2) (field c v)))`
	results := map[int64]bool{}
	for i := 0; i < 3; i++ {
		val, _ := runOpts(t, src, "f", vm.Options{Seed: 99, Quantum: 7}, compiler.Options{})
		results[val.I] = true
	}
	if len(results) != 1 {
		t.Fatalf("same seed produced different interleavings: %v", results)
	}
}

func TestMaxStepsBudget(t *testing.T) {
	src := `(define (f) unit (while #t ()))`
	prog, _ := parser.Parse("t", src)
	info, _ := types.Check(prog)
	mod, _ := compiler.Compile(prog, info, compiler.Options{})
	machine := vm.New(mod, vm.Options{MaxSteps: 10000})
	if _, err := machine.RunFunc("f"); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v", err)
	}
}

func TestMainEntry(t *testing.T) {
	src := `(define (main) int64 99)`
	prog, _ := parser.Parse("t", src)
	info, _ := types.Check(prog)
	mod, _ := compiler.Compile(prog, info, compiler.Options{})
	machine := vm.New(mod, vm.Options{})
	val, err := machine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if val.I != 99 {
		t.Fatalf("main = %d", val.I)
	}
}

func TestFirstClassFunctionReference(t *testing.T) {
	src := `
	  (define (twice (x int64)) int64 (* x 2))
	  (define (apply2 (f (-> (int64) int64)) (x int64)) int64 (f (f x)))
	  (define (g) int64 (apply2 twice 5))`
	val, _ := run(t, src, "g")
	if val.I != 20 {
		t.Fatalf("got %d", val.I)
	}
}

func TestLoopInvariantRuntimeCheck(t *testing.T) {
	src := `
	  (define (f (n int64)) int64
	    (let ((mutable i 0))
	      (while (< i n)
	        :invariant (< i 5)    ; violated once i reaches 5
	        (set! i (+ i 1)))
	      i))`
	// Without contract emission, the invariant is advisory.
	val, _ := runOpts(t, src, "f", vm.Options{}, compiler.Options{}, vm.IntValue(10))
	if val.I != 10 {
		t.Fatalf("got %d", val.I)
	}
	// With -contracts, the violated invariant traps at the loop head.
	prog, _ := parser.Parse("t", src)
	info, _ := types.Check(prog)
	mod, _ := compiler.Compile(prog, info, compiler.Options{EmitContracts: true})
	machine := vm.New(mod, vm.Options{})
	if _, err := machine.RunFunc("f", vm.IntValue(10)); err == nil ||
		!strings.Contains(err.Error(), "loop invariant") {
		t.Fatalf("err = %v", err)
	}
	// A true invariant passes under -contracts.
	src2 := `
	  (define (f (n int64)) int64
	    (let ((mutable i 0))
	      (while (< i n) :invariant (>= i 0) (set! i (+ i 1)))
	      i))`
	val2, _ := runOpts(t, src2, "f", vm.Options{}, compiler.Options{EmitContracts: true}, vm.IntValue(10))
	if val2.I != 10 {
		t.Fatalf("got %d", val2.I)
	}
}
