package types_test

import (
	"strings"
	"testing"

	"bitc/internal/ast"
	"bitc/internal/parser"
	"bitc/internal/types"
)

// checkOK parses and type-checks text, failing the test on any error.
func checkOK(t *testing.T, text string) *types.Info {
	t.Helper()
	prog, diags := parser.Parse("t.bitc", text)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	info, cdiags := types.Check(prog)
	if cdiags.HasErrors() {
		t.Fatalf("check: %v", cdiags)
	}
	return info
}

// checkErr parses and type-checks text, requiring an error mentioning want.
func checkErr(t *testing.T, text, want string) {
	t.Helper()
	prog, diags := parser.Parse("t.bitc", text)
	if diags.HasErrors() {
		t.Fatalf("parse (should succeed): %v", diags)
	}
	_, cdiags := types.Check(prog)
	if !cdiags.HasErrors() {
		t.Fatalf("expected type error containing %q, got none", want)
	}
	if want != "" && !strings.Contains(cdiags.Error(), want) {
		t.Fatalf("error %q does not mention %q", cdiags.Error(), want)
	}
}

func funcType(t *testing.T, info *types.Info, name string) *types.Type {
	t.Helper()
	s, ok := info.Funcs[name]
	if !ok {
		t.Fatalf("no function %s", name)
	}
	return types.Prune(s.Type)
}

func TestSimpleFunction(t *testing.T) {
	info := checkOK(t, `(define (add (a int32) (b int32)) int32 (+ a b))`)
	ft := funcType(t, info, "add")
	if ft.String() != "(-> (int32 int32) int32)" {
		t.Errorf("add : %s", ft)
	}
}

func TestInferenceFromBody(t *testing.T) {
	info := checkOK(t, `(define (twice (x int32)) (+ x x))`)
	ft := funcType(t, info, "twice")
	if types.Prune(ft.Result) != types.Int32 {
		t.Errorf("result = %s", types.Prune(ft.Result))
	}
}

func TestIntLiteralDefaultsToInt64(t *testing.T) {
	info := checkOK(t, `(define (f) (+ 1 2))`)
	ft := funcType(t, info, "f")
	if types.Prune(ft.Result) != types.Int64 {
		t.Errorf("result = %s, want int64", types.Prune(ft.Result))
	}
}

func TestLiteralAdoptsContextWidth(t *testing.T) {
	info := checkOK(t, `(define (f (x uint8)) (+ x 1))`)
	ft := funcType(t, info, "f")
	if types.Prune(ft.Result) != types.Uint8 {
		t.Errorf("result = %s, want uint8", types.Prune(ft.Result))
	}
}

func TestLiteralOutOfRangeRejected(t *testing.T) {
	checkErr(t, `
	  (define (f (k int64)) uint8
	    (let ((mutable y (cast uint8 5)))
	      (if (> k 0) (set! y 300) ())
	      y))`, "integer literal 300 does not fit uint8")
	checkErr(t, `(define (f (x int8)) (+ x 128))`, "integer literal 128 does not fit int8")
	checkErr(t, `(define (f (x int8)) (< x -129))`, "integer literal -129 does not fit int8")
	checkErr(t, `(define (f (x uint64)) (+ x -1))`, "integer literal -1 does not fit uint64")
	checkErr(t, `(define (f) (vector (cast uint16 1) 65536))`, "integer literal 65536 does not fit uint16")
}

func TestLiteralRangeEdgesAccepted(t *testing.T) {
	checkOK(t, `(define (f (x int8)) (+ (+ x 127) -128))`)
	checkOK(t, `(define (f (x uint8)) (bitand x 255))`)
	checkOK(t, `(define (f (x uint32)) (+ x 4294967295))`)
	checkOK(t, `(define (f (x uint64)) (+ x 9223372036854775807))`)
	// A cast's literal operand may exceed the target: the cast wraps it.
	checkOK(t, `(define (f) uint8 (cast uint8 300))`)
}

func TestPolymorphicIdentity(t *testing.T) {
	info := checkOK(t, `
	  (define (id x) x)
	  (define (use-it) (if (id #t) (id 1) 2))`)
	s := info.Funcs["id"]
	if len(s.Vars) != 1 {
		t.Errorf("id should be polymorphic in one variable, got %d", len(s.Vars))
	}
}

func TestTypeVariableAnnotations(t *testing.T) {
	info := checkOK(t, `(define (first (v (vector 'a))) 'a (vector-ref v 0))`)
	s := info.Funcs["first"]
	if len(s.Vars) != 1 {
		t.Errorf("first should have one quantified variable, got %d", len(s.Vars))
	}
}

func TestMismatchedIntWidths(t *testing.T) {
	checkErr(t, `(define (f (a int32) (b int64)) (+ a b))`, "mismatch")
}

// A type declaration whose name pass 1 rejects must not reach pass 2, which
// once resolved its fields into a nil StructInfo or UnionInfo and panicked.
func TestTypeNamedAfterBuiltinRejected(t *testing.T) {
	checkErr(t, `(defstruct + (a int64))`, "shadows a builtin")
	checkErr(t, `(defunion * (A (A A)) (A (A A)))`, "shadows a builtin")
	checkErr(t, `(defstruct p (a int64)) (defunion p (A))`, "already defined")
}

func TestFloatIntMixRejected(t *testing.T) {
	checkErr(t, `(define (f (a int32)) (+ a 1.5))`, "")
}

func TestNonNumericPlus(t *testing.T) {
	checkErr(t, `(define (f (s string)) (+ s s))`, "constraint")
}

func TestStringOrdering(t *testing.T) {
	checkOK(t, `(define (f (a string) (b string)) bool (< a b))`)
}

func TestFnNotEquatable(t *testing.T) {
	checkErr(t, `(define (f) (= (lambda (x) x) (lambda (y) y)))`, "")
}

func TestIfBranchMismatch(t *testing.T) {
	checkErr(t, `(define (f (c bool)) (if c 1 "no"))`, "disagree")
}

func TestIfCondNotBool(t *testing.T) {
	checkErr(t, `(define (f) (if 1 2 3))`, "bool")
}

func TestOneArmedIfMustBeUnit(t *testing.T) {
	checkErr(t, `(define (f (c bool)) int32 (if c 1))`, "unit")
	checkOK(t, `(define (f (c bool)) unit (if c (println 1)))`)
}

func TestUndefinedVariable(t *testing.T) {
	checkErr(t, `(define (f) nonexistent)`, "not defined")
}

func TestArityMismatch(t *testing.T) {
	checkErr(t, `
	  (define (g (x int32)) int32 x)
	  (define (f) (g 1 2))`, "arity")
}

func TestSetRequiresMutable(t *testing.T) {
	checkErr(t, `(define (f) (let ((x 1)) (set! x 2)))`, "mutable")
	checkErr(t, `(define (f (x int32)) (begin (set! x 2) x))`, "mutable")
	checkOK(t, `(define (f) int64 (let ((mutable x 1)) (set! x 2) x))`)
}

func TestSetTypePreserved(t *testing.T) {
	checkErr(t, `(define (f) (let ((mutable x 1)) (set! x "s")))`, "")
}

func TestStructBasics(t *testing.T) {
	info := checkOK(t, `
	  (defstruct point (x int32) (y int32))
	  (define (mk) point (make point :x 1 :y 2))
	  (define (getx (p point)) int32 (field p x))
	  (define (setx (p point)) unit (set-field! p x 9))`)
	si := info.Structs["point"]
	if si == nil || len(si.Fields) != 2 {
		t.Fatalf("struct info: %+v", si)
	}
}

func TestStructFieldErrors(t *testing.T) {
	checkErr(t, `
	  (defstruct p (x int32))
	  (define (f) (make p :x 1 :z 2))`, "no field")
	checkErr(t, `
	  (defstruct p (x int32))
	  (define (f) (make p))`, "not initialised")
	checkErr(t, `
	  (defstruct p (x int32))
	  (define (f) (make p :x 1 :x 2))`, "twice")
	checkErr(t, `
	  (defstruct p (x int32))
	  (define (f (v p)) (field v y))`, "no field")
	checkErr(t, `
	  (defstruct p (x int32))
	  (define (f (v p)) (make p :x "s"))`, "")
}

func TestFieldOnNonStruct(t *testing.T) {
	checkErr(t, `(define (f (x int32)) (field x y))`, "expected a struct")
	checkErr(t, `(define (f x) (field x y))`, "annotation")
}

func TestStructValueCycleRejected(t *testing.T) {
	checkErr(t, `(defstruct a (next a) (v int32))`, "contains itself")
	checkErr(t, `
	  (defstruct a (b b))
	  (defstruct b (a a))`, "contains itself")
	// Recursion through a union is fine.
	checkOK(t, `
	  (defunion list (Nil) (Cons (head int32) (tail list)))
	  (define (len (l list)) int64
	    (case l
	      ((Nil) 0)
	      ((Cons h t) (+ 1 (len t)))))`)
}

func TestUnionAndCase(t *testing.T) {
	info := checkOK(t, `
	  (defunion shape
	    (Circle (r float64))
	    (Rect (w float64) (h float64)))
	  (define (area (s shape)) float64
	    (case s
	      ((Circle r) (* r r))
	      ((Rect w h) (* w h))))`)
	u := info.Unions["shape"]
	if u == nil || len(u.Arms) != 2 || u.Arms[1].Tag != 1 {
		t.Fatalf("union info: %+v", u)
	}
}

func TestCaseNotExhaustive(t *testing.T) {
	checkErr(t, `
	  (defunion opt (None) (Some (v int32)))
	  (define (f (o opt)) (case o ((Some v) v)))`, "exhaustive")
	checkOK(t, `
	  (defunion opt (None) (Some (v int32)))
	  (define (f (o opt)) int32 (case o ((Some v) v) (_ 0)))`)
}

func TestCaseArmTypeMismatch(t *testing.T) {
	checkErr(t, `
	  (defunion opt (None) (Some (v int32)))
	  (define (f (o opt)) (case o ((Some v) v) ((None) "zero")))`, "disagree")
}

func TestCtorArityChecked(t *testing.T) {
	checkErr(t, `
	  (defunion opt (None) (Some (v int32)))
	  (define (f) (Some 1 2))`, "takes 1 arguments")
	checkErr(t, `
	  (defunion opt (None) (Some (v int32)))
	  (define (f) Some)`, "apply")
	checkOK(t, `
	  (defunion opt (None) (Some (v int32)))
	  (define (f) opt (None))
	  (define (g) opt None)`)
}

func TestPatternArityChecked(t *testing.T) {
	checkErr(t, `
	  (defunion opt (None) (Some (v int32)))
	  (define (f (o opt)) (case o ((Some a b) a) (_ 0)))`, "sub-patterns")
}

func TestDuplicateDefinitions(t *testing.T) {
	checkErr(t, `(define (f) 1) (define (f) 2)`, "already defined")
	checkErr(t, `(defstruct s (x int32)) (define (s) 1)`, "already defined")
	checkErr(t, `(define (vector-ref) 1)`, "builtin")
}

func TestVectorOps(t *testing.T) {
	info := checkOK(t, `
	  (define (sum (v (vector int32))) int32
	    (let ((mutable acc int32 0))
	      (dotimes (i (vector-length v))
	        (set! acc (+ acc (vector-ref v i))))
	      acc))
	  (define (lit) (vector 1 2 3))`)
	ft := funcType(t, info, "lit")
	r := types.Prune(ft.Result)
	if r.Kind != types.KVector || types.Prune(r.Elem) != types.Int64 {
		t.Errorf("lit : %s", r)
	}
}

func TestVectorElementMismatch(t *testing.T) {
	checkErr(t, `(define (f) (vector 1 "two"))`, "share a type")
}

func TestCastRules(t *testing.T) {
	checkOK(t, `(define (f (x int32)) int64 (cast int64 x))`)
	checkOK(t, `(define (f (x int32)) float64 (cast float64 x))`)
	checkOK(t, `(define (f (c char)) int32 (cast int32 c))`)
	checkOK(t, `(define (f (x float64)) int32 (cast int32 x))`)
	checkErr(t, `(define (f (s string)) int32 (cast int32 s))`, "cannot cast")
}

func TestContractsTyped(t *testing.T) {
	checkOK(t, `
	  (define (inc (x int32)) int32
	    :requires (< x 100)
	    :ensures (> %result x)
	    (+ x 1))`)
	checkErr(t, `(define (f (x int32)) int32 :requires (+ x 1) x)`, "boolean")
	checkErr(t, `(define (f (x int32)) int32 :ensures (+ %result 1) x)`, "boolean")
}

func TestAssertTyped(t *testing.T) {
	checkOK(t, `(define (f (x int32)) unit (assert (> x 0)))`)
	checkErr(t, `(define (f (x int32)) unit (assert x))`, "bool")
}

func TestRegions(t *testing.T) {
	checkOK(t, `
	  (defstruct msg (tag int32))
	  (define (f) int32
	    (with-region r
	      (let ((m (alloc-in r (make msg :tag 7))))
	        (field m tag))))`)
	checkErr(t, `
	  (defstruct msg (tag int32))
	  (define (f) (alloc-in nowhere (make msg :tag 7)))`, "not a region")
	checkErr(t, `
	  (define (f) (with-region r (alloc-in r 42)))`, "allocating expression")
	checkErr(t, `
	  (define (f) (with-region r r))`, "cannot be used as a value")
}

func TestChannelsTyped(t *testing.T) {
	info := checkOK(t, `
	  (define (f) int64
	    (let ((c (make-chan 4)))
	      (send c 42)
	      (recv c)))`)
	_ = info
	checkErr(t, `
	  (define (f) unit
	    (let ((c (make-chan 4)))
	      (send c 42)
	      (send c "mixed")))`, "")
}

func TestSpawnAtomicLock(t *testing.T) {
	checkOK(t, `
	  (define (worker (n int64)) int64 n)
	  (define (f) unit
	    (let ((t (spawn (worker 1))))
	      (join t)
	      (atomic (println 1))
	      (with-lock m (println 2))))`)
}

func TestAndOrShortCircuitTypes(t *testing.T) {
	checkOK(t, `(define (f (a bool) (b bool) (c bool)) bool (and a (or b c) #t))`)
	checkErr(t, `(define (f (a bool)) (and a 1))`, "bool")
	checkErr(t, `(define (f (a bool)) (and a))`, "two arguments")
}

func TestLetrecMutualRecursion(t *testing.T) {
	checkOK(t, `
	  (define (f (n int32)) bool
	    (letrec ((even? (lambda ((k int32)) bool (if (= k 0) #t (odd? (- k 1)))))
	             (odd?  (lambda ((k int32)) bool (if (= k 0) #f (even? (- k 1))))))
	      (even? n)))`)
}

func TestLetPolymorphismValueRestriction(t *testing.T) {
	// A lambda binding generalises…
	checkOK(t, `
	  (define (f) int64
	    (let ((id (lambda (x) x)))
	      (if (id #t) (id 1) (id 2))))`)
	// …but a non-value does not (monomorphic use is still fine).
	checkOK(t, `
	  (define (g x) x)
	  (define (f) int64 (let ((h (g (lambda (x) x)))) (h 1)))`)
}

func TestGlobals(t *testing.T) {
	info := checkOK(t, `
	  (define limit int32 100)
	  (define (f) int32 limit)`)
	if types.Prune(info.Globals["limit"]) != types.Int32 {
		t.Errorf("limit : %s", info.Globals["limit"])
	}
	checkErr(t, `(define x int32 "no")`, "")
}

func TestExternalTyped(t *testing.T) {
	info := checkOK(t, `
	  (external c-getpid (-> () int32) "getpid")
	  (define (f) int32 (c-getpid))`)
	if len(info.Externals) != 1 {
		t.Fatalf("externals = %d", len(info.Externals))
	}
	checkErr(t, `(external bad int32 "x")`, "function type")
}

func TestBitfieldRules(t *testing.T) {
	info := checkOK(t, `(defstruct hdr :packed (version (bitfield uint8 4)) (ihl (bitfield uint8 4)))`)
	si := info.Structs["hdr"]
	if si.Fields[0].Bits != 4 {
		t.Errorf("bits = %d", si.Fields[0].Bits)
	}
	checkErr(t, `(defstruct h (f (bitfield uint8 9)))`, "out of range")
	checkErr(t, `(defstruct h (f (bitfield string 3)))`, "integer")
	checkErr(t, `(defunion u (A (f (bitfield uint8 3))))`, "only allowed in structs")
}

func TestArrayType(t *testing.T) {
	checkOK(t, `
	  (defstruct buf (data (array uint8 16)) (len int32))
	  (define (f (b buf)) int32 (field b len))`)
}

func TestShadowingBuiltinsLocally(t *testing.T) {
	// A local named like a builtin hides it.
	checkOK(t, `(define (f (min int32)) int32 min)`)
}

func TestRecursiveFunction(t *testing.T) {
	info := checkOK(t, `
	  (define (fib (n int32)) int32
	    (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))`)
	ft := funcType(t, info, "fib")
	if ft.String() != "(-> (int32) int32)" {
		t.Errorf("fib : %s", ft)
	}
}

func TestHigherOrderFunctions(t *testing.T) {
	checkOK(t, `
	  (define (apply-twice (f (-> (int32) int32)) (x int32)) int32
	    (f (f x)))
	  (define (g) int32 (apply-twice (lambda ((y int32)) int32 (* y 2)) 5))`)
}

func TestUsesRecorded(t *testing.T) {
	info := checkOK(t, `(define (f (x int32)) int32 (+ x 1))`)
	found := 0
	for _, fn := range info.FuncDecls {
		ast.WalkDef(fn, func(e ast.Expr) bool {
			if v, ok := e.(*ast.VarRef); ok {
				if info.Use(v) == nil {
					t.Errorf("no use recorded for %s", v.Name)
				}
				found++
			}
			return true
		})
	}
	if found < 2 { // "+" and "x"
		t.Errorf("found only %d var refs", found)
	}
}

func TestTypesAllConcreteAfterCheck(t *testing.T) {
	info := checkOK(t, `
	  (defstruct p (x int32))
	  (define (f (v (vector int64)) (b bool)) int64
	    (if b (vector-ref v 0) (+ 1 2)))`)
	for _, fn := range info.FuncDecls {
		ast.WalkDef(fn, func(e ast.Expr) bool {
			if pt := info.TypeOf(e); pt.Kind == types.KVar {
				t.Errorf("expression %T still has variable type %s", e, pt)
			}
			return true
		})
	}
}

func TestPurityChecking(t *testing.T) {
	// Local mutation is fine in a :pure function.
	checkOK(t, `
	  (define (sum3 (a int64) (b int64) (c int64)) int64 :pure
	    (let ((mutable acc 0))
	      (set! acc (+ a b))
	      (+ acc c)))`)
	// Pure may call pure.
	checkOK(t, `
	  (define (sq (x int64)) int64 :pure (* x x))
	  (define (quad (x int64)) int64 :pure (sq (sq x)))`)
	// Heap writes are effects.
	checkErr(t, `
	  (defstruct c (v int64))
	  (define (bad (x c)) unit :pure (set-field! x v 1))`, "writes a struct field")
	// Effectful builtins are effects.
	checkErr(t, `(define (bad (x int64)) unit :pure (println x))`, "effectful builtin")
	checkErr(t, `
	  (define (bad (v (vector int64))) unit :pure (vector-set! v 0 1))`, "effectful builtin")
	// Calling a non-pure function is an effect.
	checkErr(t, `
	  (define (noisy (x int64)) int64 (begin (println x) x))
	  (define (bad (x int64)) int64 :pure (noisy x))`, "non-pure function")
	// Concurrency forms are effects.
	checkErr(t, `(define (bad) int64 :pure (spawn (+ 1 2)))`, "spawns")
	checkErr(t, `(define (bad) int64 :pure (atomic 1))`, "transaction")
	checkErr(t, `(define (bad) int64 :pure (with-lock m 1))`, "lock")
	// Self-recursion is fine.
	checkOK(t, `
	  (define (fact (n int64)) int64 :pure
	    (if (= n 0) 1 (* n (fact (- n 1)))))`)
	// Indirect calls cannot be proven pure.
	checkErr(t, `
	  (define (bad (f (-> (int64) int64))) int64 :pure (f 1))`, "indirect")
}
