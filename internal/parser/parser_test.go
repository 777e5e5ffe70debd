package parser

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"bitc/internal/ast"
	"bitc/internal/corpus"
	"bitc/internal/lexer"
	"bitc/internal/source"
)

func parseOK(t *testing.T, text string) *ast.Program {
	t.Helper()
	prog, diags := Parse("t.bitc", text)
	if diags.HasErrors() {
		t.Fatalf("parse error: %v", diags)
	}
	return prog
}

func parseExprOK(t *testing.T, text string) ast.Expr {
	t.Helper()
	e, diags := ParseExpr(text)
	if diags.HasErrors() {
		t.Fatalf("parse error: %v", diags)
	}
	return e
}

func TestDefineFunc(t *testing.T) {
	prog := parseOK(t, `(define (add (a int32) (b int32)) int32 (+ a b))`)
	if len(prog.Defs) != 1 {
		t.Fatalf("defs = %d", len(prog.Defs))
	}
	fn, ok := prog.Defs[0].(*ast.DefineFunc)
	if !ok {
		t.Fatalf("not a DefineFunc: %T", prog.Defs[0])
	}
	if fn.Name != "add" || len(fn.Params) != 2 {
		t.Fatalf("fn = %s/%d params", fn.Name, len(fn.Params))
	}
	if fn.Params[0].Name != "a" {
		t.Errorf("param0 = %s", fn.Params[0].Name)
	}
	tn, ok := fn.RetType.(*ast.TypeName)
	if !ok || tn.Name != "int32" {
		t.Errorf("ret type = %v", fn.RetType)
	}
	if len(fn.Body) != 1 {
		t.Errorf("body = %d exprs", len(fn.Body))
	}
}

func TestDefineFuncNoRetType(t *testing.T) {
	prog := parseOK(t, `(define (id x) x)`)
	fn := prog.Defs[0].(*ast.DefineFunc)
	if fn.RetType != nil {
		t.Errorf("ret type should be nil, got %v", fn.RetType)
	}
	if fn.Params[0].Type != nil {
		t.Errorf("param type should be nil")
	}
}

func TestDefineFuncContract(t *testing.T) {
	prog := parseOK(t, `(define (inc (x int32)) int32
	   :requires (< x 100)
	   :ensures (> %result x)
	   (+ x 1))`)
	fn := prog.Defs[0].(*ast.DefineFunc)
	if len(fn.Contract.Requires) != 1 || len(fn.Contract.Ensures) != 1 {
		t.Fatalf("contract = %d req %d ens", len(fn.Contract.Requires), len(fn.Contract.Ensures))
	}
	if len(fn.Body) != 1 {
		t.Fatalf("body len = %d", len(fn.Body))
	}
}

func TestDefineFuncInlinePure(t *testing.T) {
	prog := parseOK(t, `(define (f (x int32)) int32 :pure (* x x))`)
	fn := prog.Defs[0].(*ast.DefineFunc)
	if !fn.Pure {
		t.Errorf("pure=%v", fn.Pure)
	}
	// :inline is not an annotation: it is a stray keyword in the body.
	_, diags := Parse("t.bitc", `(define (f (x int32)) int32 :inline (* x x))`)
	if !diags.HasErrors() || !strings.Contains(diags.Error(), "keyword :inline not valid as an expression") {
		t.Errorf(":inline accepted: %v", diags)
	}
}

func TestDefineVar(t *testing.T) {
	prog := parseOK(t, `(define limit int32 100)`)
	v := prog.Defs[0].(*ast.DefineVar)
	if v.Name != "limit" || v.Type == nil {
		t.Fatalf("var = %+v", v)
	}
	prog = parseOK(t, `(define greeting "hi")`)
	v = prog.Defs[0].(*ast.DefineVar)
	if v.Type != nil {
		t.Errorf("expected inferred type")
	}
	if lit, ok := v.Init.(*ast.StringLit); !ok || lit.Value != "hi" {
		t.Errorf("init = %v", v.Init)
	}
}

func TestDefStruct(t *testing.T) {
	prog := parseOK(t, `(defstruct point :packed :align 8
	   (x (bitfield uint32 12))
	   (y (bitfield uint32 12))
	   (tag uint8))`)
	st := prog.Defs[0].(*ast.DefStruct)
	if !st.Packed || st.Align != 8 || len(st.Fields) != 3 {
		t.Fatalf("struct = %+v", st)
	}
	bf, ok := st.Fields[0].Type.(*ast.TypeBitfield)
	if !ok || bf.Bits != 12 {
		t.Fatalf("field0 type = %v", st.Fields[0].Type)
	}
}

func TestDefUnion(t *testing.T) {
	prog := parseOK(t, `(defunion shape
	   (Circle (r float64))
	   (Rect (w float64) (h float64))
	   (Empty))`)
	u := prog.Defs[0].(*ast.DefUnion)
	if u.Name != "shape" || len(u.Arms) != 3 {
		t.Fatalf("union = %+v", u)
	}
	if len(u.Arms[2].Fields) != 0 {
		t.Errorf("Empty arm has fields")
	}
}

func TestExternal(t *testing.T) {
	prog := parseOK(t, `(external c-memcpy (-> (int64 int64 int64) int64) "memcpy")`)
	ex := prog.Defs[0].(*ast.External)
	if ex.CSymbol != "memcpy" {
		t.Fatalf("ext = %+v", ex)
	}
	ft, ok := ex.Type.(*ast.TypeFn)
	if !ok || len(ft.Params) != 3 {
		t.Fatalf("type = %v", ex.Type)
	}
}

func TestLetForms(t *testing.T) {
	e := parseExprOK(t, `(let ((x 1) (mutable y int32 2)) (+ x y))`)
	let := e.(*ast.Let)
	if let.Kind != ast.LetPlain || len(let.Bindings) != 2 {
		t.Fatalf("let = %+v", let)
	}
	if let.Bindings[1].Name != "y" || !let.Bindings[1].Mutable || let.Bindings[1].Type == nil {
		t.Fatalf("binding1 = %+v", let.Bindings[1])
	}
	if parseExprOK(t, `(let* ((x 1)) x)`).(*ast.Let).Kind != ast.LetSeq {
		t.Error("let* kind")
	}
	if parseExprOK(t, `(letrec ((f (lambda (x) x))) f)`).(*ast.Let).Kind != ast.LetRec {
		t.Error("letrec kind")
	}
}

func TestIfForms(t *testing.T) {
	e := parseExprOK(t, `(if #t 1 2)`).(*ast.If)
	if e.Else == nil {
		t.Error("missing else")
	}
	e = parseExprOK(t, `(if #t 1)`).(*ast.If)
	if e.Else != nil {
		t.Error("unexpected else")
	}
}

func TestCaseWithPatterns(t *testing.T) {
	e := parseExprOK(t, `(case s
	   ((Circle r) r)
	   ((Rect w h) (* w h))
	   (0 1.0)
	   (_ 0.0))`)
	c := e.(*ast.Case)
	if len(c.Clauses) != 4 {
		t.Fatalf("clauses = %d", len(c.Clauses))
	}
	if pc, ok := c.Clauses[0].Pattern.(*ast.PatCtor); !ok || pc.Ctor != "Circle" || len(pc.Args) != 1 {
		t.Fatalf("clause0 pattern = %#v", c.Clauses[0].Pattern)
	}
	if _, ok := c.Clauses[2].Pattern.(*ast.PatLit); !ok {
		t.Fatalf("clause2 not literal: %#v", c.Clauses[2].Pattern)
	}
	if _, ok := c.Clauses[3].Pattern.(*ast.PatWildcard); !ok {
		t.Fatalf("clause3 not wildcard")
	}
}

func TestMakeAndField(t *testing.T) {
	e := parseExprOK(t, `(make point :x 1 :y 2)`).(*ast.MakeStruct)
	if e.Name != "point" || len(e.Fields) != 2 || e.Fields[1].Name != "y" {
		t.Fatalf("make = %+v", e)
	}
	fr := parseExprOK(t, `(field p x)`).(*ast.FieldRef)
	if fr.Name != "x" {
		t.Fatalf("fieldref = %+v", fr)
	}
	fs := parseExprOK(t, `(set-field! p x 3)`).(*ast.FieldSet)
	if fs.Name != "x" {
		t.Fatalf("fieldset = %+v", fs)
	}
	// set! sugar with three operands is field assignment
	fs2 := parseExprOK(t, `(set! p x 3)`).(*ast.FieldSet)
	if fs2.Name != "x" {
		t.Fatalf("set! sugar = %+v", fs2)
	}
}

func TestLoops(t *testing.T) {
	w := parseExprOK(t, `(while (< i 10) (set! i (+ i 1)))`).(*ast.While)
	if len(w.Body) != 1 {
		t.Fatalf("while body = %d", len(w.Body))
	}
	d := parseExprOK(t, `(dotimes (i 10) i)`).(*ast.DoTimes)
	if d.Var != "i" {
		t.Fatalf("dotimes = %+v", d)
	}
}

func TestRegionForms(t *testing.T) {
	wr := parseExprOK(t, `(with-region r (alloc-in r (make p :x 1)))`).(*ast.WithRegion)
	if wr.Name != "r" {
		t.Fatalf("with-region = %+v", wr)
	}
	ai := wr.Body[0].(*ast.AllocIn)
	if ai.Region != "r" {
		t.Fatalf("alloc-in = %+v", ai)
	}
}

func TestConcurrencyForms(t *testing.T) {
	a := parseExprOK(t, `(atomic (set! x 1) (set! y 2))`).(*ast.Atomic)
	if len(a.Body) != 2 {
		t.Fatal("atomic body")
	}
	sp := parseExprOK(t, `(spawn (f 1))`).(*ast.Spawn)
	if _, ok := sp.Expr.(*ast.Call); !ok {
		t.Fatal("spawn expr")
	}
	wl := parseExprOK(t, `(with-lock m (g))`).(*ast.WithLock)
	if wl.Lock != "m" {
		t.Fatal("with-lock name")
	}
}

func TestCastAssert(t *testing.T) {
	c := parseExprOK(t, `(cast int64 x)`).(*ast.Cast)
	if tn := c.Type.(*ast.TypeName); tn.Name != "int64" {
		t.Fatalf("cast type = %v", c.Type)
	}
	a := parseExprOK(t, `(assert (> x 0))`).(*ast.Assert)
	if _, ok := a.Cond.(*ast.Call); !ok {
		t.Fatal("assert cond")
	}
}

func TestTypeVariable(t *testing.T) {
	prog := parseOK(t, `(define (id (x 'a)) 'a x)`)
	fn := prog.Defs[0].(*ast.DefineFunc)
	tn, ok := fn.Params[0].Type.(*ast.TypeName)
	if !ok || !tn.Var || tn.Name != "a" {
		t.Fatalf("param type = %#v", fn.Params[0].Type)
	}
	rt, ok := fn.RetType.(*ast.TypeName)
	if !ok || !rt.Var {
		t.Fatalf("ret type = %#v", fn.RetType)
	}
}

func TestErrorRecovery(t *testing.T) {
	// A bad definition must not prevent later good ones being parsed.
	prog, diags := Parse("t", `(bogus) (define x 1)`)
	if !diags.HasErrors() {
		t.Fatal("expected error")
	}
	if len(prog.Defs) != 1 {
		t.Fatalf("defs = %d, want the good one", len(prog.Defs))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`(define)`,
		`(define (f))`,     // no body
		`(defstruct)`,      // no name
		`(defstruct s)`,    // no fields
		`(defunion u)`,     // no arms
		`(external f)`,     // incomplete
		`(if)`,             // malformed
		`(set!)`,           // malformed
		`(let (x) x)`,      // binding not a list
		`(case x)`,         // no clauses
		`(make)`,           // no name
		`(unclosed (paren`, // unclosed
		`)`,                // stray closer
		`(cast int32)`,     // missing expr
		`(spawn)`,          // missing expr
	}
	for _, text := range bad {
		if _, diags := Parse("t", text); !diags.HasErrors() {
			t.Errorf("%q: expected a parse error", text)
		}
	}
}

func TestPrintRoundTrip(t *testing.T) {
	programs := []string{
		`(define (add (a int32) (b int32)) int32 (+ a b))`,
		`(defstruct pt :packed (x uint16) (y uint16))`,
		`(defunion opt (None) (Some (v int32)))`,
		`(define (f (x int32)) int32 :requires (> x 0) (let ((mutable acc int32 0)) (dotimes (i x) (set! acc (+ acc i))) acc))`,
		`(define (g (s string)) int32 (case 1 (1 10) (_ 20)))`,
		`(define (h) unit (with-region r (alloc-in r (make pt :x 1 :y 2)) ()))`,
		`(define (k) unit (atomic (with-lock m (assert #t))))`,
	}
	for _, text := range programs {
		p1, d1 := Parse("a", text)
		if d1.HasErrors() {
			t.Fatalf("first parse of %q: %v", text, d1)
		}
		printed := ast.PrintProgram(p1)
		p2, d2 := Parse("b", printed)
		if d2.HasErrors() {
			t.Fatalf("reparse of %q (printed %q): %v", text, printed, d2)
		}
		if again := ast.PrintProgram(p2); again != printed {
			t.Errorf("print not stable:\n1: %s\n2: %s", printed, again)
		}
	}
}

// Property: parser never panics and always returns a program, whatever the input.
func TestParserTotal(t *testing.T) {
	check := func(raw []byte) bool {
		prog, _ := Parse("fuzz", string(raw))
		return prog != nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestNestedExprSpansNest(t *testing.T) {
	text := `(define (f (x int32)) int32 (+ x 1))`
	prog := parseOK(t, text)
	fn := prog.Defs[0].(*ast.DefineFunc)
	body := fn.Body[0]
	if !fn.Span().IsValid() || !body.Span().IsValid() {
		t.Fatal("invalid spans")
	}
	if body.Span().Start < fn.Span().Start || body.Span().End > fn.Span().End {
		t.Errorf("body span %+v outside fn span %+v", body.Span(), fn.Span())
	}
	if got := strings.TrimSpace(text[body.Span().Start:body.Span().End]); got != "(+ x 1)" {
		t.Errorf("body span text = %q", got)
	}
}

// TestParseAllocsPerToken holds the reader to allocating in proportion to
// the AST, not the token stream: sexp nodes, atom tokens and child lists
// come from scratch rewound per form, so on the 1000-function corpus a
// parse makes about 0.6 heap objects per token, nearly all of them AST
// nodes. A reader that builds a token slice or heap-copies each atom makes
// about 2.5.
func TestParseAllocsPerToken(t *testing.T) {
	text := corpus.Text(1000, 25)
	toks, diags := lexer.Tokenize("corpus.bitc", text)
	if diags.HasErrors() {
		t.Fatal(diags)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, diags := Parse("corpus.bitc", text); diags.HasErrors() {
			t.Fatal(diags)
		}
	})
	if perTok := allocs / float64(len(toks)); perTok > 0.75 {
		t.Errorf("parse makes %.0f allocations for %d tokens: %.2f per token, want at most 0.75", allocs, len(toks), perTok)
	}
}

func TestExprIDsNumberEveryExpression(t *testing.T) {
	prog := parseOK(t, corpus.Text(50, 5)+`
	  (defunion u (A) (B (x int64)))
	  (define (f (o u)) int64 :requires (> 1 0)
	    (case o ((B 7) 1) (_ (let* ((a 1)) (begin (set! a 2) a)))))`)
	seen := map[int32]bool{}
	for _, d := range prog.Defs {
		ast.WalkDef(d, func(e ast.Expr) bool {
			id := e.ExprID()
			if id < 1 || id > prog.ExprCount {
				t.Errorf("%T at %v has ID %d, outside 1..%d", e, e.Span(), id, prog.ExprCount)
			}
			if seen[id] {
				t.Errorf("%T at %v reuses ID %d", e, e.Span(), id)
			}
			seen[id] = true
			return true
		})
	}
	// Only the pattern literal 7 is an expression WalkDef does not reach.
	if len(seen) != int(prog.ExprCount)-1 {
		t.Errorf("walked %d distinct IDs, the parser numbered %d", len(seen), prog.ExprCount)
	}
}

func TestParseRange(t *testing.T) {
	text := "(define (f) int64 1)\n(define (g) int64 (+ 2 3))\n(define (h) int64 4)\n"
	file := source.NewFile("range.bitc", text)
	from := strings.Index(text, "\n(define (g)")
	to := strings.Index(text, "(define (h)")
	prog, diags := ParseRange(file, from, to, 100)
	if diags.Len() != 0 {
		t.Fatalf("range parse: %v", diags)
	}
	if len(prog.Defs) != 1 || prog.Defs[0].DefName() != "g" {
		t.Fatalf("range parse read %d definitions, want g alone", len(prog.Defs))
	}
	if got, want := prog.Defs[0].Span(), (source.Span{Start: source.Pos(from + 1), End: source.Pos(to - 1)}); got != want {
		t.Errorf("g spans %v, want %v", got, want)
	}
	// (+ 2 3) is four expressions, numbered from 100 in pre-order.
	var ids []int32
	ast.WalkDef(prog.Defs[0], func(e ast.Expr) bool {
		ids = append(ids, e.ExprID())
		return true
	})
	if fmt.Sprint(ids) != "[100 101 102 103]" || prog.ExprCount != 103 {
		t.Errorf("IDs %v, ExprCount %d; want [100 101 102 103] and 103", ids, prog.ExprCount)
	}
	// A name must not point into the text, or a definition kept across
	// many edits would keep every version of the text alive.
	name := prog.Defs[0].(*ast.DefineFunc).Name
	start := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	if p := uintptr(unsafe.Pointer(unsafe.StringData(name))); p >= start && p < start+uintptr(len(text)) {
		t.Error("a name in the range parse is a substring of the text")
	}

	// Ranges that are not a run of whole forms: a comment opened in the
	// range runs past its end, and a form opened in it is closed after.
	for _, c := range []struct{ text, end string }{
		{"(define (f) int64 1)\n; (define (g) int64 2)\n", "(define (g)"},
		{"(define (f) int64 (+ 1\n(define (g) int64 2))\n", "(define (g)"},
	} {
		file := source.NewFile("range.bitc", c.text)
		if _, diags := ParseRange(file, 0, strings.Index(c.text, c.end), 1); !diags.HasErrors() {
			t.Errorf("%q: range ending at %q parsed without error", c.text, c.end)
		}
	}
}
