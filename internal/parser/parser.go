// Package parser turns bitc source text into the AST defined in internal/ast.
//
// Parsing happens in two stages: a generic S-expression reader (sexp.go) and
// a form recogniser (this file) that maps list heads like define, let, case
// onto AST nodes, reporting malformed forms with precise spans. The reader
// pulls tokens from the lexer one at a time, with one token of lookahead,
// and hands each top-level form to the recogniser as soon as it closes; the
// form's S-expressions are carved from scratch that is rewound per form, so
// no token slice and no whole-file tree is ever built.
package parser

import (
	"bitc/internal/ast"
	"bitc/internal/lexer"
	"bitc/internal/source"
)

// Parse parses a named compilation unit. The returned program is always
// non-nil; check diags for errors.
func Parse(name, text string) (*ast.Program, *source.Diagnostics) {
	file := source.NewFile(name, text)
	diags := source.NewDiagnostics(file)
	prog := (&former{diags: diags}).program(newReader(file, diags, 0, len(text)), file, len(text))
	prog.Suppressions = append(prog.Suppressions, CommentSuppressions(file)...)
	return prog, diags
}

// ParseRange parses the definitions of file that start in the byte range
// [from, to), with positions absolute in file, numbering their expressions
// from base upwards in pre-order. from must lie between tokens, as the end
// of a definition does. The range must hold whole forms: the last form read
// must end by to and the next token must start at to (the end of file
// token, if to is the end of the text). Otherwise, as when a comment or
// string opened inside the range runs past it, an error says they do not.
// The result holds the definitions, ExprCount (the last number used, base-1
// if none) and the (suppress ...) form suppressions; comment directives are
// CommentSuppressions' business, since a comment line mutes the line below
// it, which may lie outside the range. The names in the result are copies,
// not substrings of file.Text: a definition parsed this way may outlive
// many later versions of the text, and should keep none of them alive.
func ParseRange(file *source.File, from, to int, base int32) (*ast.Program, *source.Diagnostics) {
	diags := source.NewDiagnostics(file)
	r := newReader(file, diags, from, to-from)
	r.own = true
	prog := (&former{diags: diags, exprs: base - 1}).program(r, file, to)
	if int(r.tok.Span.Start) != to {
		diags.Errorf(r.tok.Span, "the forms read from offset %d do not end at offset %d", from, to)
	}
	return prog, diags
}

// ParseExpr parses a single expression (used by tests and the REPL-ish API).
func ParseExpr(text string) (ast.Expr, *source.Diagnostics) {
	file := source.NewFile("<expr>", text)
	diags := source.NewDiagnostics(file)
	p := &former{diags: diags}
	var e ast.Expr
	newReader(file, diags, 0, len(text)).forms(len(text), func(s *sexp) {
		if e == nil {
			e = p.formExpr(s)
		}
	})
	if e == nil {
		diags.Errorf(source.Span{}, "empty input")
		return &ast.UnitLit{ID: p.id()}, diags
	}
	return e, diags
}

type former struct {
	diags        *source.Diagnostics
	suppressions []ast.Suppression
	exprs        int32 // expressions numbered so far
	binds        int32 // binders numbered so far in the current definition
}

// id numbers the next expression node. Each node literal takes its ID
// before its children are formed, so IDs count from 1 in pre-order.
func (p *former) id() int32 {
	p.exprs++
	return p.exprs
}

// bind numbers the next binder of the current definition (see
// ast.Binding.Bind). The caller calls it where the binder comes into scope.
func (p *former) bind() int32 {
	p.binds++
	return p.binds
}

func (p *former) errf(s source.Span, format string, args ...any) {
	p.diags.Errorf(s, format, args...)
}

// program forms the definitions r reads before offset to, one top-level
// form at a time.
func (p *former) program(r *reader, file *source.File, to int) *ast.Program {
	prog := &ast.Program{File: file}
	r.forms(to, func(s *sexp) {
		if d := p.formDef(s); d != nil {
			prog.Defs = append(prog.Defs, d)
		}
	})
	prog.ExprCount = p.exprs
	prog.Suppressions = p.suppressions
	return prog
}

// ---------------------------------------------------------------------------
// Definitions
// ---------------------------------------------------------------------------

func (p *former) formDef(s *sexp) ast.Def {
	p.binds = 0
	if !s.isList() || len(s.list) == 0 {
		p.errf(s.span, "expected a top-level definition (define/defstruct/defunion/external)")
		return nil
	}
	switch s.head() {
	case "define":
		return p.formDefine(s)
	case "defstruct":
		return p.formDefStruct(s)
	case "defunion":
		return p.formDefUnion(s)
	case "external":
		return p.formExternal(s)
	default:
		p.errf(s.span, "unknown top-level form %q", s.head())
		return nil
	}
}

func (p *former) formDefine(s *sexp) ast.Def {
	if len(s.list) < 3 {
		p.errf(s.span, "define needs a name/signature and a body")
		return nil
	}
	target := s.list[1]
	if target.isList() {
		return p.formDefineFunc(s, target)
	}
	name := target.sym()
	if name == "" {
		p.errf(target.span, "define target must be a symbol or (name params...)")
		return nil
	}
	rest := s.list[2:]
	var ty ast.TypeExpr
	if len(rest) == 2 {
		ty = p.formType(rest[0])
		rest = rest[1:]
	}
	if len(rest) != 1 {
		p.errf(s.span, "define %s: expected [type] init-expression", name)
		return nil
	}
	return &ast.DefineVar{SpanV: s.span, Name: name, Type: ty, Init: p.formExpr(rest[0])}
}

func (p *former) formDefineFunc(s *sexp, sig *sexp) ast.Def {
	if len(sig.list) == 0 || sig.list[0].sym() == "" {
		p.errf(sig.span, "function signature must start with a name")
		return nil
	}
	fn := &ast.DefineFunc{SpanV: s.span, Name: sig.list[0].sym()}
	for _, ps := range sig.list[1:] {
		fn.Params = append(fn.Params, p.formParam(ps))
	}
	rest := s.list[2:]
	// Optional return type: a type expression directly after the signature,
	// recognised if there is at least one more form (the body).
	if len(rest) >= 2 && p.looksLikeType(rest[0]) {
		fn.RetType = p.formType(rest[0])
		rest = rest[1:]
	}
	// Keyword annotations.
	for len(rest) > 0 {
		switch rest[0].keyword() {
		case ":pure":
			fn.Pure = true
			rest = rest[1:]
		case ":requires":
			if len(rest) < 2 {
				p.errf(rest[0].span, ":requires needs an expression")
				rest = rest[1:]
				continue
			}
			fn.Contract.Requires = append(fn.Contract.Requires, p.formExpr(rest[1]))
			rest = rest[2:]
		case ":ensures":
			if len(rest) < 2 {
				p.errf(rest[0].span, ":ensures needs an expression")
				rest = rest[1:]
				continue
			}
			fn.Contract.Ensures = append(fn.Contract.Ensures, p.formExpr(rest[1]))
			rest = rest[2:]
		default:
			goto body
		}
	}
body:
	if len(rest) == 0 {
		p.errf(s.span, "function %s has no body", fn.Name)
		return nil
	}
	for _, b := range rest {
		fn.Body = append(fn.Body, p.formExpr(b))
	}
	if len(fn.Contract.Ensures) > 0 {
		fn.ResultBind = p.bind()
	}
	return fn
}

// looksLikeType reports whether s is plausibly a type annotation rather than
// the first body expression. Any bare symbol qualifies (user-defined struct
// and union names are types), as do 'a variables and lists headed by a type
// constructor. This is only consulted when at least one body form follows, so
// a single-expression body is never mistaken for a type.
func (p *former) looksLikeType(s *sexp) bool {
	if s.sym() != "" {
		return true
	}
	switch s.head() {
	case "->", "vector", "array", "chan", "bitfield", "quote":
		return true
	}
	return false
}

func (p *former) formParam(s *sexp) *ast.Param {
	if sym := s.sym(); sym != "" {
		return &ast.Param{SpanV: s.span, Name: sym, Bind: p.bind()}
	}
	if s.isList() && len(s.list) == 2 && s.list[0].sym() != "" {
		return &ast.Param{SpanV: s.span, Name: s.list[0].sym(), Type: p.formType(s.list[1]), Bind: p.bind()}
	}
	p.errf(s.span, "parameter must be name or (name type)")
	return &ast.Param{SpanV: s.span, Name: "_err", Bind: p.bind()}
}

func (p *former) formDefStruct(s *sexp) ast.Def {
	if len(s.list) < 2 || s.list[1].sym() == "" {
		p.errf(s.span, "defstruct needs a name")
		return nil
	}
	d := &ast.DefStruct{SpanV: s.span, Name: s.list[1].sym()}
	rest := s.list[2:]
	for len(rest) > 0 {
		switch rest[0].keyword() {
		case ":packed":
			d.Packed = true
			rest = rest[1:]
			continue
		case ":boxed":
			d.Boxed = true
			rest = rest[1:]
			continue
		case ":align":
			if len(rest) < 2 || rest[1].tok == nil || rest[1].tok.Kind != lexer.Int {
				p.errf(rest[0].span, ":align needs an integer")
				rest = rest[1:]
				continue
			}
			d.Align = int(rest[1].tok.IntVal)
			rest = rest[2:]
			continue
		}
		if f := p.formField(rest[0]); f != nil {
			d.Fields = append(d.Fields, f)
		}
		rest = rest[1:]
	}
	if len(d.Fields) == 0 {
		p.errf(s.span, "struct %s has no fields", d.Name)
	}
	return d
}

func (p *former) formField(s *sexp) *ast.FieldDef {
	if !s.isList() || len(s.list) != 2 || s.list[0].sym() == "" {
		p.errf(s.span, "field must be (name type)")
		return nil
	}
	return &ast.FieldDef{SpanV: s.span, Name: s.list[0].sym(), Type: p.formType(s.list[1])}
}

func (p *former) formDefUnion(s *sexp) ast.Def {
	if len(s.list) < 3 || s.list[1].sym() == "" {
		p.errf(s.span, "defunion needs a name and at least one arm")
		return nil
	}
	d := &ast.DefUnion{SpanV: s.span, Name: s.list[1].sym()}
	for _, as := range s.list[2:] {
		if !as.isList() || len(as.list) == 0 || as.list[0].sym() == "" {
			p.errf(as.span, "union arm must be (Ctor (field type)...)")
			continue
		}
		arm := &ast.UnionArm{SpanV: as.span, Name: as.list[0].sym()}
		for _, fs := range as.list[1:] {
			if f := p.formField(fs); f != nil {
				arm.Fields = append(arm.Fields, f)
			}
		}
		d.Arms = append(d.Arms, arm)
	}
	return d
}

func (p *former) formExternal(s *sexp) ast.Def {
	if len(s.list) != 4 || s.list[1].sym() == "" ||
		s.list[3].tok == nil || s.list[3].tok.Kind != lexer.String {
		p.errf(s.span, `external must be (external name (-> (T...) R) "c_symbol")`)
		return nil
	}
	return &ast.External{
		SpanV:   s.span,
		Name:    s.list[1].sym(),
		Type:    p.formType(s.list[2]),
		CSymbol: s.list[3].tok.StrVal,
	}
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

func (p *former) formType(s *sexp) ast.TypeExpr {
	if sym := s.sym(); sym != "" {
		return &ast.TypeName{SpanV: s.span, Name: sym}
	}
	if !s.isList() || len(s.list) == 0 {
		p.errf(s.span, "malformed type")
		return &ast.TypeName{SpanV: s.span, Name: "unit"}
	}
	switch s.head() {
	case "quote":
		if len(s.list) == 2 && s.list[1].sym() != "" {
			return &ast.TypeName{SpanV: s.span, Name: s.list[1].sym(), Var: true}
		}
		p.errf(s.span, "type variable must be 'name")
		return &ast.TypeName{SpanV: s.span, Name: "unit"}
	case "->":
		if len(s.list) != 3 || !s.list[1].isList() {
			p.errf(s.span, "function type must be (-> (params...) result)")
			return &ast.TypeName{SpanV: s.span, Name: "unit"}
		}
		fn := &ast.TypeFn{SpanV: s.span, Result: p.formType(s.list[2])}
		for _, ps := range s.list[1].list {
			fn.Params = append(fn.Params, p.formType(ps))
		}
		return fn
	case "array":
		if len(s.list) != 3 || s.list[2].tok == nil || s.list[2].tok.Kind != lexer.Int {
			p.errf(s.span, "array type must be (array elem-type length)")
			return &ast.TypeName{SpanV: s.span, Name: "unit"}
		}
		return &ast.TypeApp{
			SpanV: s.span, Ctor: "array",
			Args: []ast.TypeExpr{p.formType(s.list[1])},
			Size: int(s.list[2].tok.IntVal),
		}
	case "bitfield":
		if len(s.list) != 3 || s.list[2].tok == nil || s.list[2].tok.Kind != lexer.Int {
			p.errf(s.span, "bitfield must be (bitfield base-type bits)")
			return &ast.TypeName{SpanV: s.span, Name: "unit"}
		}
		return &ast.TypeBitfield{SpanV: s.span, Base: p.formType(s.list[1]), Bits: int(s.list[2].tok.IntVal)}
	default:
		ctor := s.head()
		if ctor == "" {
			p.errf(s.span, "type constructor must be a symbol")
			return &ast.TypeName{SpanV: s.span, Name: "unit"}
		}
		app := &ast.TypeApp{SpanV: s.span, Ctor: ctor}
		for _, a := range s.list[1:] {
			app.Args = append(app.Args, p.formType(a))
		}
		return app
	}
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

func (p *former) formExpr(s *sexp) ast.Expr {
	if s == nil {
		return &ast.UnitLit{ID: p.id()}
	}
	if t := s.tok; t != nil {
		switch t.Kind {
		case lexer.Int:
			return &ast.IntLit{ID: p.id(), SpanV: s.span, Value: t.IntVal}
		case lexer.Float:
			return &ast.FloatLit{ID: p.id(), SpanV: s.span, Value: t.FloatVal}
		case lexer.Bool:
			return &ast.BoolLit{ID: p.id(), SpanV: s.span, Value: t.IntVal != 0}
		case lexer.Char:
			return &ast.CharLit{ID: p.id(), SpanV: s.span, Value: rune(t.IntVal)}
		case lexer.String:
			return &ast.StringLit{ID: p.id(), SpanV: s.span, Value: t.StrVal}
		case lexer.Symbol:
			if t.Text == "_" {
				p.errf(s.span, "_ is only valid as a pattern")
			}
			return &ast.VarRef{ID: p.id(), SpanV: s.span, Name: t.Text}
		case lexer.Keyword:
			p.errf(s.span, "keyword %s not valid as an expression", t.Text)
			return &ast.UnitLit{ID: p.id(), SpanV: s.span}
		}
	}
	if len(s.list) == 0 {
		return &ast.UnitLit{ID: p.id(), SpanV: s.span}
	}
	switch s.head() {
	case "if":
		return p.formIf(s)
	case "let", "let*", "letrec":
		return p.formLet(s)
	case "lambda":
		return p.formLambda(s)
	case "begin":
		return &ast.Begin{ID: p.id(), SpanV: s.span, Body: p.formBody(s.list[1:], s.span)}
	case "set!":
		if len(s.list) == 4 {
			// (set! e field v) sugar for set-field!
			return &ast.FieldSet{ID: p.id(), SpanV: s.span, Expr: p.formExpr(s.list[1]), Name: s.list[2].sym(), Value: p.formExpr(s.list[3])}
		}
		if len(s.list) != 3 || s.list[1].sym() == "" {
			p.errf(s.span, "set! must be (set! name expr)")
			return &ast.UnitLit{ID: p.id(), SpanV: s.span}
		}
		return &ast.Set{ID: p.id(), SpanV: s.span, Name: s.list[1].sym(), Value: p.formExpr(s.list[2])}
	case "while":
		if len(s.list) < 2 {
			p.errf(s.span, "while needs a condition")
			return &ast.UnitLit{ID: p.id(), SpanV: s.span}
		}
		w := &ast.While{ID: p.id(), SpanV: s.span, Cond: p.formExpr(s.list[1])}
		rest := s.list[2:]
		for len(rest) >= 2 && rest[0].keyword() == ":invariant" {
			w.Invariants = append(w.Invariants, p.formExpr(rest[1]))
			rest = rest[2:]
		}
		w.Body = p.formBody(rest, s.span)
		return w
	case "dotimes":
		return p.formDoTimes(s)
	case "make":
		return p.formMake(s)
	case "field":
		if len(s.list) != 3 || s.list[2].sym() == "" {
			p.errf(s.span, "field must be (field expr name)")
			return &ast.UnitLit{ID: p.id(), SpanV: s.span}
		}
		return &ast.FieldRef{ID: p.id(), SpanV: s.span, Expr: p.formExpr(s.list[1]), Name: s.list[2].sym()}
	case "set-field!":
		if len(s.list) != 4 || s.list[2].sym() == "" {
			p.errf(s.span, "set-field! must be (set-field! expr name value)")
			return &ast.UnitLit{ID: p.id(), SpanV: s.span}
		}
		return &ast.FieldSet{ID: p.id(), SpanV: s.span, Expr: p.formExpr(s.list[1]), Name: s.list[2].sym(), Value: p.formExpr(s.list[3])}
	case "case":
		return p.formCase(s)
	case "assert":
		if len(s.list) != 2 {
			p.errf(s.span, "assert must be (assert expr)")
			return &ast.UnitLit{ID: p.id(), SpanV: s.span}
		}
		return &ast.Assert{ID: p.id(), SpanV: s.span, Cond: p.formExpr(s.list[1])}
	case "cast":
		if len(s.list) != 3 {
			p.errf(s.span, "cast must be (cast type expr)")
			return &ast.UnitLit{ID: p.id(), SpanV: s.span}
		}
		return &ast.Cast{ID: p.id(), SpanV: s.span, Type: p.formType(s.list[1]), Expr: p.formExpr(s.list[2])}
	case "with-region":
		if len(s.list) < 3 || s.list[1].sym() == "" {
			p.errf(s.span, "with-region must be (with-region name body...)")
			return &ast.UnitLit{ID: p.id(), SpanV: s.span}
		}
		wr := &ast.WithRegion{ID: p.id(), SpanV: s.span, Name: s.list[1].sym(), Bind: p.bind()}
		wr.Body = p.formBody(s.list[2:], s.span)
		return wr
	case "alloc-in":
		if len(s.list) != 3 || s.list[1].sym() == "" {
			p.errf(s.span, "alloc-in must be (alloc-in region expr)")
			return &ast.UnitLit{ID: p.id(), SpanV: s.span}
		}
		return &ast.AllocIn{ID: p.id(), SpanV: s.span, Region: s.list[1].sym(), Expr: p.formExpr(s.list[2])}
	case "atomic":
		return &ast.Atomic{ID: p.id(), SpanV: s.span, Body: p.formBody(s.list[1:], s.span)}
	case "spawn":
		if len(s.list) != 2 {
			p.errf(s.span, "spawn must be (spawn expr)")
			return &ast.UnitLit{ID: p.id(), SpanV: s.span}
		}
		return &ast.Spawn{ID: p.id(), SpanV: s.span, Expr: p.formExpr(s.list[1])}
	case "with-lock":
		if len(s.list) < 3 || s.list[1].sym() == "" {
			p.errf(s.span, "with-lock must be (with-lock name body...)")
			return &ast.UnitLit{ID: p.id(), SpanV: s.span}
		}
		return &ast.WithLock{ID: p.id(), SpanV: s.span, Lock: s.list[1].sym(), Body: p.formBody(s.list[2:], s.span)}
	case "suppress":
		// (suppress "BITC-XXXX" expr) evaluates exactly like expr; the code
		// and form span are recorded for the static-analysis driver.
		if len(s.list) != 3 || s.list[1].tok == nil || s.list[1].tok.Kind != lexer.String {
			p.errf(s.span, `suppress must be (suppress "BITC-XXXX" expr)`)
			if len(s.list) >= 3 {
				return p.formExpr(s.list[2])
			}
			return &ast.UnitLit{ID: p.id(), SpanV: s.span}
		}
		p.suppressions = append(p.suppressions, ast.Suppression{
			Code: s.list[1].tok.StrVal,
			Span: s.span,
		})
		return p.formExpr(s.list[2])
	case "quote":
		p.errf(s.span, "quote is only valid in type position")
		return &ast.UnitLit{ID: p.id(), SpanV: s.span}
	default:
		call := &ast.Call{ID: p.id(), SpanV: s.span, Fn: p.formExpr(s.list[0])}
		for _, a := range s.list[1:] {
			call.Args = append(call.Args, p.formExpr(a))
		}
		return call
	}
}

func (p *former) formBody(body []*sexp, span source.Span) []ast.Expr {
	if len(body) == 0 {
		return []ast.Expr{&ast.UnitLit{ID: p.id(), SpanV: span}}
	}
	out := make([]ast.Expr, 0, len(body))
	for _, b := range body {
		out = append(out, p.formExpr(b))
	}
	return out
}

func (p *former) formIf(s *sexp) ast.Expr {
	if len(s.list) != 3 && len(s.list) != 4 {
		p.errf(s.span, "if must be (if cond then [else])")
		return &ast.UnitLit{ID: p.id(), SpanV: s.span}
	}
	e := &ast.If{ID: p.id(), SpanV: s.span, Cond: p.formExpr(s.list[1]), Then: p.formExpr(s.list[2])}
	if len(s.list) == 4 {
		e.Else = p.formExpr(s.list[3])
	}
	return e
}

func (p *former) formLet(s *sexp) ast.Expr {
	kind := ast.LetPlain
	switch s.head() {
	case "let*":
		kind = ast.LetSeq
	case "letrec":
		kind = ast.LetRec
	}
	if len(s.list) < 3 || !s.list[1].isList() {
		p.errf(s.span, "%s must be (%s ((name init)...) body...)", s.head(), s.head())
		return &ast.UnitLit{ID: p.id(), SpanV: s.span}
	}
	let := &ast.Let{ID: p.id(), SpanV: s.span, Kind: kind}
	var inits []*sexp
	for _, bs := range s.list[1].list {
		if b, init := p.formBinding(bs); b != nil {
			let.Bindings = append(let.Bindings, b)
			inits = append(inits, init)
		}
	}
	// Number the names where they come into scope: a letrec's before every
	// initialiser, a let*'s each after its own, a plain let's after all.
	if kind == ast.LetRec {
		for _, b := range let.Bindings {
			b.Bind = p.bind()
		}
	}
	for i, b := range let.Bindings {
		b.Init = p.formExpr(inits[i])
		if kind == ast.LetSeq {
			b.Bind = p.bind()
		}
	}
	if kind == ast.LetPlain {
		for _, b := range let.Bindings {
			b.Bind = p.bind()
		}
	}
	let.Body = p.formBody(s.list[2:], s.span)
	return let
}

// formBinding forms a binding's name, mutability and type and returns the
// initialiser for the caller to form.
func (p *former) formBinding(s *sexp) (*ast.Binding, *sexp) {
	if !s.isList() || len(s.list) < 2 {
		p.errf(s.span, "binding must be (name [type] init) or (mutable name [type] init)")
		return nil, nil
	}
	items := s.list
	b := &ast.Binding{SpanV: s.span}
	if items[0].sym() == "mutable" && len(items) >= 3 {
		b.Mutable = true
		items = items[1:]
	}
	if items[0].sym() == "" {
		p.errf(s.span, "binding name must be a symbol")
		return nil, nil
	}
	b.Name = items[0].sym()
	switch len(items) {
	case 2:
		return b, items[1]
	case 3:
		b.Type = p.formType(items[1])
		return b, items[2]
	}
	p.errf(s.span, "binding has too many parts")
	return nil, nil
}

func (p *former) formLambda(s *sexp) ast.Expr {
	if len(s.list) < 3 || !s.list[1].isList() {
		p.errf(s.span, "lambda must be (lambda (params...) body...)")
		return &ast.UnitLit{ID: p.id(), SpanV: s.span}
	}
	lam := &ast.Lambda{ID: p.id(), SpanV: s.span}
	for _, ps := range s.list[1].list {
		lam.Params = append(lam.Params, p.formParam(ps))
	}
	rest := s.list[2:]
	if len(rest) >= 2 && p.looksLikeType(rest[0]) {
		lam.RetType = p.formType(rest[0])
		rest = rest[1:]
	}
	lam.Body = p.formBody(rest, s.span)
	return lam
}

func (p *former) formDoTimes(s *sexp) ast.Expr {
	if len(s.list) < 3 || !s.list[1].isList() || len(s.list[1].list) != 2 || s.list[1].list[0].sym() == "" {
		p.errf(s.span, "dotimes must be (dotimes (var count) body...)")
		return &ast.UnitLit{ID: p.id(), SpanV: s.span}
	}
	dt := &ast.DoTimes{ID: p.id(), SpanV: s.span, Var: s.list[1].list[0].sym()}
	dt.Count = p.formExpr(s.list[1].list[1])
	dt.Bind = p.bind()
	dt.Body = p.formBody(s.list[2:], s.span)
	return dt
}

func (p *former) formMake(s *sexp) ast.Expr {
	if len(s.list) < 2 || s.list[1].sym() == "" {
		p.errf(s.span, "make must be (make struct-name :field value ...)")
		return &ast.UnitLit{ID: p.id(), SpanV: s.span}
	}
	m := &ast.MakeStruct{ID: p.id(), SpanV: s.span, Name: s.list[1].sym()}
	rest := s.list[2:]
	for len(rest) > 0 {
		kw := rest[0].keyword()
		if kw == "" || len(rest) < 2 {
			p.errf(rest[0].span, "make fields must be :name value pairs")
			return m
		}
		m.Fields = append(m.Fields, ast.StructFieldInit{Name: kw[1:], Value: p.formExpr(rest[1])})
		rest = rest[2:]
	}
	return m
}

func (p *former) formCase(s *sexp) ast.Expr {
	if len(s.list) < 3 {
		p.errf(s.span, "case must be (case scrutinee (pattern body...)...)")
		return &ast.UnitLit{ID: p.id(), SpanV: s.span}
	}
	c := &ast.Case{ID: p.id(), SpanV: s.span, Scrut: p.formExpr(s.list[1])}
	for _, cs := range s.list[2:] {
		if !cs.isList() || len(cs.list) < 2 {
			p.errf(cs.span, "case clause must be (pattern body...)")
			continue
		}
		c.Clauses = append(c.Clauses, &ast.CaseClause{
			SpanV:   cs.span,
			Pattern: p.formPattern(cs.list[0]),
			Body:    p.formBody(cs.list[1:], cs.span),
		})
	}
	return c
}

func (p *former) formPattern(s *sexp) ast.Pattern {
	if t := s.tok; t != nil {
		switch t.Kind {
		case lexer.Symbol:
			if t.Text == "_" {
				return &ast.PatWildcard{SpanV: s.span}
			}
			return &ast.PatVar{SpanV: s.span, Name: t.Text, Bind: p.bind()}
		case lexer.Int, lexer.Bool, lexer.Char, lexer.String:
			return &ast.PatLit{SpanV: s.span, Lit: p.formExpr(s)}
		}
		p.errf(s.span, "invalid pattern")
		return &ast.PatWildcard{SpanV: s.span}
	}
	if len(s.list) == 0 || s.list[0].sym() == "" {
		p.errf(s.span, "constructor pattern must be (Ctor subpatterns...)")
		return &ast.PatWildcard{SpanV: s.span}
	}
	pc := &ast.PatCtor{SpanV: s.span, Ctor: s.list[0].sym()}
	for _, sub := range s.list[1:] {
		pc.Args = append(pc.Args, p.formPattern(sub))
	}
	return pc
}
