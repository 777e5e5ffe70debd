package types

import (
	"bitc/internal/ast"
	"bitc/internal/source"
)

// CtorUse resolves a constructor name to its union and arm.
type CtorUse struct {
	Union *UnionInfo
	Arm   *ArmInfo
}

// Info is the result of type checking: every expression's type plus the
// resolution tables later stages (compiler, verifier, region checker) need.
//
// Types and Uses are dense tables indexed by ast.Expr.ExprID: Types holds
// each checked expression's type, Uses the symbol of each variable
// reference, set! target and alloc-in region. ID 0 means "not recorded": a
// node the parser did not build has it, and slot 0 is never read. Read the
// tables through TypeOf, Use, Bind, Target, Region and Builtin. Every type
// Info holds is its own representative once Check returns, so a Prune on
// it walks no chain.
//
// The checker's resolution is the toolchain's only one: a later pass
// identifies a local by its binding number (Symbol.Bind, ast.Binding.Bind)
// and a builtin by Builtin, never by a name.
type Info struct {
	Types    []*Type
	Uses     []*Symbol
	Structs  map[string]*StructInfo
	Unions   map[string]*UnionInfo
	CtorOf   map[string]*CtorUse
	PatCtors map[*ast.PatCtor]*CtorUse
	Funcs    map[string]*Scheme
	Globals  map[string]*Type

	// FuncDecls preserves definition order for code generation.
	FuncDecls   []*ast.DefineFunc
	GlobalDecls []*ast.DefineVar
	Externals   []*ast.External
}

// TypeOf returns the (pruned, defaulted) type recorded for e, or Unit if
// nothing was recorded: the expression was never checked (which only
// happens after errors) or the parser did not build it.
func (in *Info) TypeOf(e ast.Expr) *Type {
	if id := int(e.ExprID()); id > 0 && id < len(in.Types) && in.Types[id] != nil {
		return Prune(in.Types[id])
	}
	return Unit
}

// Use returns the symbol v resolves to, or nil if v was never resolved
// (an unbound name, a region used as a value, or a node the parser did
// not build).
func (in *Info) Use(v *ast.VarRef) *Symbol {
	if id := int(v.ID); id > 0 && id < len(in.Uses) {
		return in.Uses[id]
	}
	return nil
}

// Bind returns the binding number of the local or parameter v resolves
// to, or 0 when v names anything else. A call whose head has one calls the
// closure the binding holds, even when the name is a builtin's or a
// top-level function's.
func (in *Info) Bind(v *ast.VarRef) int32 { return in.bindAt(v.ID) }

// Target returns the binding number of the local a set! assigns.
func (in *Info) Target(s *ast.Set) int32 { return in.bindAt(s.ID) }

// Region returns the binding number of the with-region an alloc-in
// allocates into.
func (in *Info) Region(a *ast.AllocIn) int32 { return in.bindAt(a.ID) }

// bindAt returns the binding number of the symbol recorded for expression
// id, or 0 when there is none.
func (in *Info) bindAt(id int32) int32 {
	if id > 0 && int(id) < len(in.Uses) && in.Uses[id] != nil {
		return in.Uses[id].Bind
	}
	return 0
}

// Builtin returns the builtin operation a call head denotes: the name of
// a builtin or of the and/or/vector forms, or "" when v names anything
// else, a local that shadows a builtin included. A node the parser did not
// build denotes nothing.
func (in *Info) Builtin(v *ast.VarRef) string {
	if id := int(v.ID); id <= 0 || id >= len(in.Uses) {
		return ""
	}
	switch sym := in.Uses[v.ID]; {
	case sym != nil && sym.Kind == SymBuiltin:
		return sym.Name
	case sym == nil && (v.Name == "and" || v.Name == "or" || v.Name == "vector"):
		// The special forms record no use: an unrecorded and/or/vector
		// head was checked as the form, since any binding of the name
		// would have been recorded.
		return v.Name
	}
	return ""
}

// Check type-checks a parsed program. It always returns a non-nil Info;
// consult diags for errors.
func Check(prog *ast.Program) (*Info, *source.Diagnostics) {
	info, _, diags := CheckEnv(prog)
	return info, diags
}

// CheckEnv is Check that also returns the environment the function bodies
// were checked in, for Recheck.
func CheckEnv(prog *ast.Program) (*Info, *Env, *source.Diagnostics) {
	c := newChecker(prog)
	c.run(prog)
	env := &Env{names: c.scope.names, builtins: c.builtins, nextID: c.u.nextID, closed: c.closed}
	return c.info, env, c.diags
}

// Env is what a check leaves behind for re-checking edited function bodies
// later: the top-level scope (every function, external and global symbol),
// the builtin schemes and the unifier's variable counter. Only Recheck uses
// it, and only one Recheck may run on an Env at a time.
type Env struct {
	names    map[string]*Symbol
	builtins map[string]*Scheme
	nextID   int
	closed   bool
}

// Closed reports whether the environment the bodies were checked in had no
// unbound type variable: every function and external signature, every
// global's type and every struct and union field type was concrete before
// the first body was checked. Only then is each body's check independent
// of every other body, which Recheck relies on. A signature is concrete
// when it is written out in full without 'a variables; a global's type
// when its annotation or initialiser fixes it (an unannotated integer
// literal does not: a body may still pick its width).
func (env *Env) Closed() bool { return env.closed }

// Recheck checks prog, a program that differs from the one env and prev
// were checked from only in the bodies and contracts of the functions at
// the indices edited of prog.Defs. Each of them must have the same header
// (ast.SameHeader) as the function it replaced, at the same index; env
// must be Closed and prev's check must have reported no error. Every other
// definition is either the node prev was checked from or a copy of it that
// kept its ExprIDs (ast.ShiftDef), and the edited functions' expressions
// are numbered above the ones prev covers. gone lists the definitions prog
// no longer holds, whose table slots are cleared.
//
// Under those conditions each body's check depends on the environment
// alone, so Recheck checks only the edited bodies, in definition order,
// and settles and range-checks only their entries; the rest of Info is
// prev's, shared or copied. The result equals Check(prog) but for the
// numbering of type variables, which nothing outside the checker sees.
// prev is not changed. If the diagnostics are not empty, Check(prog) is
// the authority: a caller must use its Info and its diagnostics instead.
func (env *Env) Recheck(prog *ast.Program, prev *Info, gone []ast.Def, edited []int) (*Info, *source.Diagnostics) {
	n := int(prog.ExprCount) + 1
	info := &Info{
		Types:   make([]*Type, n),
		Uses:    make([]*Symbol, n),
		Structs: prev.Structs,
		Unions:  prev.Unions,
		CtorOf:  prev.CtorOf,
		Funcs:   prev.Funcs,
		Globals: prev.Globals,
	}
	copy(info.Types, prev.Types)
	copy(info.Uses, prev.Uses)
	for _, d := range gone {
		ast.EachExpr(d, func(e ast.Expr) {
			info.Types[e.ExprID()] = nil
			info.Uses[e.ExprID()] = nil
		})
	}
	// The pointer-keyed parts name this program's nodes. In a program
	// checked without error every constructor pattern resolves to its
	// constructor's entry, so PatCtors is rebuilt from CtorOf.
	info.PatCtors = make(map[*ast.PatCtor]*CtorUse, len(prev.PatCtors))
	for _, d := range prog.Defs {
		switch d := d.(type) {
		case *ast.DefineFunc:
			info.FuncDecls = append(info.FuncDecls, d)
		case *ast.DefineVar:
			info.GlobalDecls = append(info.GlobalDecls, d)
		case *ast.External:
			info.Externals = append(info.Externals, d)
		}
		if len(prev.PatCtors) > 0 {
			ast.WalkDef(d, func(e ast.Expr) bool {
				if c, ok := e.(*ast.Case); ok {
					for _, cl := range c.Clauses {
						patCtors(cl.Pattern, info)
					}
				}
				return true
			})
		}
	}

	c := &checker{
		u:        &unifier{nextID: env.nextID},
		diags:    source.NewDiagnostics(prog.File),
		info:     info,
		builtins: env.builtins,
		scope:    scopes{names: env.names},
	}
	for _, i := range edited {
		c.checkFuncBody(prog.Defs[i].(*ast.DefineFunc))
	}
	for _, i := range edited {
		if d := prog.Defs[i].(*ast.DefineFunc); d.Pure {
			c.checkPurity(d)
		}
	}
	for i := len(prev.Types); i < n; i++ {
		if t := info.Types[i]; t != nil {
			info.Types[i] = c.u.settle(t, nil)
		}
	}
	c.checkLiteralRanges()
	env.nextID = c.u.nextID
	return info, c.diags
}

// patCtors records the constructor of every constructor pattern in p.
func patCtors(p ast.Pattern, info *Info) {
	if pc, ok := p.(*ast.PatCtor); ok {
		info.PatCtors[pc] = info.CtorOf[pc.Ctor]
		for _, a := range pc.Args {
			patCtors(a, info)
		}
	}
}

func newChecker(prog *ast.Program) *checker {
	n := int(prog.ExprCount) + 1
	return &checker{
		u:     &unifier{},
		diags: source.NewDiagnostics(prog.File),
		info: &Info{
			Types:    make([]*Type, n),
			Uses:     make([]*Symbol, n),
			Structs:  map[string]*StructInfo{},
			Unions:   map[string]*UnionInfo{},
			CtorOf:   map[string]*CtorUse{},
			PatCtors: map[*ast.PatCtor]*CtorUse{},
			Funcs:    map[string]*Scheme{},
			Globals:  map[string]*Type{},
		},
		builtins: builtinSchemes(),
		scope:    scopes{names: make(map[string]*Symbol, len(prog.Defs))},
	}
}

type checker struct {
	u        *unifier
	diags    *source.Diagnostics
	info     *Info
	builtins map[string]*Scheme
	scope    scopes // globals at mark 0, then the locals in scope
	level    int

	curFn  *funcCtx      // function being checked, for %result and returns
	lits   []*ast.IntLit // integer literals, range-checked once types settle
	closed bool          // see Env.Closed
}

type funcCtx struct {
	ret *Type
}

func (c *checker) errf(span source.Span, format string, args ...any) {
	c.diags.Errorf(span, format, args...)
}

func (c *checker) fresh() *Type { return c.u.fresh(c.level, CNone) }

// record notes e's type. A node the parser did not build writes slot 0,
// which no reader looks at. Every other ID was given by the parse that set
// prog.ExprCount, so it lies inside the table; one that does not is a bug
// and panics with an index out of range rather than being dropped.
func (c *checker) record(e ast.Expr, t *Type) *Type {
	c.info.Types[e.ExprID()] = t
	return t
}

// use notes the symbol v resolves to, like record.
func (c *checker) use(v *ast.VarRef, sym *Symbol) {
	c.info.Uses[v.ID] = sym
}

// run drives the multi-pass checking: declarations, signatures, bodies,
// then defaulting of leftover type variables.
func (c *checker) run(prog *ast.Program) {
	// Pass 1: collect type declarations (structs, unions) so types can be
	// resolved in any order.
	for _, d := range prog.Defs {
		switch d := d.(type) {
		case *ast.DefStruct:
			if c.declared(d.Name, d.Span()) {
				continue
			}
			c.info.Structs[d.Name] = &StructInfo{
				Name: d.Name, Packed: d.Packed, Boxed: d.Boxed, Align: d.Align,
			}
		case *ast.DefUnion:
			if c.declared(d.Name, d.Span()) {
				continue
			}
			c.info.Unions[d.Name] = &UnionInfo{Name: d.Name}
		}
	}
	// Pass 2: resolve field types.
	for _, d := range prog.Defs {
		switch d := d.(type) {
		case *ast.DefStruct:
			si := c.info.Structs[d.Name]
			if si == nil {
				continue // its name was rejected in pass 1
			}
			for _, f := range d.Fields {
				if si.FieldIndex(f.Name) >= 0 {
					c.errf(f.Span(), "duplicate field %s in struct %s", f.Name, d.Name)
					continue
				}
				ft, bits := c.resolveFieldType(f.Type)
				si.Fields = append(si.Fields, FieldInfo{Name: f.Name, Type: ft, Bits: bits})
			}
		case *ast.DefUnion:
			ui := c.info.Unions[d.Name]
			if ui == nil {
				continue // its name was rejected in pass 1
			}
			for i, a := range d.Arms {
				if ui.Arm(a.Name) != nil {
					c.errf(a.Span(), "duplicate constructor %s in union %s", a.Name, d.Name)
					continue
				}
				arm := &ArmInfo{Name: a.Name, Tag: i}
				for _, f := range a.Fields {
					ft, bits := c.resolveFieldType(f.Type)
					if bits != 0 {
						c.errf(f.Span(), "bitfields are only allowed in structs")
					}
					arm.Fields = append(arm.Fields, FieldInfo{Name: f.Name, Type: ft})
				}
				ui.Arms = append(ui.Arms, arm)
				if prev, dup := c.info.CtorOf[a.Name]; dup {
					c.errf(a.Span(), "constructor %s already defined in union %s", a.Name, prev.Union.Name)
				} else {
					c.info.CtorOf[a.Name] = &CtorUse{Union: ui, Arm: arm}
				}
			}
		}
	}
	c.checkStructCycles(prog)

	// Pass 3: function and external signatures, then globals, then bodies.
	for _, d := range prog.Defs {
		switch d := d.(type) {
		case *ast.DefineFunc:
			if c.declared(d.Name, d.Span()) {
				continue
			}
			c.info.FuncDecls = append(c.info.FuncDecls, d)
			// Signature variables live at level 1 so that generalising at
			// level 0 (after the body is checked) quantifies them.
			c.level = 1
			sig := c.funcSignature(d.Params, d.RetType)
			c.level = 0
			c.scope.bind(&Symbol{Name: d.Name, Kind: SymFunc, Scheme: Mono(sig)})
		case *ast.External:
			if c.declared(d.Name, d.Span()) {
				continue
			}
			c.info.Externals = append(c.info.Externals, d)
			t := c.resolveType(d.Type, map[string]*Type{})
			if c.u.find(t).Kind != KFn {
				c.errf(d.Span(), "external %s must have a function type", d.Name)
			}
			c.scope.bind(&Symbol{Name: d.Name, Kind: SymExternal, Scheme: Mono(t)})
			c.info.Funcs[d.Name] = Mono(t)
		case *ast.DefineVar:
			// handled below in order
		}
	}
	for _, d := range prog.Defs {
		if d, ok := d.(*ast.DefineVar); ok {
			if c.declared(d.Name, d.Span()) {
				continue
			}
			c.info.GlobalDecls = append(c.info.GlobalDecls, d)
			t := c.checkExpr(d.Init)
			if d.Type != nil {
				want := c.resolveType(d.Type, map[string]*Type{})
				if err := c.u.Unify(t, want); err != nil {
					c.errf(d.Span(), "global %s: %v", d.Name, err)
				}
				t = want
			}
			c.scope.bind(&Symbol{Name: d.Name, Kind: SymGlobal, Scheme: Mono(t)})
			c.info.Globals[d.Name] = t
		}
	}
	c.closed = c.envClosed()
	for _, d := range prog.Defs {
		if d, ok := d.(*ast.DefineFunc); ok {
			c.checkFuncBody(d)
			// Generalise immediately so later definitions can use this
			// function polymorphically. Within its own body (and in any
			// earlier definitions) it is monomorphic, which is the usual
			// HM treatment of recursion.
			if sym := c.scope.lookup(d.Name); sym != nil && sym.Kind == SymFunc {
				sym.Scheme = c.u.generalize(sym.Scheme.Type, 0)
				c.info.Funcs[d.Name] = sym.Scheme
			}
		}
	}

	// Purity checking: a :pure function may keep local state but must be
	// free of observable effects (heap writes, I/O, communication,
	// synchronisation) and may only call :pure functions and effect-free
	// builtins. The verifier leans on this: pure calls are safe to reason
	// about equationally.
	for _, d := range c.info.FuncDecls {
		if d.Pure {
			c.checkPurity(d)
		}
	}

	// Pass 4: default leftover variables so the compiler sees concrete types
	// everywhere — except variables a scheme quantifies, which must stay
	// polymorphic.
	keep := map[int]bool{}
	for _, s := range c.info.Funcs {
		for _, v := range s.Vars {
			keep[v.ID] = true
		}
	}
	// Settling leaves each entry at its representative, so a Prune after
	// Check never walks a chain.
	for i, t := range c.info.Types {
		if t != nil {
			c.info.Types[i] = c.u.settle(t, keep)
		}
	}
	for n, t := range c.info.Globals {
		c.info.Globals[n] = c.u.settle(t, keep)
	}
	for _, s := range c.info.Funcs {
		c.u.settle(s.Type, keep)
	}
	c.checkLiteralRanges()
}

// envClosed reports whether every top-level symbol and every struct and
// union field has a type without unbound variables (see Env.Closed).
func (c *checker) envClosed() bool {
	for _, sym := range c.scope.names {
		if !c.concrete(sym.Scheme.Type) {
			return false
		}
	}
	for _, si := range c.info.Structs {
		for _, f := range si.Fields {
			if !c.concrete(f.Type) {
				return false
			}
		}
	}
	for _, ui := range c.info.Unions {
		for _, a := range ui.Arms {
			for _, f := range a.Fields {
				if !c.concrete(f.Type) {
					return false
				}
			}
		}
	}
	return true
}

// concrete reports whether t contains no unbound type variable.
func (c *checker) concrete(t *Type) bool {
	t = c.u.find(t)
	switch t.Kind {
	case KVar:
		return false
	case KFn:
		for _, p := range t.Params {
			if !c.concrete(p) {
				return false
			}
		}
		return c.concrete(t.Result)
	case KVector, KArray, KChan:
		return c.concrete(t.Elem)
	}
	return true
}

// checkLiteralRanges rejects an integer literal its settled type cannot
// hold, such as 300 as a uint8 or -1 as a uint64 (a cast's own literal
// operand is exempt, see checkCast). The VM loads a literal as written, and
// the range analyses rely on every value fitting its type.
func (c *checker) checkLiteralRanges() {
	for _, e := range c.lits {
		if t := c.info.TypeOf(e); t.Kind == KInt && !intFits(e.Value, t) {
			c.errf(e.Span(), "integer literal %d does not fit %s", e.Value, t)
		}
	}
}

// intFits reports whether v lies in the range of the integer type t.
func intFits(v int64, t *Type) bool {
	switch {
	case t.Bits == 0 || t.Bits >= 64:
		return t.Signed || v >= 0
	case t.Signed:
		return v >= -1<<(t.Bits-1) && v < 1<<(t.Bits-1)
	}
	return v >= 0 && v < 1<<t.Bits
}

func (c *checker) declared(name string, span source.Span) bool {
	if c.scope.lookup(name) != nil || c.info.Structs[name] != nil || c.info.Unions[name] != nil {
		c.errf(span, "%s is already defined", name)
		return true
	}
	if _, isBuiltin := c.builtins[name]; isBuiltin {
		c.errf(span, "%s shadows a builtin operation", name)
		return true
	}
	return false
}

// checkStructCycles rejects structs that contain themselves by value.
func (c *checker) checkStructCycles(prog *ast.Program) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := map[*StructInfo]int{}
	var visit func(s *StructInfo) bool // true if a cycle runs through s
	visit = func(s *StructInfo) bool {
		switch state[s] {
		case grey:
			return true
		case black:
			return false
		}
		state[s] = grey
		cyclic := false
		for _, f := range s.Fields {
			ft := c.u.find(f.Type)
			if ft.Kind == KStruct && visit(ft.SDecl) {
				cyclic = true
			}
			if ft.Kind == KArray {
				if el := c.u.find(ft.Elem); el.Kind == KStruct && visit(el.SDecl) {
					cyclic = true
				}
			}
		}
		state[s] = black
		return cyclic
	}
	for _, d := range prog.Defs {
		if sd, ok := d.(*ast.DefStruct); ok {
			si := c.info.Structs[sd.Name]
			if si != nil && state[si] == white && visit(si) {
				c.errf(sd.Span(), "struct %s contains itself by value (use a union or vector for recursion)", sd.Name)
			}
		}
	}
}

// resolveFieldType resolves a field's type, splitting off a bitfield width.
func (c *checker) resolveFieldType(te ast.TypeExpr) (*Type, int) {
	if bf, ok := te.(*ast.TypeBitfield); ok {
		base := c.resolveType(bf.Base, map[string]*Type{})
		pb := c.u.find(base)
		if pb.Kind != KInt {
			c.errf(te.Span(), "bitfield base must be an integer type, got %s", base)
			return Uint32, 0
		}
		if bf.Bits < 1 || bf.Bits > pb.Bits {
			c.errf(te.Span(), "bitfield width %d out of range 1..%d", bf.Bits, pb.Bits)
			return base, 0
		}
		return base, bf.Bits
	}
	return c.resolveType(te, map[string]*Type{}), 0
}

// resolveType converts a surface type expression to an internal type.
// vars maps 'a-style names to their variables within one signature.
func (c *checker) resolveType(te ast.TypeExpr, vars map[string]*Type) *Type {
	switch te := te.(type) {
	case *ast.TypeName:
		if te.Var {
			v, ok := vars[te.Name]
			if !ok {
				v = c.fresh()
				vars[te.Name] = v
			}
			return v
		}
		switch te.Name {
		case "unit":
			return Unit
		case "bool":
			return Bool
		case "char":
			return Char
		case "string":
			return String
		case "int8":
			return Int8
		case "int16":
			return Int16
		case "int32":
			return Int32
		case "int64":
			return Int64
		case "uint8":
			return Uint8
		case "uint16":
			return Uint16
		case "uint32":
			return Uint32
		case "uint64":
			return Uint64
		case "word":
			return Word
		case "float64":
			return Float64
		}
		if s, ok := c.info.Structs[te.Name]; ok {
			return Struct(s)
		}
		if u, ok := c.info.Unions[te.Name]; ok {
			return Union(u)
		}
		c.errf(te.Span(), "unknown type %s", te.Name)
		return c.fresh()
	case *ast.TypeApp:
		switch te.Ctor {
		case "vector":
			if len(te.Args) != 1 {
				c.errf(te.Span(), "vector takes one type argument")
				return Vector(c.fresh())
			}
			return Vector(c.resolveType(te.Args[0], vars))
		case "array":
			if len(te.Args) != 1 || te.Size <= 0 {
				c.errf(te.Span(), "array needs an element type and a positive length")
				return Array(c.fresh(), 1)
			}
			return Array(c.resolveType(te.Args[0], vars), te.Size)
		case "chan":
			if len(te.Args) != 1 {
				c.errf(te.Span(), "chan takes one type argument")
				return Chan(c.fresh())
			}
			return Chan(c.resolveType(te.Args[0], vars))
		default:
			c.errf(te.Span(), "unknown type constructor %s", te.Ctor)
			return c.fresh()
		}
	case *ast.TypeFn:
		params := make([]*Type, len(te.Params))
		for i, p := range te.Params {
			params[i] = c.resolveType(p, vars)
		}
		return Fn(params, c.resolveType(te.Result, vars))
	case *ast.TypeBitfield:
		c.errf(te.Span(), "bitfield types are only allowed as struct fields")
		return c.resolveType(te.Base, vars)
	default:
		c.errf(te.Span(), "malformed type")
		return c.fresh()
	}
}

// funcSignature builds the (monomorphic within this unit) signature type.
func (c *checker) funcSignature(params []*ast.Param, ret ast.TypeExpr) *Type {
	vars := map[string]*Type{}
	pts := make([]*Type, len(params))
	for i, p := range params {
		if p.Type != nil {
			pts[i] = c.resolveType(p.Type, vars)
		} else {
			pts[i] = c.fresh()
		}
	}
	var rt *Type
	if ret != nil {
		rt = c.resolveType(ret, vars)
	} else {
		rt = c.fresh()
	}
	return Fn(pts, rt)
}

func (c *checker) checkFuncBody(d *ast.DefineFunc) {
	sym := c.scope.lookup(d.Name)
	if sym == nil {
		return
	}
	sig := c.u.find(sym.Scheme.Type)
	if sig.Kind != KFn || len(sig.Params) != len(d.Params) {
		return // a signature error was already reported
	}
	m := c.scope.mark()
	defer c.scope.release(m)
	for i, p := range d.Params {
		c.scope.bind(&Symbol{Name: p.Name, Kind: SymParam, Scheme: Mono(sig.Params[i]), Bind: p.Bind})
	}
	prevFn := c.curFn
	c.curFn = &funcCtx{ret: sig.Result}
	// The whole body checks at level 1 (matching the signature variables) so
	// that generalising at level 0 afterwards quantifies exactly the
	// variables this function introduced.
	prevLevel := c.level
	c.level = 1
	defer func() { c.curFn = prevFn; c.level = prevLevel }()

	for _, r := range d.Contract.Requires {
		t := c.checkExpr(r)
		if err := c.u.Unify(t, Bool); err != nil {
			c.errf(r.Span(), ":requires must be boolean: %v", err)
		}
	}

	bodyT := c.checkBody(d.Body)
	if err := c.u.Unify(bodyT, sig.Result); err != nil {
		c.errf(d.Span(), "function %s: body has type %s but is declared %s",
			d.Name, c.u.find(bodyT), c.u.find(sig.Result))
	}

	if len(d.Contract.Ensures) > 0 {
		c.scope.bind(&Symbol{Name: "%result", Kind: SymParam, Scheme: Mono(sig.Result), Bind: d.ResultBind})
		for _, e := range d.Contract.Ensures {
			t := c.checkExpr(e)
			if err := c.u.Unify(t, Bool); err != nil {
				c.errf(e.Span(), ":ensures must be boolean: %v", err)
			}
		}
	}
}

func (c *checker) checkBody(body []ast.Expr) *Type {
	t := Unit
	for _, e := range body {
		t = c.checkExpr(e)
	}
	return t
}

// checkExpr infers the type of e, recording it in Info.
func (c *checker) checkExpr(e ast.Expr) *Type {
	switch e := e.(type) {
	case *ast.IntLit:
		c.lits = append(c.lits, e)
		return c.record(e, c.u.fresh(c.level, CIntegral))
	case *ast.FloatLit:
		return c.record(e, Float64)
	case *ast.BoolLit:
		return c.record(e, Bool)
	case *ast.CharLit:
		return c.record(e, Char)
	case *ast.StringLit:
		return c.record(e, String)
	case *ast.UnitLit:
		return c.record(e, Unit)
	case *ast.VarRef:
		return c.record(e, c.checkVarRef(e))
	case *ast.Call:
		return c.record(e, c.checkCall(e))
	case *ast.If:
		condT := c.checkExpr(e.Cond)
		if err := c.u.Unify(condT, Bool); err != nil {
			c.errf(e.Cond.Span(), "if condition must be bool, got %s", c.u.find(condT))
		}
		thenT := c.checkExpr(e.Then)
		if e.Else == nil {
			if err := c.u.Unify(thenT, Unit); err != nil {
				c.errf(e.Then.Span(), "one-armed if must have unit type, got %s", c.u.find(thenT))
			}
			return c.record(e, Unit)
		}
		elseT := c.checkExpr(e.Else)
		if err := c.u.Unify(thenT, elseT); err != nil {
			c.errf(e.Span(), "if branches disagree: %s vs %s", c.u.find(thenT), c.u.find(elseT))
		}
		return c.record(e, thenT)
	case *ast.Let:
		return c.record(e, c.checkLet(e))
	case *ast.Lambda:
		return c.record(e, c.checkLambda(e))
	case *ast.Begin:
		return c.record(e, c.checkBody(e.Body))
	case *ast.Set:
		sym := c.scope.lookup(e.Name)
		switch {
		case sym == nil:
			c.errf(e.Span(), "set!: %s is not defined", e.Name)
		case sym.Kind != SymLocal || !sym.Mutable:
			c.errf(e.Span(), "set!: %s is not a mutable binding (declare it with (mutable %s ...))", e.Name, e.Name)
		default:
			c.info.Uses[e.ID] = sym
			vt := c.checkExpr(e.Value)
			if err := c.u.Unify(vt, sym.Scheme.Type); err != nil {
				c.errf(e.Span(), "set! %s: %v", e.Name, err)
			}
			return c.record(e, Unit)
		}
		c.checkExpr(e.Value)
		return c.record(e, Unit)
	case *ast.While:
		condT := c.checkExpr(e.Cond)
		if err := c.u.Unify(condT, Bool); err != nil {
			c.errf(e.Cond.Span(), "while condition must be bool, got %s", c.u.find(condT))
		}
		for _, inv := range e.Invariants {
			invT := c.checkExpr(inv)
			if err := c.u.Unify(invT, Bool); err != nil {
				c.errf(inv.Span(), ":invariant must be boolean, got %s", c.u.find(invT))
			}
		}
		c.checkBody(e.Body)
		return c.record(e, Unit)
	case *ast.DoTimes:
		countT := c.checkExpr(e.Count)
		iv := c.u.fresh(c.level, CIntegral)
		if err := c.u.Unify(countT, iv); err != nil {
			c.errf(e.Count.Span(), "dotimes count must be an integer, got %s", c.u.find(countT))
		}
		m := c.scope.mark()
		c.scope.bind(&Symbol{Name: e.Var, Kind: SymLocal, Scheme: Mono(iv), Bind: e.Bind})
		c.checkBody(e.Body)
		c.scope.release(m)
		return c.record(e, Unit)
	case *ast.MakeStruct:
		return c.record(e, c.checkMakeStruct(e))
	case *ast.FieldRef:
		return c.record(e, c.checkFieldRef(e))
	case *ast.FieldSet:
		return c.record(e, c.checkFieldSet(e))
	case *ast.MakeUnion:
		return c.record(e, c.checkMakeUnion(e))
	case *ast.Case:
		return c.record(e, c.checkCase(e))
	case *ast.Assert:
		condT := c.checkExpr(e.Cond)
		if err := c.u.Unify(condT, Bool); err != nil {
			c.errf(e.Cond.Span(), "assert condition must be bool, got %s", c.u.find(condT))
		}
		return c.record(e, Unit)
	case *ast.Cast:
		return c.record(e, c.checkCast(e))
	case *ast.WithRegion:
		m := c.scope.mark()
		c.scope.bind(&Symbol{Name: e.Name, Kind: SymRegion, Scheme: Mono(Unit), Bind: e.Bind})
		t := c.checkBody(e.Body)
		c.scope.release(m)
		return c.record(e, t)
	case *ast.AllocIn:
		sym := c.scope.lookup(e.Region)
		if sym == nil || sym.Kind != SymRegion {
			c.errf(e.Span(), "alloc-in: %s is not a region in scope", e.Region)
		} else {
			c.info.Uses[e.ID] = sym
		}
		if !isAllocExpr(e.Expr) {
			c.errf(e.Expr.Span(), "alloc-in requires an allocating expression (make, constructor, make-vector, vector)")
		}
		return c.record(e, c.checkExpr(e.Expr))
	case *ast.Atomic:
		return c.record(e, c.checkBody(e.Body))
	case *ast.Spawn:
		c.checkExpr(e.Expr)
		return c.record(e, Int64)
	case *ast.WithLock:
		return c.record(e, c.checkBody(e.Body))
	default:
		c.errf(e.Span(), "internal: unhandled expression %T", e)
		return c.record(e, c.fresh())
	}
}

// isAllocExpr reports whether e is a form alloc-in can place in a region.
func isAllocExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.MakeStruct, *ast.MakeUnion:
		return true
	case *ast.Call:
		if v, ok := e.Fn.(*ast.VarRef); ok {
			switch v.Name {
			case "make-vector", "vector", "make-chan":
				return true
			}
			// A constructor call also allocates; resolved later, accept any
			// capitalised head as plausible and let the checker confirm.
			return len(v.Name) > 0 && v.Name[0] >= 'A' && v.Name[0] <= 'Z'
		}
	}
	return false
}

func (c *checker) checkVarRef(e *ast.VarRef) *Type {
	if sym := c.scope.lookup(e.Name); sym != nil {
		if sym.Kind == SymRegion {
			c.errf(e.Span(), "region %s cannot be used as a value", e.Name)
			return c.fresh()
		}
		c.use(e, sym)
		return c.u.Instantiate(sym.Scheme, c.level)
	}
	if cu, ok := c.info.CtorOf[e.Name]; ok {
		c.use(e, &Symbol{Name: e.Name, Kind: SymCtor, Scheme: Mono(Union(cu.Union))})
		if len(cu.Arm.Fields) != 0 {
			c.errf(e.Span(), "constructor %s takes %d arguments; apply it", e.Name, len(cu.Arm.Fields))
		}
		return Union(cu.Union)
	}
	if s, ok := c.builtins[e.Name]; ok {
		c.use(e, &Symbol{Name: e.Name, Kind: SymBuiltin, Scheme: s})
		return c.u.Instantiate(s, c.level)
	}
	c.errf(e.Span(), "%s is not defined", e.Name)
	return c.fresh()
}

func (c *checker) checkCall(e *ast.Call) *Type {
	// Special variadic forms, unless locally shadowed.
	if v, ok := e.Fn.(*ast.VarRef); ok && c.scope.lookup(v.Name) == nil {
		switch v.Name {
		case "and", "or":
			if len(e.Args) < 2 {
				c.errf(e.Span(), "%s needs at least two arguments", v.Name)
			}
			for _, a := range e.Args {
				at := c.checkExpr(a)
				if err := c.u.Unify(at, Bool); err != nil {
					c.errf(a.Span(), "%s operand must be bool, got %s", v.Name, c.u.find(at))
				}
			}
			return Bool
		case "vector":
			elem := c.fresh()
			for _, a := range e.Args {
				at := c.checkExpr(a)
				if err := c.u.Unify(at, elem); err != nil {
					c.errf(a.Span(), "vector elements must share a type: %v", err)
				}
			}
			return Vector(elem)
		}
		// Constructor application.
		if cu, ok := c.info.CtorOf[v.Name]; ok {
			c.use(v, &Symbol{Name: v.Name, Kind: SymCtor, Scheme: Mono(Union(cu.Union))})
			if len(e.Args) != len(cu.Arm.Fields) {
				c.errf(e.Span(), "constructor %s takes %d arguments, got %d",
					v.Name, len(cu.Arm.Fields), len(e.Args))
			}
			for i, a := range e.Args {
				at := c.checkExpr(a)
				if i < len(cu.Arm.Fields) {
					if err := c.u.Unify(at, cu.Arm.Fields[i].Type); err != nil {
						c.errf(a.Span(), "constructor %s field %s: %v", v.Name, cu.Arm.Fields[i].Name, err)
					}
				}
			}
			return Union(cu.Union)
		}
	}
	fnT := c.checkExpr(e.Fn)
	args := make([]*Type, len(e.Args))
	for i, a := range e.Args {
		args[i] = c.checkExpr(a)
	}
	result := c.fresh()
	if err := c.u.Unify(fnT, Fn(args, result)); err != nil {
		c.errf(e.Span(), "cannot call: %v", err)
	}
	return result
}

func (c *checker) checkLet(e *ast.Let) *Type {
	m := c.scope.mark()
	switch e.Kind {
	case ast.LetRec:
		// Bind all names first with fresh types, then check initialisers.
		syms := make([]*Symbol, len(e.Bindings))
		for i, b := range e.Bindings {
			t := c.bindingDeclaredType(b)
			syms[i] = &Symbol{Name: b.Name, Kind: SymLocal, Scheme: Mono(t), Mutable: b.Mutable, Bind: b.Bind}
			c.scope.bind(syms[i])
		}
		for i, b := range e.Bindings {
			it := c.checkExpr(b.Init)
			if err := c.u.Unify(it, syms[i].Scheme.Type); err != nil {
				c.errf(b.Span(), "letrec %s: %v", b.Name, err)
			}
		}
	case ast.LetSeq:
		for _, b := range e.Bindings {
			c.scope.bind(c.checkBinding(b))
		}
	default: // LetPlain: initialisers see only the outer scope
		syms := make([]*Symbol, len(e.Bindings))
		for i, b := range e.Bindings {
			syms[i] = c.checkBinding(b)
		}
		for _, sym := range syms {
			c.scope.bind(sym)
		}
	}
	t := c.checkBody(e.Body)
	c.scope.release(m)
	return t
}

func (c *checker) bindingDeclaredType(b *ast.Binding) *Type {
	if b.Type != nil {
		return c.resolveType(b.Type, map[string]*Type{})
	}
	return c.fresh()
}

// checkBinding checks one binding's initialiser in the current scope and
// returns the symbol the caller binds.
func (c *checker) checkBinding(b *ast.Binding) *Symbol {
	c.level++
	it := c.checkExpr(b.Init)
	c.level--
	if b.Type != nil {
		want := c.resolveType(b.Type, map[string]*Type{})
		if err := c.u.Unify(it, want); err != nil {
			c.errf(b.Span(), "binding %s: %v", b.Name, err)
		}
		it = want
	}
	sch := Mono(it)
	// Value restriction: only generalise immutable lambda bindings.
	if _, isLam := b.Init.(*ast.Lambda); isLam && !b.Mutable {
		sch = c.u.generalize(it, c.level)
	}
	return &Symbol{Name: b.Name, Kind: SymLocal, Scheme: sch, Mutable: b.Mutable, Bind: b.Bind}
}

func (c *checker) checkLambda(e *ast.Lambda) *Type {
	vars := map[string]*Type{}
	m := c.scope.mark()
	pts := make([]*Type, len(e.Params))
	for i, p := range e.Params {
		if p.Type != nil {
			pts[i] = c.resolveType(p.Type, vars)
		} else {
			pts[i] = c.fresh()
		}
		c.scope.bind(&Symbol{Name: p.Name, Kind: SymParam, Scheme: Mono(pts[i]), Bind: p.Bind})
	}
	bodyT := c.checkBody(e.Body)
	c.scope.release(m)
	if e.RetType != nil {
		want := c.resolveType(e.RetType, vars)
		if err := c.u.Unify(bodyT, want); err != nil {
			c.errf(e.Span(), "lambda body: %v", err)
		}
		bodyT = want
	}
	return Fn(pts, bodyT)
}

func (c *checker) checkMakeStruct(e *ast.MakeStruct) *Type {
	si, ok := c.info.Structs[e.Name]
	if !ok {
		c.errf(e.Span(), "unknown struct %s", e.Name)
		for _, f := range e.Fields {
			c.checkExpr(f.Value)
		}
		return c.fresh()
	}
	seen := map[string]bool{}
	for _, f := range e.Fields {
		idx := si.FieldIndex(f.Name)
		vt := c.checkExpr(f.Value)
		if idx < 0 {
			c.errf(f.Value.Span(), "struct %s has no field %s", e.Name, f.Name)
			continue
		}
		if seen[f.Name] {
			c.errf(f.Value.Span(), "field %s initialised twice", f.Name)
			continue
		}
		seen[f.Name] = true
		if err := c.u.Unify(vt, si.Fields[idx].Type); err != nil {
			c.errf(f.Value.Span(), "field %s: %v", f.Name, err)
		}
	}
	for _, f := range si.Fields {
		if !seen[f.Name] {
			c.errf(e.Span(), "struct %s: field %s not initialised", e.Name, f.Name)
		}
	}
	return Struct(si)
}

func (c *checker) structOf(e ast.Expr, what string) *StructInfo {
	t := c.u.find(c.checkExpr(e))
	if t.Kind != KStruct {
		if t.Kind == KVar {
			c.errf(e.Span(), "%s: cannot infer the struct type here; add an annotation", what)
		} else {
			c.errf(e.Span(), "%s: expected a struct, got %s", what, t)
		}
		return nil
	}
	return t.SDecl
}

func (c *checker) checkFieldRef(e *ast.FieldRef) *Type {
	si := c.structOf(e.Expr, "field")
	if si == nil {
		return c.fresh()
	}
	idx := si.FieldIndex(e.Name)
	if idx < 0 {
		c.errf(e.Span(), "struct %s has no field %s", si.Name, e.Name)
		return c.fresh()
	}
	return si.Fields[idx].Type
}

func (c *checker) checkFieldSet(e *ast.FieldSet) *Type {
	si := c.structOf(e.Expr, "set-field!")
	vt := c.checkExpr(e.Value)
	if si == nil {
		return Unit
	}
	idx := si.FieldIndex(e.Name)
	if idx < 0 {
		c.errf(e.Span(), "struct %s has no field %s", si.Name, e.Name)
		return Unit
	}
	if err := c.u.Unify(vt, si.Fields[idx].Type); err != nil {
		c.errf(e.Value.Span(), "set-field! %s: %v", e.Name, err)
	}
	return Unit
}

func (c *checker) checkMakeUnion(e *ast.MakeUnion) *Type {
	cu, ok := c.info.CtorOf[e.Ctor]
	if !ok {
		c.errf(e.Span(), "unknown constructor %s", e.Ctor)
		for _, a := range e.Args {
			c.checkExpr(a)
		}
		return c.fresh()
	}
	if len(e.Args) != len(cu.Arm.Fields) {
		c.errf(e.Span(), "constructor %s takes %d arguments, got %d", e.Ctor, len(cu.Arm.Fields), len(e.Args))
	}
	for i, a := range e.Args {
		at := c.checkExpr(a)
		if i < len(cu.Arm.Fields) {
			if err := c.u.Unify(at, cu.Arm.Fields[i].Type); err != nil {
				c.errf(a.Span(), "constructor %s field %s: %v", e.Ctor, cu.Arm.Fields[i].Name, err)
			}
		}
	}
	return Union(cu.Union)
}

func (c *checker) checkCase(e *ast.Case) *Type {
	scrutT := c.checkExpr(e.Scrut)
	resultT := c.fresh()
	covered := map[string]bool{}
	hasDefault := false
	for _, cl := range e.Clauses {
		m := c.scope.mark()
		c.checkPattern(cl.Pattern, scrutT, covered, &hasDefault)
		bt := c.checkBody(cl.Body)
		c.scope.release(m)
		if err := c.u.Unify(bt, resultT); err != nil {
			c.errf(cl.Span(), "case arms disagree: %v", err)
		}
	}
	// Exhaustiveness.
	st := c.u.find(scrutT)
	if st.Kind == KUnion && !hasDefault {
		var missing []string
		for _, a := range st.UDecl.Arms {
			if !covered[a.Name] {
				missing = append(missing, a.Name)
			}
		}
		if len(missing) > 0 {
			c.errf(e.Span(), "case is not exhaustive: missing %v", missing)
		}
	} else if st.Kind != KUnion && !hasDefault {
		c.diags.Warnf(e.Span(), "case over %s should end with a default (_ ...) clause", st)
	}
	return resultT
}

func (c *checker) checkPattern(p ast.Pattern, scrutT *Type, covered map[string]bool, hasDefault *bool) {
	switch p := p.(type) {
	case *ast.PatWildcard:
		*hasDefault = true
	case *ast.PatVar:
		*hasDefault = true
		c.scope.bind(&Symbol{Name: p.Name, Kind: SymLocal, Scheme: Mono(scrutT), Bind: p.Bind})
	case *ast.PatLit:
		lt := c.checkExpr(p.Lit)
		if err := c.u.Unify(lt, scrutT); err != nil {
			c.errf(p.Span(), "pattern literal: %v", err)
		}
	case *ast.PatCtor:
		cu, ok := c.info.CtorOf[p.Ctor]
		if !ok {
			c.errf(p.Span(), "unknown constructor %s in pattern", p.Ctor)
			return
		}
		c.info.PatCtors[p] = cu
		if err := c.u.Unify(scrutT, Union(cu.Union)); err != nil {
			c.errf(p.Span(), "pattern constructor %s: %v", p.Ctor, err)
			return
		}
		if covered[p.Ctor] {
			c.diags.Warnf(p.Span(), "constructor %s matched more than once", p.Ctor)
		}
		covered[p.Ctor] = true
		if len(p.Args) != len(cu.Arm.Fields) {
			c.errf(p.Span(), "pattern %s needs %d sub-patterns, got %d", p.Ctor, len(cu.Arm.Fields), len(p.Args))
			return
		}
		for i, sub := range p.Args {
			// Nested defaults don't make the whole case exhaustive.
			nestedDefault := false
			c.checkPattern(sub, cu.Arm.Fields[i].Type, map[string]bool{}, &nestedDefault)
		}
	}
}

func (c *checker) checkCast(e *ast.Cast) *Type {
	target := c.resolveType(e.Type, map[string]*Type{})
	src := c.checkExpr(e.Expr)
	if _, ok := e.Expr.(*ast.IntLit); ok {
		// The cast wraps its operand at run time (`(cast uint8 300)` is
		// 44): drop the literal checkExpr just queued for the range check.
		c.lits = c.lits[:len(c.lits)-1]
	}
	ts, tt := c.u.find(src), c.u.find(target)
	if ts.Kind == KVar {
		// Let the cast pin down an unconstrained source (e.g. a literal).
		if err := c.u.Unify(ts, tt); err == nil {
			return target
		}
	}
	ok := false
	switch {
	case ts.Kind == KInt && tt.Kind == KInt,
		ts.Kind == KInt && tt.Kind == KFloat,
		ts.Kind == KFloat && tt.Kind == KInt,
		ts.Kind == KChar && tt.Kind == KInt,
		ts.Kind == KInt && tt.Kind == KChar:
		ok = true
	default:
		ok = c.u.Unify(ts, tt) == nil // identity cast
	}
	if !ok {
		c.errf(e.Span(), "cannot cast %s to %s", ts, tt)
	}
	return target
}
