package ast

import "bitc/internal/source"

// EachExpr calls fn for every expression the parser numbered under d: the
// expressions WalkDef reaches plus the literals of case patterns, which
// WalkDef leaves out.
func EachExpr(d Def, fn func(Expr)) {
	WalkDef(d, func(e Expr) bool {
		fn(e)
		if c, ok := e.(*Case); ok {
			for _, cl := range c.Clauses {
				eachPatLit(cl.Pattern, fn)
			}
		}
		return true
	})
}

func eachPatLit(p Pattern, fn func(Expr)) {
	switch p := p.(type) {
	case *PatLit:
		fn(p.Lit)
	case *PatCtor:
		for _, a := range p.Args {
			eachPatLit(a, fn)
		}
	}
}

// SameHeader reports whether two functions have the same name, the same
// parameters (names and written types), the same written return type and
// the same :pure flag: everything a type checker reads of a function
// before it checks the body and contracts. Spans are ignored.
func SameHeader(a, b *DefineFunc) bool {
	if a.Name != b.Name || a.Pure != b.Pure || len(a.Params) != len(b.Params) || !sameType(a.RetType, b.RetType) {
		return false
	}
	for i, p := range a.Params {
		if p.Name != b.Params[i].Name || !sameType(p.Type, b.Params[i].Type) {
			return false
		}
	}
	return true
}

// sameType reports whether two type expressions (either may be nil) are
// written the same, spans aside.
func sameType(a, b TypeExpr) bool {
	switch a := a.(type) {
	case nil:
		return b == nil
	case *TypeName:
		b, ok := b.(*TypeName)
		return ok && a.Name == b.Name && a.Var == b.Var
	case *TypeApp:
		b, ok := b.(*TypeApp)
		return ok && a.Ctor == b.Ctor && a.Size == b.Size && sameTypes(a.Args, b.Args)
	case *TypeFn:
		b, ok := b.(*TypeFn)
		return ok && sameTypes(a.Params, b.Params) && sameType(a.Result, b.Result)
	case *TypeBitfield:
		b, ok := b.(*TypeBitfield)
		return ok && a.Bits == b.Bits && sameType(a.Base, b.Base)
	}
	return false
}

func sameTypes(a, b []TypeExpr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameType(a[i], b[i]) {
			return false
		}
	}
	return true
}

// ShiftDef returns a deep copy of d with delta added to every span in it
// and every ExprID and binding number kept. d itself is not changed, so a program that holds d
// stays valid; the copy is d as it parses when delta bytes were inserted
// (or, for a negative delta, removed) somewhere before it.
func ShiftDef(d Def, delta source.Pos) Def {
	s := shifter(delta)
	switch d := d.(type) {
	case *DefineFunc:
		c := *d
		c.SpanV = s.span(d.SpanV)
		c.Params = s.params(d.Params)
		c.RetType = s.typ(d.RetType)
		c.Contract = Contract{Requires: s.exprs(d.Contract.Requires), Ensures: s.exprs(d.Contract.Ensures)}
		c.Body = s.exprs(d.Body)
		return &c
	case *DefineVar:
		c := *d
		c.SpanV = s.span(d.SpanV)
		c.Type = s.typ(d.Type)
		c.Init = s.expr(d.Init)
		return &c
	case *DefStruct:
		c := *d
		c.SpanV = s.span(d.SpanV)
		c.Fields = s.fields(d.Fields)
		return &c
	case *DefUnion:
		c := *d
		c.SpanV = s.span(d.SpanV)
		c.Arms = make([]*UnionArm, len(d.Arms))
		for i, a := range d.Arms {
			c.Arms[i] = &UnionArm{SpanV: s.span(a.SpanV), Name: a.Name, Fields: s.fields(a.Fields)}
		}
		return &c
	case *External:
		c := *d
		c.SpanV = s.span(d.SpanV)
		c.Type = s.typ(d.Type)
		return &c
	}
	panic("ast.ShiftDef: unknown definition")
}

// shifter copies nodes, moving their spans by its value.
type shifter source.Pos

func (s shifter) span(sp source.Span) source.Span {
	return source.Span{Start: sp.Start + source.Pos(s), End: sp.End + source.Pos(s)}
}

func (s shifter) params(ps []*Param) []*Param {
	if ps == nil {
		return nil
	}
	out := make([]*Param, len(ps))
	for i, p := range ps {
		out[i] = &Param{SpanV: s.span(p.SpanV), Name: p.Name, Type: s.typ(p.Type), Bind: p.Bind}
	}
	return out
}

func (s shifter) fields(fs []*FieldDef) []*FieldDef {
	if fs == nil {
		return nil
	}
	out := make([]*FieldDef, len(fs))
	for i, f := range fs {
		out[i] = &FieldDef{SpanV: s.span(f.SpanV), Name: f.Name, Type: s.typ(f.Type)}
	}
	return out
}

func (s shifter) typ(t TypeExpr) TypeExpr {
	switch t := t.(type) {
	case nil:
		return nil
	case *TypeName:
		c := *t
		c.SpanV = s.span(t.SpanV)
		return &c
	case *TypeApp:
		c := *t
		c.SpanV = s.span(t.SpanV)
		c.Args = s.types(t.Args)
		return &c
	case *TypeFn:
		return &TypeFn{SpanV: s.span(t.SpanV), Params: s.types(t.Params), Result: s.typ(t.Result)}
	case *TypeBitfield:
		return &TypeBitfield{SpanV: s.span(t.SpanV), Base: s.typ(t.Base), Bits: t.Bits}
	}
	panic("ast.ShiftDef: unknown type expression")
}

func (s shifter) types(ts []TypeExpr) []TypeExpr {
	if ts == nil {
		return nil
	}
	out := make([]TypeExpr, len(ts))
	for i, t := range ts {
		out[i] = s.typ(t)
	}
	return out
}

func (s shifter) exprs(es []Expr) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = s.expr(e)
	}
	return out
}

func (s shifter) expr(e Expr) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *IntLit:
		c := *e
		c.SpanV = s.span(e.SpanV)
		return &c
	case *FloatLit:
		c := *e
		c.SpanV = s.span(e.SpanV)
		return &c
	case *BoolLit:
		c := *e
		c.SpanV = s.span(e.SpanV)
		return &c
	case *CharLit:
		c := *e
		c.SpanV = s.span(e.SpanV)
		return &c
	case *StringLit:
		c := *e
		c.SpanV = s.span(e.SpanV)
		return &c
	case *UnitLit:
		c := *e
		c.SpanV = s.span(e.SpanV)
		return &c
	case *VarRef:
		c := *e
		c.SpanV = s.span(e.SpanV)
		return &c
	case *Call:
		return &Call{SpanV: s.span(e.SpanV), ID: e.ID, Fn: s.expr(e.Fn), Args: s.exprs(e.Args)}
	case *If:
		return &If{SpanV: s.span(e.SpanV), ID: e.ID, Cond: s.expr(e.Cond), Then: s.expr(e.Then), Else: s.expr(e.Else)}
	case *Let:
		c := &Let{SpanV: s.span(e.SpanV), ID: e.ID, Kind: e.Kind, Body: s.exprs(e.Body)}
		if e.Bindings != nil {
			c.Bindings = make([]*Binding, len(e.Bindings))
			for i, b := range e.Bindings {
				c.Bindings[i] = &Binding{SpanV: s.span(b.SpanV), Name: b.Name, Type: s.typ(b.Type), Mutable: b.Mutable, Init: s.expr(b.Init), Bind: b.Bind}
			}
		}
		return c
	case *Lambda:
		return &Lambda{SpanV: s.span(e.SpanV), ID: e.ID, Params: s.params(e.Params), RetType: s.typ(e.RetType), Body: s.exprs(e.Body)}
	case *Begin:
		return &Begin{SpanV: s.span(e.SpanV), ID: e.ID, Body: s.exprs(e.Body)}
	case *Set:
		return &Set{SpanV: s.span(e.SpanV), ID: e.ID, Name: e.Name, Value: s.expr(e.Value)}
	case *While:
		return &While{SpanV: s.span(e.SpanV), ID: e.ID, Cond: s.expr(e.Cond), Invariants: s.exprs(e.Invariants), Body: s.exprs(e.Body)}
	case *DoTimes:
		return &DoTimes{SpanV: s.span(e.SpanV), ID: e.ID, Var: e.Var, Bind: e.Bind, Count: s.expr(e.Count), Body: s.exprs(e.Body)}
	case *MakeStruct:
		c := &MakeStruct{SpanV: s.span(e.SpanV), ID: e.ID, Name: e.Name}
		if e.Fields != nil {
			c.Fields = make([]StructFieldInit, len(e.Fields))
			for i, f := range e.Fields {
				c.Fields[i] = StructFieldInit{Name: f.Name, Value: s.expr(f.Value)}
			}
		}
		return c
	case *FieldRef:
		return &FieldRef{SpanV: s.span(e.SpanV), ID: e.ID, Expr: s.expr(e.Expr), Name: e.Name}
	case *FieldSet:
		return &FieldSet{SpanV: s.span(e.SpanV), ID: e.ID, Expr: s.expr(e.Expr), Name: e.Name, Value: s.expr(e.Value)}
	case *MakeUnion:
		return &MakeUnion{SpanV: s.span(e.SpanV), ID: e.ID, Union: e.Union, Ctor: e.Ctor, Args: s.exprs(e.Args)}
	case *Case:
		c := &Case{SpanV: s.span(e.SpanV), ID: e.ID, Scrut: s.expr(e.Scrut)}
		if e.Clauses != nil {
			c.Clauses = make([]*CaseClause, len(e.Clauses))
			for i, cl := range e.Clauses {
				c.Clauses[i] = &CaseClause{SpanV: s.span(cl.SpanV), Pattern: s.pattern(cl.Pattern), Body: s.exprs(cl.Body)}
			}
		}
		return c
	case *Assert:
		return &Assert{SpanV: s.span(e.SpanV), ID: e.ID, Cond: s.expr(e.Cond)}
	case *Cast:
		return &Cast{SpanV: s.span(e.SpanV), ID: e.ID, Type: s.typ(e.Type), Expr: s.expr(e.Expr)}
	case *WithRegion:
		return &WithRegion{SpanV: s.span(e.SpanV), ID: e.ID, Name: e.Name, Bind: e.Bind, Body: s.exprs(e.Body)}
	case *AllocIn:
		return &AllocIn{SpanV: s.span(e.SpanV), ID: e.ID, Region: e.Region, Expr: s.expr(e.Expr)}
	case *Atomic:
		return &Atomic{SpanV: s.span(e.SpanV), ID: e.ID, Body: s.exprs(e.Body)}
	case *Spawn:
		return &Spawn{SpanV: s.span(e.SpanV), ID: e.ID, Expr: s.expr(e.Expr)}
	case *WithLock:
		return &WithLock{SpanV: s.span(e.SpanV), ID: e.ID, Lock: e.Lock, Body: s.exprs(e.Body)}
	}
	panic("ast.ShiftDef: unknown expression")
}

func (s shifter) pattern(p Pattern) Pattern {
	switch p := p.(type) {
	case *PatWildcard:
		return &PatWildcard{SpanV: s.span(p.SpanV)}
	case *PatVar:
		return &PatVar{SpanV: s.span(p.SpanV), Name: p.Name, Bind: p.Bind}
	case *PatLit:
		return &PatLit{SpanV: s.span(p.SpanV), Lit: s.expr(p.Lit)}
	case *PatCtor:
		c := &PatCtor{SpanV: s.span(p.SpanV), Ctor: p.Ctor}
		if p.Args != nil {
			c.Args = make([]Pattern, len(p.Args))
			for i, a := range p.Args {
				c.Args[i] = s.pattern(a)
			}
		}
		return c
	}
	panic("ast.ShiftDef: unknown pattern")
}
