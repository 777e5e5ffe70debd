// Package verify generates verification conditions from bitc contracts
// (:requires/:ensures), assert forms, and implicit safety obligations
// (division by zero, vector bounds), and discharges them with the prover in
// internal/prover.
//
// This is the reproduction of the paper's challenge 1: "application
// constraint checking" with automated provers over stateful systems code.
// The generator performs forward symbolic execution over the typed AST:
// linear integer values stay symbolic terms, booleans stay formulas, loops
// havoc the variables they assign (sound, incomplete — asserts that depend
// on loop induction need explicit requires).
package verify

import (
	"fmt"

	"bitc/internal/ast"
	"bitc/internal/prover"
	"bitc/internal/source"
	"bitc/internal/types"
)

// Kind classifies a verification condition.
type Kind string

// VC kinds.
const (
	KindAssert   Kind = "assert"
	KindEnsures  Kind = "ensures"
	KindRequires Kind = "requires-at-call"
	KindDivZero  Kind = "div-by-zero"
	KindBounds   Kind = "vector-bounds"
	KindInvar    Kind = "loop-invariant"
)

// VC is one generated verification condition.
type VC struct {
	Func    string
	Kind    Kind
	Span    source.Span
	Desc    string
	Formula prover.Formula

	Result prover.Result
}

// Options tunes generation.
type Options struct {
	CheckDivZero bool
	CheckBounds  bool
}

// DefaultOptions checks everything.
var DefaultOptions = Options{CheckDivZero: true, CheckBounds: true}

// Report aggregates a verification run.
type Report struct {
	VCs     []VC
	Proved  int
	Failed  int
	Skipped int // conditions outside the linear fragment (reported, not silently dropped)
}

// Program verifies every function in a checked program.
func Program(prog *ast.Program, info *types.Info, opts Options) *Report {
	rep, _ := program(prog, info, opts)
	return rep
}

// program is Program plus its work counter: the contract-table entries
// built and the expressions evaluated.
func program(prog *ast.Program, info *types.Info, opts Options) (*Report, int) {
	rep := &Report{}
	contracts := funcContracts(info)
	work := len(contracts)
	for _, d := range prog.Defs {
		if fn, ok := d.(*ast.DefineFunc); ok {
			work += verifyFunc(fn, info, opts, rep, contracts)
		}
	}
	return rep, work
}

// Function verifies a single function.
func Function(fn *ast.DefineFunc, info *types.Info, opts Options) *Report {
	rep := &Report{}
	verifyFunc(fn, info, opts, rep, funcContracts(info))
	return rep
}

// funcContracts indexes the program's functions by name, for the
// contracts a call site checks and assumes.
func funcContracts(info *types.Info) map[string]*ast.DefineFunc {
	m := make(map[string]*ast.DefineFunc, len(info.FuncDecls))
	for _, d := range info.FuncDecls {
		m[d.Name] = d
	}
	return m
}

// Summary renders a one-line result.
func (r *Report) Summary() string {
	return fmt.Sprintf("%d VCs: %d proved, %d failed, %d outside fragment",
		len(r.VCs), r.Proved, r.Failed, r.Skipped)
}

// ---------------------------------------------------------------------------
// Symbolic state
// ---------------------------------------------------------------------------

// symval is the symbolic value of an expression: a linear term, a boolean
// formula, or opaque (nil/nil). Vectors additionally track a symbolic length.
type symval struct {
	term   *prover.Term
	form   prover.Formula
	vecLen *prover.Term
}

func termOf(t prover.Term) symval { return symval{term: &t} }
func formOf(f prover.Formula) symval {
	return symval{form: f}
}

// vstate is the symbolic state of one function activation. vars is keyed
// by binding number, so a binding and the one it shadows never share an
// entry.
type vstate struct {
	vars map[int32]symval
	// fields tracks the symbolic value of struct fields addressed through a
	// variable (s.top). Entries are invalidated conservatively: any field
	// write clears every other entry (aliasing), and calls, loops, spawns,
	// and transactions clear the whole map (unknown mutation).
	fields map[fieldKey]symval
	// facts are assumptions valid on the current path (requires + branch
	// conditions + definition equalities).
	facts []prover.Formula
}

// fieldKey names a struct field read through a variable: a local by its
// binding number, or a global (bind 0) by its name.
type fieldKey struct {
	bind   int32
	global string
	field  string
}

func newVstate() *vstate {
	return &vstate{vars: map[int32]symval{}, fields: map[fieldKey]symval{}}
}

func (s *vstate) clone() *vstate {
	n := newVstate()
	for k, v := range s.vars {
		n.vars[k] = v
	}
	for k, v := range s.fields {
		n.fields[k] = v
	}
	n.facts = append([]prover.Formula{}, s.facts...)
	return n
}

// forgetHeap drops all field knowledge (call boundaries, loops, effects).
func (s *vstate) forgetHeap() {
	s.fields = map[fieldKey]symval{}
}

type verifier struct {
	info  *types.Info
	opts  Options
	rep   *Report
	fn    *ast.DefineFunc
	fresh int
	evals int // expressions evaluated, for the work counter

	funcContracts map[string]*ast.DefineFunc
}

func (v *verifier) freshVar(hint string) prover.Term {
	v.fresh++
	return prover.VarTerm(fmt.Sprintf("%%%s%d", hint, v.fresh))
}

// verifyFunc verifies fn into rep and returns the expressions it evaluated.
func verifyFunc(fn *ast.DefineFunc, info *types.Info, opts Options, rep *Report, contracts map[string]*ast.DefineFunc) int {
	v := &verifier{info: info, opts: opts, rep: rep, fn: fn, funcContracts: contracts}
	st := newVstate()
	for _, p := range fn.Params {
		st.vars[p.Bind] = v.initialValue(p.Name, p.Type)
	}
	for _, req := range fn.Contract.Requires {
		if f := v.evalBool(req, st); f != nil {
			st.facts = append(st.facts, f)
		}
	}
	var result symval
	for _, e := range fn.Body {
		result = v.eval(e, st)
	}
	if len(fn.Contract.Ensures) > 0 {
		post := st.clone()
		if result.term != nil || result.form != nil {
			post.vars[fn.ResultBind] = result
		} else {
			post.vars[fn.ResultBind] = termOf(v.freshVar("result"))
		}
		for _, ens := range fn.Contract.Ensures {
			f := v.evalBool(ens, post)
			if f == nil {
				v.skip()
				continue
			}
			v.check(KindEnsures, ens.Span(), "ensures "+ast.Print(ens), post, f)
		}
	}
	return v.evals
}

func (v *verifier) initialValue(name string, te ast.TypeExpr) symval {
	// Parameters become symbolic variables; booleans become boolean vars.
	if tn, ok := te.(*ast.TypeName); ok && tn.Name == "bool" && !tn.Var {
		return formOf(prover.FBoolVar{Name: name})
	}
	return termOf(prover.VarTerm(name))
}

func (v *verifier) skip() { v.rep.Skipped++ }

// check discharges pathFacts → goal.
func (v *verifier) check(kind Kind, span source.Span, desc string, st *vstate, goal prover.Formula) {
	vc := VC{
		Func: v.fn.Name, Kind: kind, Span: span, Desc: desc,
		Formula: prover.Implies(prover.And(st.facts...), goal),
	}
	vc.Result = prover.Prove(vc.Formula)
	if vc.Result.Proved {
		v.rep.Proved++
	} else {
		v.rep.Failed++
	}
	v.rep.VCs = append(v.rep.VCs, vc)
}

// evalBool evaluates e to a formula, or nil when outside the fragment.
func (v *verifier) evalBool(e ast.Expr, st *vstate) prover.Formula {
	sv := v.eval(e, st)
	return sv.form
}

// eval symbolically evaluates e, updating st for side effects.
func (v *verifier) eval(e ast.Expr, st *vstate) symval {
	v.evals++
	switch e := e.(type) {
	case *ast.IntLit:
		return termOf(prover.NewTerm(e.Value))
	case *ast.CharLit:
		return termOf(prover.NewTerm(int64(e.Value)))
	case *ast.BoolLit:
		if e.Value {
			return formOf(prover.FTrue{})
		}
		return formOf(prover.FFalse{})
	case *ast.VarRef:
		if n := v.info.Bind(e); n != 0 {
			return st.vars[n]
		}
		return symval{}
	case *ast.Call:
		return v.evalCall(e, st)
	case *ast.If:
		return v.evalIf(e, st)
	case *ast.Let:
		return v.evalLet(e, st)
	case *ast.Begin:
		var last symval
		for _, b := range e.Body {
			last = v.eval(b, st)
		}
		return last
	case *ast.Set:
		val := v.eval(e.Value, st)
		st.vars[v.info.Target(e)] = val
		return symval{}
	case *ast.Assert:
		f := v.evalBool(e.Cond, st)
		if f == nil {
			v.skip()
			return symval{}
		}
		v.check(KindAssert, e.Span(), "assert "+ast.Print(e.Cond), st, f)
		// Downstream code may assume the assertion.
		st.facts = append(st.facts, f)
		return symval{}
	case *ast.While:
		// Loop invariants, the standard three obligations:
		//   (1) each invariant holds on entry;
		//   (2) assuming the invariants and the condition on an arbitrary
		//       (havoced) state, the body re-establishes the invariants;
		//   (3) after the loop, the invariants plus ¬condition may be assumed.
		for _, inv := range e.Invariants {
			f := v.evalBool(inv, st)
			if f == nil {
				v.skip()
				continue
			}
			v.check(KindInvar, inv.Span(), "invariant on entry: "+ast.Print(inv), st, f)
		}
		v.havocLoop(e.Body, st)

		inner := st.clone()
		for _, inv := range e.Invariants {
			if f := v.evalBool(inv, inner); f != nil {
				inner.facts = append(inner.facts, f)
			}
		}
		if c := v.evalBool(e.Cond, inner); c != nil {
			inner.facts = append(inner.facts, c)
		}
		for _, b := range e.Body {
			v.eval(b, inner)
		}
		for _, inv := range e.Invariants {
			f := v.evalBool(inv, inner)
			if f == nil {
				v.skip()
				continue
			}
			v.check(KindInvar, inv.Span(), "invariant preserved: "+ast.Print(inv), inner, f)
		}

		for _, inv := range e.Invariants {
			if f := v.evalBool(inv, st); f != nil {
				st.facts = append(st.facts, f)
			}
		}
		// After the loop the condition is false (if expressible).
		if c := v.evalBool(e.Cond, st); c != nil {
			st.facts = append(st.facts, prover.Not(c))
		}
		return symval{}
	case *ast.DoTimes:
		v.havocLoop(e.Body, st)
		inner := st.clone()
		iv := v.freshVar("i")
		inner.vars[e.Bind] = termOf(iv)
		if n := v.eval(e.Count, inner); n.term != nil {
			inner.facts = append(inner.facts,
				prover.Ge(iv, prover.NewTerm(0)), prover.Lt(iv, *n.term))
		} else {
			inner.facts = append(inner.facts, prover.Ge(iv, prover.NewTerm(0)))
		}
		for _, b := range e.Body {
			v.eval(b, inner)
		}
		return symval{}
	case *ast.Cast:
		// Casts are havoc for the verifier unless widening (conservative).
		inner := v.eval(e.Expr, st)
		return inner
	case *ast.Case:
		// Verify each arm under no extra constraints (tags are opaque).
		for _, cl := range e.Clauses {
			arm := st.clone()
			if p, ok := cl.Pattern.(*ast.PatVar); ok {
				arm.vars[p.Bind] = symval{}
			}
			if p, ok := cl.Pattern.(*ast.PatCtor); ok {
				for _, sub := range p.Args {
					if pv, ok := sub.(*ast.PatVar); ok {
						arm.vars[pv.Bind] = termOf(v.freshVar(pv.Name))
					}
				}
			}
			for _, b := range cl.Body {
				v.eval(b, arm)
			}
		}
		return symval{}
	case *ast.FieldRef:
		v.eval(e.Expr, st)
		if base, ok := e.Expr.(*ast.VarRef); ok {
			key := v.fieldKey(base, e.Name)
			if sv, ok := st.fields[key]; ok {
				return sv
			}
			// First read: give the location a stable symbolic name so two
			// reads without an intervening write are equal.
			sv := termOf(v.freshVar("fld_" + e.Name))
			st.fields[key] = sv
			return sv
		}
		return symval{}
	case *ast.FieldSet:
		v.eval(e.Expr, st)
		val := v.eval(e.Value, st)
		// Any heap write may alias any tracked location: forget everything,
		// then record the one path we know.
		st.forgetHeap()
		if base, ok := e.Expr.(*ast.VarRef); ok {
			st.fields[v.fieldKey(base, e.Name)] = val
		}
		return symval{}
	case *ast.MakeStruct:
		for _, f := range e.Fields {
			v.eval(f.Value, st)
		}
		return symval{}
	case *ast.MakeUnion:
		for _, a := range e.Args {
			v.eval(a, st)
		}
		return symval{}
	case *ast.WithRegion:
		var last symval
		for _, b := range e.Body {
			last = v.eval(b, st)
		}
		return last
	case *ast.AllocIn:
		return v.eval(e.Expr, st)
	case *ast.Atomic:
		st.forgetHeap() // concurrent writers may have run before entry
		var last symval
		for _, b := range e.Body {
			last = v.eval(b, st)
		}
		return last
	case *ast.WithLock:
		st.forgetHeap()
		var last symval
		for _, b := range e.Body {
			last = v.eval(b, st)
		}
		return last
	case *ast.Spawn:
		v.eval(e.Expr, st)
		st.forgetHeap()
		return symval{}
	case *ast.Lambda:
		return symval{} // opaque
	default:
		return symval{}
	}
}

// fieldKey names field of the struct base holds.
func (v *verifier) fieldKey(base *ast.VarRef, field string) fieldKey {
	if n := v.info.Bind(base); n != 0 {
		return fieldKey{bind: n, field: field}
	}
	return fieldKey{global: base.Name, field: field}
}

// havocLoop forgets every variable the loop body assigns, and all heap
// field knowledge (the body may write through any alias).
func (v *verifier) havocLoop(body []ast.Expr, st *vstate) {
	st.forgetHeap()
	for _, b := range body {
		ast.Walk(b, func(e ast.Expr) bool {
			if s, ok := e.(*ast.Set); ok {
				n := v.info.Target(s)
				if old, exists := st.vars[n]; exists {
					if old.form != nil {
						st.vars[n] = formOf(prover.FBoolVar{Name: fmt.Sprintf("%%havoc%d", v.freshID())})
					} else {
						st.vars[n] = termOf(v.freshVar("havoc_" + s.Name))
					}
				}
			}
			return true
		})
	}
}

func (v *verifier) freshID() int {
	v.fresh++
	return v.fresh
}

func (v *verifier) evalIf(e *ast.If, st *vstate) symval {
	cond := v.evalBool(e.Cond, st)
	thenSt := st.clone()
	elseSt := st.clone()
	if cond != nil {
		thenSt.facts = append(thenSt.facts, cond)
		elseSt.facts = append(elseSt.facts, prover.Not(cond))
	}
	thenV := v.eval(e.Then, thenSt)
	var elseV symval
	if e.Else != nil {
		elseV = v.eval(e.Else, elseSt)
	}
	// Merge: result is a fresh variable constrained per branch when both
	// sides are terms and the condition is expressible.
	if cond != nil && thenV.term != nil && (e.Else == nil || elseV.term != nil) {
		r := v.freshVar("ite")
		st.facts = append(st.facts, prover.Implies(cond, prover.Eq(r, *thenV.term)))
		if elseV.term != nil {
			st.facts = append(st.facts, prover.Implies(prover.Not(cond), prover.Eq(r, *elseV.term)))
		}
		return termOf(r)
	}
	if cond != nil && thenV.form != nil && (e.Else == nil || elseV.form != nil) {
		elseF := elseV.form
		if elseF == nil {
			elseF = prover.FFalse{}
		}
		return formOf(prover.Or(prover.And(cond, thenV.form), prover.And(prover.Not(cond), elseF)))
	}
	return symval{}
}

func (v *verifier) evalLet(e *ast.Let, st *vstate) symval {
	for _, b := range e.Bindings {
		val := v.eval(b.Init, st)
		// Name the value so later facts can refer to it even through set!.
		if val.term != nil {
			nv := v.freshVar(b.Name)
			st.facts = append(st.facts, prover.Eq(nv, *val.term))
			val2 := val
			val2.term = &nv
			st.vars[b.Bind] = val2
		} else {
			st.vars[b.Bind] = val
		}
	}
	var last symval
	for _, b := range e.Body {
		last = v.eval(b, st)
	}
	return last
}

var cmpCtors = map[string]func(a, b prover.Term) prover.Formula{
	"<":  prover.Lt,
	"<=": prover.Le,
	">":  prover.Gt,
	">=": prover.Ge,
	"=":  prover.Eq,
	"!=": prover.Ne,
}

func (v *verifier) evalCall(e *ast.Call, st *vstate) symval {
	head, _ := e.Fn.(*ast.VarRef)
	name := ""
	if head != nil {
		name = v.info.Builtin(head)
	}

	// Comparison and boolean operators.
	if mk, ok := cmpCtors[name]; ok && len(e.Args) == 2 {
		a := v.eval(e.Args[0], st)
		b := v.eval(e.Args[1], st)
		if a.term != nil && b.term != nil {
			return formOf(mk(*a.term, *b.term))
		}
		if a.form != nil && b.form != nil && (name == "=" || name == "!=") {
			iff := prover.And(prover.Implies(a.form, b.form), prover.Implies(b.form, a.form))
			if name == "=" {
				return formOf(iff)
			}
			return formOf(prover.Not(iff))
		}
		return symval{}
	}
	switch name {
	case "and", "or":
		var fs []prover.Formula
		for _, arg := range e.Args {
			f := v.evalBool(arg, st)
			if f == nil {
				return symval{}
			}
			fs = append(fs, f)
		}
		if name == "and" {
			return formOf(prover.And(fs...))
		}
		return formOf(prover.Or(fs...))
	case "not":
		if f := v.evalBool(e.Args[0], st); f != nil {
			return formOf(prover.Not(f))
		}
		return symval{}
	case "+", "-":
		a := v.eval(e.Args[0], st)
		b := v.eval(e.Args[1], st)
		if a.term != nil && b.term != nil {
			if name == "+" {
				return termOf(a.term.Add(*b.term))
			}
			return termOf(a.term.Sub(*b.term))
		}
		return symval{}
	case "*":
		a := v.eval(e.Args[0], st)
		b := v.eval(e.Args[1], st)
		if a.term != nil && b.term != nil {
			if a.term.IsConst() {
				return termOf(b.term.Scale(a.term.Const))
			}
			if b.term.IsConst() {
				return termOf(a.term.Scale(b.term.Const))
			}
		}
		return symval{} // non-linear: opaque
	case "/", "mod":
		a := v.eval(e.Args[0], st)
		b := v.eval(e.Args[1], st)
		_ = a
		if v.opts.CheckDivZero {
			if b.term != nil {
				v.check(KindDivZero, e.Span(), "divisor of "+ast.Print(e)+" is non-zero",
					st, prover.Ne(*b.term, prover.NewTerm(0)))
			} else {
				v.skip()
			}
		}
		return symval{} // division is outside the linear fragment
	case "min", "max":
		a := v.eval(e.Args[0], st)
		b := v.eval(e.Args[1], st)
		if a.term != nil && b.term != nil {
			r := v.freshVar(name)
			lo, hi := *a.term, *b.term
			// r is one of the two and bounded by both.
			st.facts = append(st.facts,
				prover.Or(prover.Eq(r, lo), prover.Eq(r, hi)))
			if name == "min" {
				st.facts = append(st.facts, prover.Le(r, lo), prover.Le(r, hi))
			} else {
				st.facts = append(st.facts, prover.Ge(r, lo), prover.Ge(r, hi))
			}
			return termOf(r)
		}
		return symval{}
	case "make-vector":
		n := v.eval(e.Args[0], st)
		v.eval(e.Args[1], st)
		sv := symval{term: nil, vecLen: n.term}
		r := v.freshVar("vec")
		sv.term = &r // identity handle; not used arithmetically
		return sv
	case "vector":
		for _, a := range e.Args {
			v.eval(a, st)
		}
		ln := prover.NewTerm(int64(len(e.Args)))
		r := v.freshVar("vec")
		return symval{term: &r, vecLen: &ln}
	case "vector-length":
		a := v.eval(e.Args[0], st)
		if a.vecLen != nil {
			return termOf(*a.vecLen)
		}
		return termOf(v.freshVar("len"))
	case "vector-ref", "vector-set!":
		vec := v.eval(e.Args[0], st)
		idx := v.eval(e.Args[1], st)
		if name == "vector-set!" {
			v.eval(e.Args[2], st)
		}
		if v.opts.CheckBounds {
			if idx.term != nil && vec.vecLen != nil {
				goal := prover.And(
					prover.Ge(*idx.term, prover.NewTerm(0)),
					prover.Lt(*idx.term, *vec.vecLen))
				v.check(KindBounds, e.Span(), "index of "+ast.Print(e)+" in bounds", st, goal)
			} else {
				v.skip()
			}
		}
		return symval{}
	}

	// User function: check its requires at this call site; assume its
	// ensures about a fresh result. The callee may mutate any reachable
	// struct, so field knowledge dies here. Its contracts are evaluated in
	// a state of its own binding numbers: the arguments, the caller's path
	// facts, and what the caller knows of the fields of globals and of
	// each argument passed as a variable.
	var callee *ast.DefineFunc
	if head != nil {
		if sym := v.info.Use(head); sym != nil && sym.Kind == types.SymFunc {
			callee = v.funcContracts[head.Name]
		}
	}
	if callee != nil {
		name := head.Name
		defer st.forgetHeap()
		args := make([]symval, len(e.Args))
		for i, a := range e.Args {
			args[i] = v.eval(a, st)
		}
		bind := func() *vstate {
			cs := newVstate()
			cs.facts = append(cs.facts, st.facts...)
			for k, f := range st.fields {
				if k.bind == 0 {
					cs.fields[k] = f
				}
			}
			for i, p := range callee.Params {
				if i >= len(args) {
					break
				}
				cs.vars[p.Bind] = args[i]
				if a, ok := e.Args[i].(*ast.VarRef); ok {
					for k, f := range st.fields {
						if k == v.fieldKey(a, k.field) {
							cs.fields[fieldKey{bind: p.Bind, field: k.field}] = f
						}
					}
				}
			}
			return cs
		}
		for _, req := range callee.Contract.Requires {
			cs := bind()
			f := v.evalBool(req, cs)
			if f == nil {
				v.skip()
				continue
			}
			v.check(KindRequires, e.Span(),
				fmt.Sprintf("call %s satisfies requires %s", name, ast.Print(req)), st, f)
		}
		result := termOf(v.freshVar("call_" + name))
		if len(callee.Contract.Ensures) > 0 {
			cs := bind()
			cs.vars[callee.ResultBind] = result
			for _, ens := range callee.Contract.Ensures {
				if f := v.evalBool(ens, cs); f != nil {
					st.facts = append(st.facts, f)
				}
			}
		}
		return result
	}

	for _, a := range e.Args {
		v.eval(a, st)
	}
	return symval{}
}
