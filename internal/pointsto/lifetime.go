package pointsto

import (
	"fmt"
	"slices"
	"sort"

	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/dataflow"
	"bitc/internal/source"
	"bitc/internal/types"
)

// Region lifetime checking on top of the points-to results.
//
// Two passes share the abstract objects:
//
//   - Escape detection (may-analysis, flow-insensitive): a region object
//     reaching a sink that outlives the region's dynamic extent — the
//     function result, a global, a channel, a longer-lived object's field,
//     a variable declared outside the region, code that may retain its
//     argument, or a spawned thread — may outlive its region.
//
//   - Use-after-exit detection (must-analysis, flow-sensitive): a forward
//     dataflow pass over each function's CFG tracks which regions have
//     definitely ended and what each local may point to; dereferencing a
//     reference whose every target lives in an ended region is the static
//     twin of the VM's "use of region-allocated object after its region
//     exited" trap, which fires at field and vector/channel operations,
//     not at reference copies.

// Escape says a region allocation may outlive its region.
type Escape struct {
	Span   source.Span // the escape site
	Region string      // source-level region name
	Fn     string      // function whose code performs the escape
	Reason string
	Alloc  *Object // the escaping allocation site
}

// String renders the escape for logs and tests.
func (e Escape) String() string {
	return fmt.Sprintf("%s: value from region %s may escape: %s", e.Fn, e.Region, e.Reason)
}

// UseAfterExit says a dereference happens strictly after the region
// holding every possible target has exited.
type UseAfterExit struct {
	Span   source.Span // the dereference site
	Region string      // source-level region name
	Fn     string      // function containing the use
	Alloc  *Object     // the dead allocation site
}

// Lifetime is the combined report of both passes, in deterministic order.
type Lifetime struct {
	Escapes []Escape
	Uses    []UseAfterExit
}

// CheckLifetimes runs both region-lifetime passes over every function of
// an analyzed program.
func CheckLifetimes(prog *ast.Program, info *types.Info, r *Result) *Lifetime {
	lt := &Lifetime{}
	for _, d := range prog.Defs {
		fn, ok := d.(*ast.DefineFunc)
		if !ok {
			continue
		}
		checkFuncLifetimes(info, r, fn, lt)
	}
	lt.sort()
	return lt
}

// CheckFuncLifetimes runs both region-lifetime passes over a single
// function, for per-function (incremental) drivers. The escapes and uses
// it reports are exactly the subset of CheckLifetimes attributed to fn;
// r must cover fn's points-to flow component.
func CheckFuncLifetimes(info *types.Info, r *Result, fn *ast.DefineFunc) *Lifetime {
	lt := &Lifetime{}
	checkFuncLifetimes(info, r, fn, lt)
	lt.sort()
	return lt
}

func checkFuncLifetimes(info *types.Info, r *Result, fn *ast.DefineFunc, lt *Lifetime) {
	g := r.graphs[fn.Name]
	if g == nil {
		return
	}
	w := &escWalker{
		r: r, info: info, fn: fn.Name, g: g,
		declOpen: map[int32][]int32{},
		seen:     map[string]bool{},
		out:      lt,
	}
	for _, e := range fn.Body {
		w.walk(e)
	}
	w.checkReturn(fn)
	checkUses(info, r, fn, g, lt)
}

func (lt *Lifetime) sort() {
	sort.SliceStable(lt.Escapes, func(i, j int) bool {
		a, b := lt.Escapes[i], lt.Escapes[j]
		if a.Span.Start != b.Span.Start {
			return a.Span.Start < b.Span.Start
		}
		return a.Reason < b.Reason
	})
	sort.SliceStable(lt.Uses, func(i, j int) bool {
		return lt.Uses[i].Span.Start < lt.Uses[j].Span.Start
	})
}

// ---------------------------------------------------------------------------
// Escape detection
// ---------------------------------------------------------------------------

type escWalker struct {
	r    *Result
	info *types.Info
	fn   string
	g    *cfg.Graph
	out  *Lifetime

	open []int32 // stack of open regions, by binding number
	// declOpen records, per local, the regions open at its declaration: a
	// store into the local escapes any region the local predates.
	declOpen map[int32][]int32
	inSpawn  int
	seen     map[string]bool
}

func (w *escWalker) report(span source.Span, o *Object, format string, args ...any) {
	reason := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d|%d|%s", span.Start, o.ID, reason)
	if w.seen[key] {
		return
	}
	w.seen[key] = true
	w.out.Escapes = append(w.out.Escapes, Escape{
		Span: span, Region: o.RegionSrc, Fn: w.fn, Reason: reason, Alloc: o,
	})
}

// regionObjs filters a points-to set down to region allocations.
func regionObjs(objs []*Object) []*Object {
	var out []*Object
	for _, o := range objs {
		if o.Region != 0 {
			out = append(out, o)
		}
	}
	return out
}

// encloses reports whether region outer is an ancestor of (or equal to)
// region inner, both binding numbers in the same function's graph — in
// which case inner's extent ends no later than outer's.
func (w *escWalker) encloses(g *cfg.Graph, outer, inner int32) bool {
	for cur := inner; cur != 0; cur = g.Decls[cur].Parent {
		if cur == outer {
			return true
		}
	}
	return false
}

func (w *escWalker) snapshot() []int32 {
	return append([]int32(nil), w.open...)
}

func (w *escWalker) walk(e ast.Expr) {
	switch e := e.(type) {
	case *ast.WithRegion:
		w.open = append(w.open, e.Bind)
		for _, s := range e.Body {
			w.walk(s)
		}
		w.open = w.open[:len(w.open)-1]

	case *ast.Let:
		for _, bind := range e.Bindings {
			w.walk(bind.Init)
		}
		for _, bind := range e.Bindings {
			w.declOpen[bind.Bind] = w.snapshot()
		}
		for _, s := range e.Body {
			w.walk(s)
		}

	case *ast.Set:
		w.walk(e.Value)
		w.checkAssign(e)

	case *ast.FieldSet:
		w.walk(e.Expr)
		w.walk(e.Value)
		w.checkStore(e.Expr, e.Value, e.Span())

	case *ast.Call:
		w.checkCall(e)

	case *ast.Spawn:
		w.inSpawn++
		w.walk(e.Expr)
		w.inSpawn--

	case *ast.VarRef:
		if w.inSpawn > 0 && w.g.Var(e) != 0 {
			for _, o := range regionObjs(w.r.ExprObjects(e)) {
				w.report(e.Span(), o, "captured by a spawned thread")
			}
		}

	case *ast.Case:
		w.walk(e.Scrut)
		for _, cl := range e.Clauses {
			w.declPattern(cl.Pattern)
			for _, s := range cl.Body {
				w.walk(s)
			}
		}

	default:
		ast.Walk(e, func(sub ast.Expr) bool {
			if sub == e {
				return true
			}
			w.walk(sub)
			return false
		})
	}
}

func (w *escWalker) declPattern(p ast.Pattern) {
	switch p := p.(type) {
	case *ast.PatVar:
		w.declOpen[p.Bind] = w.snapshot()
	case *ast.PatCtor:
		for _, a := range p.Args {
			w.declPattern(a)
		}
	}
}

// checkAssign flags set! targets that outlive the stored value's region:
// locals declared before the region was entered, and globals.
func (w *escWalker) checkAssign(e *ast.Set) {
	objs := regionObjs(w.r.ExprObjects(e.Value))
	if len(objs) == 0 {
		return
	}
	if t := w.g.Target(e); t != 0 {
		openAtDecl := w.declOpen[t]
		for _, o := range objs {
			// Locals of other functions live at most as long as this
			// frame, which a caller-owned region always outlives.
			if o.Fn == w.fn && !slices.Contains(openAtDecl, o.Region) {
				w.report(e.Span(), o, "assigned to %s which may outlive the region", e.Name)
			}
		}
		return
	}
	if _, ok := w.info.Globals[e.Name]; ok {
		for _, o := range objs {
			w.report(e.Span(), o, "assigned to global %s which outlives the region", e.Name)
		}
	}
}

// checkStore flags stores of a region value into an object whose own
// lifetime may exceed the region: the heap, a global, or an enclosing
// region. Storing into the same region (or one nested inside it) is fine.
func (w *escWalker) checkStore(base, value ast.Expr, span source.Span) {
	vObjs := regionObjs(w.r.ExprObjects(value))
	if len(vObjs) == 0 {
		return
	}
	bObjs := w.r.ExprObjects(base)
	for _, o := range vObjs {
		g := w.r.graphs[o.Fn]
		safe := len(bObjs) > 0 && g != nil
		for _, bo := range bObjs {
			if !(bo.Region != 0 && bo.Fn == o.Fn && w.encloses(g, o.Region, bo.Region)) {
				safe = false
				break
			}
		}
		if !safe {
			w.report(span, o, "stored into an object outside the region")
		}
	}
}

func (w *escWalker) checkCall(e *ast.Call) {
	v, _ := e.Fn.(*ast.VarRef)
	var sym *types.Symbol
	op := ""
	name := "a function value"
	if v != nil {
		sym = w.info.Use(v)
		op = w.info.Builtin(v)
		name = v.Name
	}

	switch {
	case sym != nil && (sym.Kind == types.SymFunc || sym.Kind == types.SymCtor):
		// Defined functions are handled interprocedurally: their own
		// sinks fire on the caller's objects. Constructors just wrap.
		w.walk(e.Fn)
		for _, a := range e.Args {
			w.walk(a)
		}

	case op != "":
		switch {
		case op == "send":
			for _, a := range e.Args {
				w.walk(a)
			}
			if len(e.Args) == 2 {
				for _, o := range regionObjs(w.r.ExprObjects(e.Args[1])) {
					w.report(e.Span(), o, "sent on a channel")
				}
			}
		case op == "vector-set!":
			for _, a := range e.Args {
				w.walk(a)
			}
			if len(e.Args) == 3 {
				w.checkStore(e.Args[0], e.Args[2], e.Span())
			}
		case retainSafeBuiltin(op):
			for _, a := range e.Args {
				w.walk(a)
			}
		default:
			for _, a := range e.Args {
				w.walk(a)
				for _, o := range regionObjs(w.r.ExprObjects(a)) {
					w.report(a.Span(), o, "passed to %s which may retain it", name)
				}
			}
		}

	default:
		// Externals and calls through closure values may retain.
		w.walk(e.Fn)
		for _, a := range e.Args {
			w.walk(a)
			for _, o := range regionObjs(w.r.ExprObjects(a)) {
				w.report(a.Span(), o, "passed to %s which may retain it", name)
			}
		}
	}
}

// retainSafeBuiltin lists builtins that never retain a reference argument
// beyond the call (reads and allocation forms included).
func retainSafeBuiltin(name string) bool {
	if scalarBuiltin[name] {
		return true
	}
	switch name {
	case "field", "vector-ref", "recv", "print", "println",
		"vector", "make-vector", "make-chan", "uniontag":
		return true
	}
	return false
}

// checkReturn reports region objects flowing out through the function's
// result, attributed to the deepest result expression that carries them.
func (w *escWalker) checkReturn(fn *ast.DefineFunc) {
	if len(fn.Body) == 0 {
		return
	}
	tail := fn.Body[len(fn.Body)-1]
	for _, o := range regionObjs(w.r.RetObjects(fn.Name)) {
		if o.Fn != fn.Name {
			// A parameter-received object returned to the caller stays
			// within its region's extent (the caller's frame is alive).
			continue
		}
		site := deepestTail(tail, func(e ast.Expr) bool {
			for _, x := range w.r.ExprObjects(e) {
				if x == o {
					return true
				}
			}
			return false
		})
		if site != nil {
			w.report(site.Span(), o, "returned as the function result")
		}
	}
}

// deepestTail descends through result positions to the smallest expression
// satisfying has, or nil when even e does not.
func deepestTail(e ast.Expr, has func(ast.Expr) bool) ast.Expr {
	if e == nil || !has(e) {
		return nil
	}
	for _, t := range tailChildren(e) {
		if s := deepestTail(t, has); s != nil {
			return s
		}
	}
	return e
}

func tailChildren(e ast.Expr) []ast.Expr {
	switch e := e.(type) {
	case *ast.If:
		return []ast.Expr{e.Then, e.Else}
	case *ast.Let:
		if len(e.Body) > 0 {
			return []ast.Expr{e.Body[len(e.Body)-1]}
		}
	case *ast.Begin:
		if len(e.Body) > 0 {
			return []ast.Expr{e.Body[len(e.Body)-1]}
		}
	case *ast.WithRegion:
		if len(e.Body) > 0 {
			return []ast.Expr{e.Body[len(e.Body)-1]}
		}
	case *ast.Atomic:
		if len(e.Body) > 0 {
			return []ast.Expr{e.Body[len(e.Body)-1]}
		}
	case *ast.WithLock:
		if len(e.Body) > 0 {
			return []ast.Expr{e.Body[len(e.Body)-1]}
		}
	case *ast.AllocIn:
		return []ast.Expr{e.Expr}
	case *ast.Cast:
		return []ast.Expr{e.Expr}
	case *ast.Case:
		var out []ast.Expr
		for _, cl := range e.Clauses {
			if len(cl.Body) > 0 {
				out = append(out, cl.Body[len(cl.Body)-1])
			}
		}
		return out
	}
	return nil
}

// ---------------------------------------------------------------------------
// Use-after-exit detection (flow-sensitive)
// ---------------------------------------------------------------------------

type objset map[int]bool

func (s objset) clone() objset {
	out := make(objset, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// lifeFact is the flow-sensitive lattice element: the regions that have
// definitely ended on every path (must, meet = intersection) and what each
// local may point to (may, meet = union).
type lifeFact struct {
	ended dataflow.VarSet
	env   map[int32]objset
}

func (f lifeFact) clone() lifeFact {
	env := make(map[int32]objset, len(f.env))
	for k, v := range f.env {
		env[k] = v
	}
	return lifeFact{ended: f.ended.Clone(), env: env}
}

type lifeProblem struct {
	r        *Result
	fn       string
	g        *cfg.Graph
	universe dataflow.VarSet
}

func newLifeProblem(r *Result, fn string, g *cfg.Graph) *lifeProblem {
	universe := dataflow.VarSet{}
	for _, d := range g.Decls {
		if d != nil && d.Kind == cfg.DeclRegion {
			universe[d.Bind] = struct{}{}
		}
	}
	return &lifeProblem{r: r, fn: fn, g: g, universe: universe}
}

func (p *lifeProblem) Direction() dataflow.Direction { return dataflow.Forward }
func (p *lifeProblem) Boundary() lifeFact {
	return lifeFact{ended: dataflow.VarSet{}, env: map[int32]objset{}}
}

// Init is the lattice top: every region "ended" (identity of the must
// intersection) and an empty environment (identity of the may union).
func (p *lifeProblem) Init() lifeFact {
	return lifeFact{ended: p.universe.Clone(), env: map[int32]objset{}}
}

func (p *lifeProblem) Meet(a, b lifeFact) lifeFact {
	ended := dataflow.VarSet{}
	for k := range a.ended {
		if b.ended.Has(k) {
			ended[k] = struct{}{}
		}
	}
	env := make(map[int32]objset, len(a.env))
	for k, v := range a.env {
		env[k] = v
	}
	for k, v := range b.env {
		if cur, ok := env[k]; ok {
			merged := cur.clone()
			for id := range v {
				merged[id] = true
			}
			env[k] = merged
		} else {
			env[k] = v
		}
	}
	return lifeFact{ended: ended, env: env}
}

func (p *lifeProblem) Equal(a, b lifeFact) bool {
	if len(a.ended) != len(b.ended) || len(a.env) != len(b.env) {
		return false
	}
	for k := range a.ended {
		if !b.ended.Has(k) {
			return false
		}
	}
	for k, v := range a.env {
		w, ok := b.env[k]
		if !ok || len(v) != len(w) {
			return false
		}
		for id := range v {
			if !w[id] {
				return false
			}
		}
	}
	return true
}

func (p *lifeProblem) Transfer(b *cfg.Block, in lifeFact) lifeFact {
	return dataflow.TransferAtoms[lifeFact](p, b, in)
}

// Step interprets one atom copy-on-write, per AtomProblem's contract.
func (p *lifeProblem) Step(f lifeFact, a cfg.Atom) lifeFact {
	if a.Deferred {
		if a.WriteRef {
			// A closure may run the assignment at any point: widen to the
			// flow-insensitive set.
			out := f.clone()
			out.env[a.Var] = p.varSet(a.Var)
			return out
		}
		return f
	}
	switch a.Op {
	case cfg.OpRegionEnter:
		out := f.clone()
		delete(out.ended, a.Var)
		return out
	case cfg.OpRegionExit:
		out := f.clone()
		out.ended[a.Var] = struct{}{}
		return out
	case cfg.OpDecl:
		out := f.clone()
		if a.Expr != nil {
			out.env[a.Var] = p.evalPts(a.Expr, f.env)
		} else {
			out.env[a.Var] = p.varSet(a.Var)
		}
		return out
	case cfg.OpDef:
		if set, ok := a.Expr.(*ast.Set); ok {
			out := f.clone()
			out.env[a.Var] = p.evalPts(set.Value, f.env)
			return out
		}
	}
	return f
}

// varSet is the Andersen (flow-insensitive) set of a local, as IDs.
func (p *lifeProblem) varSet(n int32) objset {
	out := objset{}
	for _, o := range p.r.VarObjects(p.fn, n) {
		out[o.ID] = true
	}
	return out
}

// evalPts resolves an expression's points-to set flow-sensitively where it
// can (variable references through the tracked environment) and falls back
// to the Andersen set otherwise.
func (p *lifeProblem) evalPts(e ast.Expr, env map[int32]objset) objset {
	if v, ok := e.(*ast.VarRef); ok {
		if n := p.g.Var(v); n != 0 {
			if s, ok := env[n]; ok {
				return s
			}
			return p.varSet(n)
		}
	}
	out := objset{}
	for _, o := range p.r.ExprObjects(e) {
		out[o.ID] = true
	}
	return out
}

// derefBase returns the expression an atom dereferences, mirroring where
// the VM's use-after-region-exit trap fires: field access and mutation,
// vector operations, and channel operations — never plain reference
// copies.
func derefBase(info *types.Info, a cfg.Atom) ast.Expr {
	switch e := a.Expr.(type) {
	case *ast.FieldRef:
		return e.Expr
	case *ast.FieldSet:
		return e.Expr
	case *ast.Call:
		if v, ok := e.Fn.(*ast.VarRef); ok && len(e.Args) > 0 {
			switch info.Builtin(v) {
			case "vector-ref", "vector-set!", "vector-length", "send", "recv":
				return e.Args[0]
			}
		}
	}
	return nil
}

// checkUses runs the flow-sensitive pass over one function and reports
// dereferences whose every possible target belongs to a region that has
// definitely ended.
func checkUses(info *types.Info, r *Result, fn *ast.DefineFunc, g *cfg.Graph, lt *Lifetime) {
	p := newLifeProblem(r, fn.Name, g)
	if len(p.universe) == 0 {
		return
	}
	res := dataflow.Solve[lifeFact](g, p)
	seen := map[source.Pos]bool{}
	for _, b := range g.Blocks {
		dataflow.VisitAtoms[lifeFact](p, res, b, func(i int, before lifeFact) {
			a := b.Atoms[i]
			if a.Deferred || len(before.ended) == 0 {
				return
			}
			base := derefBase(info, a)
			if base == nil {
				return
			}
			objs := p.evalPts(base, before.env)
			if len(objs) == 0 {
				return
			}
			var dead *Object
			for id := range objs {
				o := r.objects[id]
				if o.Region == 0 || o.Fn != fn.Name || !before.ended.Has(o.Region) {
					return
				}
				if dead == nil || o.ID < dead.ID {
					dead = o
				}
			}
			span := a.Expr.Span()
			if seen[span.Start] {
				return
			}
			seen[span.Start] = true
			lt.Uses = append(lt.Uses, UseAfterExit{
				Span: span, Region: dead.RegionSrc, Fn: fn.Name, Alloc: dead,
			})
		})
	}
}
