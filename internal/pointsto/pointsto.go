// Package pointsto implements a whole-program, Andersen-style
// inclusion-based points-to analysis over the typed AST.
//
// Every allocation site — `make` struct expressions, union constructor
// applications, `vector`/`make-vector`, `make-chan`, and lambdas — becomes
// an abstract Object. Let bindings, set!, field and vector stores/loads,
// channel send/recv, and calls to defined functions become inclusion
// constraints between points-to sets; the solver runs the classic worklist
// algorithm, instantiating field load/store constraints lazily as base
// sets grow. Objects allocated through `alloc-in` carry the binding number
// of their region, which is what the lifetime checker in lifetime.go uses to
// reason about region escapes and use-after-exit.
//
// The analysis is deliberately conservative at the unknown-code boundary:
// arguments passed to externals, unknown builtins, or calls through
// closure values flow into a "leak" node, and results of such calls may
// alias anything leaked. Query methods return ID-sorted slices, and object
// IDs follow AST order, so results are deterministic.
package pointsto

import (
	"fmt"
	"sort"
	"strconv"

	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/source"
	"bitc/internal/types"
)

// ObjKind classifies an abstract object by its allocation form.
type ObjKind uint8

// Object kinds.
const (
	ObjStruct ObjKind = iota
	ObjUnion
	ObjVector
	ObjChan
	ObjClosure
)

// String names the kind for diagnostics.
func (k ObjKind) String() string {
	switch k {
	case ObjStruct:
		return "struct"
	case ObjUnion:
		return "union"
	case ObjVector:
		return "vector"
	case ObjChan:
		return "chan"
	case ObjClosure:
		return "closure"
	}
	return fmt.Sprintf("objkind(%d)", int(k))
}

// Object is one abstract allocation site.
type Object struct {
	ID       int
	Kind     ObjKind
	TypeName string      // struct name or union constructor ("" otherwise)
	Span     source.Span // the allocating expression
	Fn       string      // enclosing function ("" for a global initialiser)
	// Region is the binding number of the region the object is allocated
	// in (0 for the general heap). Regions are function-local, so
	// (Fn, Region) identifies the region uniquely program-wide.
	Region int32
	// RegionSrc is the region's source-level name, for messages.
	RegionSrc string
}

// Describe renders the allocation site for diagnostics.
func (o *Object) Describe() string {
	what := o.Kind.String()
	if o.TypeName != "" {
		what += " " + o.TypeName
	}
	if o.Region != 0 {
		return fmt.Sprintf("%s allocated in region %s", what, o.RegionSrc)
	}
	return what
}

// vector elements, channel slots, and the positional fields of a union
// constructor are modelled as synthetic fields of the container object.
const elemField = "elem"

func ctorField(ctor string, i int) string { return ctor + "." + strconv.Itoa(i) }

type fieldKey struct {
	obj   int
	field string
}

// localKey names the local with binding number bind of function fn.
type localKey struct {
	fn   string
	bind int32
}

// Result holds the solved points-to sets.
type Result struct {
	objects []*Object

	pts       []map[int]bool
	exprNode  map[ast.Expr]int
	localNode map[localKey]int
	gvarNode  map[string]int
	retNode   map[string]int
	fieldNode map[fieldKey]int

	// leak receives arguments of unknown code that may retain them and
	// feeds the results of unknown calls; observed receives arguments of
	// read-only builtins (print). Both count as "read by unknown code".
	leak     int
	observed int

	// loadedField marks (object, field) pairs some load constraint was
	// instantiated on: the field's value is observable somewhere.
	loadedField map[fieldKey]bool
	// leaked marks objects reachable by unknown code (directly leaked or
	// through fields of a leaked object); all their fields count as read.
	leaked map[int]bool
	// globalReach marks objects reachable from a global binding.
	globalReach map[int]bool
	// globalsOf maps an object ID to the sorted global names whose
	// points-to set contains it directly.
	globalsOf map[int][]string

	// graphs indexes the per-function CFGs the analysis was built over.
	graphs map[string]*cfg.Graph
	// funcs indexes the program's defined functions.
	funcs map[string]*ast.DefineFunc
}

// Objects returns every abstract object in allocation (ID) order.
func (r *Result) Objects() []*Object { return r.objects }

// Graph returns the CFG the analysis used for function fn, or nil.
func (r *Result) Graph(fn string) *cfg.Graph { return r.graphs[fn] }

func (r *Result) setOf(node int, ok bool) []*Object {
	if !ok || node < 0 || node >= len(r.pts) {
		return nil
	}
	ids := make([]int, 0, len(r.pts[node]))
	for id := range r.pts[node] {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*Object, len(ids))
	for i, id := range ids {
		out[i] = r.objects[id]
	}
	return out
}

// ExprObjects returns the objects expression e may evaluate to.
func (r *Result) ExprObjects(e ast.Expr) []*Object {
	n, ok := r.exprNode[e]
	return r.setOf(n, ok)
}

// VarObjects returns the objects the local with binding number bind of
// function fn may point to.
func (r *Result) VarObjects(fn string, bind int32) []*Object {
	n, ok := r.localNode[localKey{fn, bind}]
	return r.setOf(n, ok)
}

// GlobalObjects returns the objects global name may point to.
func (r *Result) GlobalObjects(name string) []*Object {
	n, ok := r.gvarNode[name]
	return r.setOf(n, ok)
}

// RetObjects returns the objects function fn may return.
func (r *Result) RetObjects(fn string) []*Object {
	n, ok := r.retNode[fn]
	return r.setOf(n, ok)
}

// FieldObjects returns the objects field f of o may hold (use the
// synthetic "elem" field for vector elements and channel slots).
func (r *Result) FieldObjects(o *Object, f string) []*Object {
	n, ok := r.fieldNode[fieldKey{o.ID, f}]
	return r.setOf(n, ok)
}

// GlobalsOf returns the sorted names of globals that point directly at o.
func (r *Result) GlobalsOf(o *Object) []string { return r.globalsOf[o.ID] }

// Leaked reports whether unknown code (an external, an unknown builtin, a
// call through a closure value, print) may observe o.
func (r *Result) Leaked(o *Object) bool { return r.leaked[o.ID] }

// GlobalReachable reports whether o is reachable from a global binding.
func (r *Result) GlobalReachable(o *Object) bool { return r.globalReach[o.ID] }

// FieldLoaded reports whether field f of o may be read anywhere in the
// program — through any alias, pattern match, or unknown code.
func (r *Result) FieldLoaded(o *Object, f string) bool {
	return r.leaked[o.ID] || r.loadedField[fieldKey{o.ID, f}]
}

// ---------------------------------------------------------------------------
// Solver
// ---------------------------------------------------------------------------

type complexC struct {
	field string
	other int // dst for loads, src for stores
}

type builder struct {
	*Result
	info *types.Info

	succs    [][]int
	edgeSeen map[[2]int]bool
	loads    map[int][]complexC
	stores   map[int][]complexC

	work   []int
	inWork map[int]bool
}

func (b *builder) newNode() int {
	b.pts = append(b.pts, nil)
	b.succs = append(b.succs, nil)
	return len(b.pts) - 1
}

func (b *builder) exprNodeOf(e ast.Expr) int {
	if n, ok := b.exprNode[e]; ok {
		return n
	}
	n := b.newNode()
	b.exprNode[e] = n
	return n
}

func (b *builder) local(fn string, bind int32) int {
	k := localKey{fn, bind}
	if n, ok := b.localNode[k]; ok {
		return n
	}
	n := b.newNode()
	b.localNode[k] = n
	return n
}

func (b *builder) gvar(name string) int {
	if n, ok := b.gvarNode[name]; ok {
		return n
	}
	n := b.newNode()
	b.gvarNode[name] = n
	return n
}

func (b *builder) ret(fn string) int {
	if n, ok := b.retNode[fn]; ok {
		return n
	}
	n := b.newNode()
	b.retNode[fn] = n
	return n
}

func (b *builder) field(obj int, f string) int {
	k := fieldKey{obj, f}
	if n, ok := b.fieldNode[k]; ok {
		return n
	}
	n := b.newNode()
	b.fieldNode[k] = n
	return n
}

func (b *builder) push(n int) {
	if !b.inWork[n] {
		b.inWork[n] = true
		b.work = append(b.work, n)
	}
}

func (b *builder) edge(from, to int) {
	k := [2]int{from, to}
	if b.edgeSeen[k] {
		return
	}
	b.edgeSeen[k] = true
	b.succs[from] = append(b.succs[from], to)
	if b.propagate(from, to) {
		b.push(to)
	}
}

func (b *builder) propagate(from, to int) bool {
	changed := false
	for id := range b.pts[from] {
		if !b.pts[to][id] {
			if b.pts[to] == nil {
				b.pts[to] = map[int]bool{}
			}
			b.pts[to][id] = true
			changed = true
		}
	}
	return changed
}

func (b *builder) addObj(node int, o *Object) {
	if b.pts[node][o.ID] {
		return
	}
	if b.pts[node] == nil {
		b.pts[node] = map[int]bool{}
	}
	b.pts[node][o.ID] = true
	b.push(node)
}

func (b *builder) addLoad(base int, f string, dst int) {
	b.loads[base] = append(b.loads[base], complexC{f, dst})
	b.push(base)
}

func (b *builder) addStore(base int, f string, src int) {
	b.stores[base] = append(b.stores[base], complexC{f, src})
	b.push(base)
}

// solve runs the worklist to a fixpoint. When a node's set grows, pending
// load/store constraints on it are re-instantiated and its successors
// receive the new members; instantiation adds plain edges, so the whole
// system stays monotone and terminates.
func (b *builder) solve() {
	for len(b.work) > 0 {
		n := b.work[len(b.work)-1]
		b.work = b.work[:len(b.work)-1]
		b.inWork[n] = false

		for _, c := range b.loads[n] {
			for id := range b.pts[n] {
				b.loadedField[fieldKey{id, c.field}] = true
				b.edge(b.field(id, c.field), c.other)
			}
		}
		for _, c := range b.stores[n] {
			for id := range b.pts[n] {
				b.edge(c.other, b.field(id, c.field))
			}
		}
		for _, s := range b.succs[n] {
			if b.propagate(n, s) {
				b.push(s)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Constraint generation
// ---------------------------------------------------------------------------

// genCtx is the constraint-generation context for one function body (g is
// nil for a global initialiser, whose locals are not tracked).
type genCtx struct {
	fn        string
	g         *cfg.Graph
	curRegion int32 // binding number of the enclosing alloc-in's region
	curSrc    string
}

// pure builtins whose arguments neither retain references nor read fields.
var scalarBuiltin = map[string]bool{
	"+": true, "-": true, "*": true, "/": true, "mod": true,
	"bitand": true, "bitor": true, "bitxor": true, "bitnot": true,
	"shl": true, "shr": true, "neg": true, "abs": true,
	"<": true, "<=": true, ">": true, ">=": true, "=": true, "!=": true,
	"min": true, "max": true, "not": true,
	"string-length": true, "string-ref": true, "string-append": true,
	"substring": true, "sqrt": true, "floor": true,
	"vector-length": true, "join": true, "yield": true, "thread-id": true,
	"and": true, "or": true,
}

// Analyze builds and solves the constraint system for a checked program.
// cfgs may share prebuilt graphs (keyed by function); missing graphs are
// built on demand.
func Analyze(prog *ast.Program, info *types.Info, cfgs map[*ast.DefineFunc]*cfg.Graph) *Result {
	return analyze(prog, info, cfgs, nil)
}

// analyze is the shared engine behind Analyze (sel == nil: whole program)
// and AnalyzeDemand (sel restricts generation to included definitions).
func analyze(prog *ast.Program, info *types.Info, cfgs map[*ast.DefineFunc]*cfg.Graph, sel *selection) *Result {
	r := &Result{
		exprNode:    map[ast.Expr]int{},
		localNode:   map[localKey]int{},
		gvarNode:    map[string]int{},
		retNode:     map[string]int{},
		fieldNode:   map[fieldKey]int{},
		loadedField: map[fieldKey]bool{},
		leaked:      map[int]bool{},
		globalReach: map[int]bool{},
		globalsOf:   map[int][]string{},
		graphs:      map[string]*cfg.Graph{},
		funcs:       map[string]*ast.DefineFunc{},
	}
	b := &builder{
		Result:   r,
		info:     info,
		edgeSeen: map[[2]int]bool{},
		loads:    map[int][]complexC{},
		stores:   map[int][]complexC{},
		inWork:   map[int]bool{},
	}
	b.leak = b.newNode()
	b.observed = b.newNode()

	for _, d := range prog.Defs {
		fn, ok := d.(*ast.DefineFunc)
		if !ok || (sel != nil && !sel.fns[fn.Name]) {
			continue
		}
		g := cfgs[fn]
		if g == nil {
			g = cfg.Build(fn, info)
		}
		r.graphs[fn.Name] = g
		r.funcs[fn.Name] = fn
	}

	// Generate constraints in definition order: object IDs and node IDs
	// depend only on the AST. A selection skips excluded definitions
	// wholesale, so IDs of included objects keep their relative AST order.
	for _, d := range prog.Defs {
		switch d := d.(type) {
		case *ast.DefineVar:
			if sel != nil && !sel.globals[d.Name] {
				continue
			}
			c := &genCtx{fn: ""}
			b.edge(b.eval(c, d.Init), b.gvar(d.Name))
		case *ast.DefineFunc:
			if sel != nil && !sel.fns[d.Name] {
				continue
			}
			g := r.graphs[d.Name]
			c := &genCtx{fn: d.Name, g: g}
			last := -1
			for _, e := range d.Body {
				last = b.eval(c, e)
			}
			if last >= 0 {
				b.edge(last, b.ret(d.Name))
			}
		}
	}

	b.solve()
	b.finish(info, sel)
	return r
}

// finish derives the post-solve facts: which globals name which objects,
// what unknown code can reach, and what is reachable from globals. Under a
// selection only included globals are inspected; an excluded global's set
// cannot contain an included object (that flow would have merged their
// components), so the restriction loses nothing for in-slice queries.
func (b *builder) finish(info *types.Info, sel *selection) {
	var globals []string
	for name := range info.Globals {
		if sel != nil && !sel.globals[name] {
			continue
		}
		globals = append(globals, name)
	}
	sort.Strings(globals)
	// Index field nodes by owning object once: reachability marking pops
	// each object at most twice (global + leak sweeps), and a linear scan
	// of every field node per pop is quadratic on field-heavy programs.
	fieldsByObj := map[int][]int{}
	for k, n := range b.fieldNode {
		fieldsByObj[k.obj] = append(fieldsByObj[k.obj], n)
	}
	for _, name := range globals {
		n, ok := b.gvarNode[name]
		if !ok {
			continue
		}
		for id := range b.pts[n] {
			b.globalsOf[id] = append(b.globalsOf[id], name)
		}
		b.markReach(b.pts[n], b.globalReach, fieldsByObj)
	}
	for id := range b.globalsOf {
		sort.Strings(b.globalsOf[id])
	}

	seeds := map[int]bool{}
	for id := range b.pts[b.leak] {
		seeds[id] = true
	}
	for id := range b.pts[b.observed] {
		seeds[id] = true
	}
	b.markReach(seeds, b.leaked, fieldsByObj)
}

// markReach adds every object in seeds, plus everything reachable through
// their fields, to out.
func (b *builder) markReach(seeds map[int]bool, out map[int]bool, fieldsByObj map[int][]int) {
	var stack []int
	for id := range seeds {
		if !out[id] {
			out[id] = true
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range fieldsByObj[id] {
			for m := range b.pts[n] {
				if !out[m] {
					out[m] = true
					stack = append(stack, m)
				}
			}
		}
	}
}

func (b *builder) newObject(c *genCtx, kind ObjKind, typeName string, span source.Span) *Object {
	o := &Object{
		ID: len(b.objects), Kind: kind, TypeName: typeName, Span: span,
		Fn: c.fn, Region: c.curRegion, RegionSrc: c.curSrc,
	}
	b.objects = append(b.objects, o)
	return o
}

// eval generates constraints for e and returns its node.
func (b *builder) eval(c *genCtx, e ast.Expr) int {
	if e == nil {
		return b.newNode()
	}
	n := b.exprNodeOf(e)
	switch e := e.(type) {
	case *ast.VarRef:
		if c.g != nil {
			if v := c.g.Var(e); v != 0 {
				b.edge(b.local(c.fn, v), n)
				return n
			}
		}
		if sym := b.info.Use(e); sym != nil {
			switch sym.Kind {
			case types.SymGlobal:
				b.edge(b.gvar(e.Name), n)
			case types.SymCtor: // nullary constructor application
				b.addObj(n, b.newObject(c, ObjUnion, e.Name, e.Span()))
			}
		}

	case *ast.Call:
		b.call(c, e, n)

	case *ast.Let:
		for _, bind := range e.Bindings {
			v := b.eval(c, bind.Init)
			if c.g != nil {
				b.edge(v, b.local(c.fn, bind.Bind))
			}
		}
		b.body(c, e.Body, n)

	case *ast.Set:
		v := b.eval(c, e.Value)
		if c.g != nil {
			if t := c.g.Target(e); t != 0 {
				b.edge(v, b.local(c.fn, t))
				break
			}
		}
		if _, ok := b.info.Globals[e.Name]; ok {
			b.edge(v, b.gvar(e.Name))
		}

	case *ast.If:
		b.eval(c, e.Cond)
		b.edge(b.eval(c, e.Then), n)
		if e.Else != nil {
			b.edge(b.eval(c, e.Else), n)
		}

	case *ast.Begin:
		b.body(c, e.Body, n)

	case *ast.While:
		for _, inv := range e.Invariants {
			b.eval(c, inv)
		}
		b.eval(c, e.Cond)
		for _, s := range e.Body {
			b.eval(c, s)
		}

	case *ast.DoTimes:
		b.eval(c, e.Count)
		for _, s := range e.Body {
			b.eval(c, s)
		}

	case *ast.Case:
		s := b.eval(c, e.Scrut)
		for _, cl := range e.Clauses {
			b.bindPattern(c, s, cl.Pattern)
			last := -1
			for _, st := range cl.Body {
				last = b.eval(c, st)
			}
			if last >= 0 {
				b.edge(last, n)
			}
		}

	case *ast.Lambda:
		b.addObj(n, b.newObject(c, ObjClosure, "", e.Span()))
		saved, savedSrc := c.curRegion, c.curSrc
		c.curRegion, c.curSrc = 0, ""
		last := -1
		for _, s := range e.Body {
			last = b.eval(c, s)
		}
		c.curRegion, c.curSrc = saved, savedSrc
		if last >= 0 {
			// The closure's result is observable wherever it is called.
			b.edge(last, b.leak)
		}

	case *ast.Spawn:
		saved, savedSrc := c.curRegion, c.curSrc
		c.curRegion, c.curSrc = 0, ""
		b.eval(c, e.Expr)
		c.curRegion, c.curSrc = saved, savedSrc

	case *ast.FieldRef:
		b.addLoad(b.eval(c, e.Expr), e.Name, n)

	case *ast.FieldSet:
		base := b.eval(c, e.Expr)
		v := b.eval(c, e.Value)
		b.addStore(base, e.Name, v)

	case *ast.MakeStruct:
		o := b.newObject(c, ObjStruct, e.Name, e.Span())
		b.addObj(n, o)
		for _, f := range e.Fields {
			b.edge(b.eval(c, f.Value), b.field(o.ID, f.Name))
		}

	case *ast.MakeUnion:
		o := b.newObject(c, ObjUnion, e.Ctor, e.Span())
		b.addObj(n, o)
		for i, a := range e.Args {
			b.edge(b.eval(c, a), b.field(o.ID, ctorField(e.Ctor, i)))
		}

	case *ast.AllocIn:
		saved, savedSrc := c.curRegion, c.curSrc
		if r := b.info.Region(e); c.g != nil && r != 0 {
			c.curRegion, c.curSrc = r, e.Region
		}
		v := b.eval(c, e.Expr)
		c.curRegion, c.curSrc = saved, savedSrc
		b.edge(v, n)

	case *ast.WithRegion:
		b.body(c, e.Body, n)

	case *ast.Atomic:
		b.body(c, e.Body, n)

	case *ast.WithLock:
		b.body(c, e.Body, n)

	case *ast.Cast:
		b.edge(b.eval(c, e.Expr), n)

	case *ast.Assert:
		b.eval(c, e.Cond)
	}
	return n
}

func (b *builder) body(c *genCtx, body []ast.Expr, n int) {
	last := -1
	for _, s := range body {
		last = b.eval(c, s)
	}
	if last >= 0 {
		b.edge(last, n)
	}
}

func (b *builder) bindPattern(c *genCtx, src int, p ast.Pattern) {
	switch p := p.(type) {
	case *ast.PatVar:
		if c.g != nil {
			b.edge(src, b.local(c.fn, p.Bind))
		}
	case *ast.PatCtor:
		for i, a := range p.Args {
			if _, ok := a.(*ast.PatLit); ok {
				continue
			}
			if _, ok := a.(*ast.PatWildcard); ok {
				continue
			}
			dst := b.newNode()
			b.addLoad(src, ctorField(p.Ctor, i), dst)
			b.bindPattern(c, dst, a)
		}
	}
}

// call generates constraints for one application, dispatching on what the
// checker resolved the head to.
func (b *builder) call(c *genCtx, e *ast.Call, n int) {
	v, _ := e.Fn.(*ast.VarRef)
	var sym *types.Symbol
	if v != nil {
		sym = b.info.Use(v)
	}

	switch {
	case sym != nil && sym.Kind == types.SymCtor:
		o := b.newObject(c, ObjUnion, v.Name, e.Span())
		b.addObj(n, o)
		for i, a := range e.Args {
			b.edge(b.eval(c, a), b.field(o.ID, ctorField(v.Name, i)))
		}

	case sym != nil && sym.Kind == types.SymFunc:
		callee := b.funcs[v.Name]
		for i, a := range e.Args {
			an := b.eval(c, a)
			if callee != nil && i < len(callee.Params) {
				b.edge(an, b.local(v.Name, callee.Params[i].Bind))
			}
		}
		b.edge(b.ret(v.Name), n)

	case v != nil && b.info.Builtin(v) != "":
		b.builtin(c, e, b.info.Builtin(v), n)

	default:
		// Closure-valued heads, externals, lambdas applied directly:
		// arguments may be retained and the result may alias anything
		// unknown code holds.
		b.eval(c, e.Fn)
		for _, a := range e.Args {
			b.edge(b.eval(c, a), b.leak)
		}
		if sym == nil || sym.Kind != types.SymExternal {
			b.edge(b.leak, n)
		}
	}
}

func (b *builder) builtin(c *genCtx, e *ast.Call, name string, n int) {
	args := e.Args
	switch name {
	case "vector":
		o := b.newObject(c, ObjVector, "", e.Span())
		b.addObj(n, o)
		for _, a := range args {
			b.edge(b.eval(c, a), b.field(o.ID, elemField))
		}
	case "make-vector":
		o := b.newObject(c, ObjVector, "", e.Span())
		b.addObj(n, o)
		for i, a := range args {
			an := b.eval(c, a)
			if i == 1 { // fill value
				b.edge(an, b.field(o.ID, elemField))
			}
		}
	case "make-chan":
		o := b.newObject(c, ObjChan, "", e.Span())
		b.addObj(n, o)
		for _, a := range args {
			b.eval(c, a)
		}
	case "vector-ref":
		base := -1
		for i, a := range args {
			an := b.eval(c, a)
			if i == 0 {
				base = an
			}
		}
		if base >= 0 {
			b.addLoad(base, elemField, n)
		}
	case "vector-set!":
		if len(args) == 3 {
			base := b.eval(c, args[0])
			b.eval(c, args[1])
			v := b.eval(c, args[2])
			b.addStore(base, elemField, v)
			break
		}
		for _, a := range args {
			b.eval(c, a)
		}
	case "send":
		if len(args) == 2 {
			ch := b.eval(c, args[0])
			v := b.eval(c, args[1])
			b.addStore(ch, elemField, v)
			break
		}
		for _, a := range args {
			b.eval(c, a)
		}
	case "recv":
		if len(args) == 1 {
			b.addLoad(b.eval(c, args[0]), elemField, n)
			break
		}
		for _, a := range args {
			b.eval(c, a)
		}
	case "print", "println":
		for _, a := range args {
			b.edge(b.eval(c, a), b.observed)
		}
	default:
		for _, a := range args {
			an := b.eval(c, a)
			if !scalarBuiltin[name] {
				b.edge(an, b.leak)
			}
		}
	}
}
