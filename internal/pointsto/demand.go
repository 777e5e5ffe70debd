// Demand-driven slicing of the Andersen analysis.
//
// The whole-program solver in pointsto.go is exact but monolithic: one
// edited function forces the full fixpoint again. This file provides the
// machinery the incremental driver uses to solve only the slice of the
// constraint system that can influence a set of target functions:
//
//   - Traits is a purely syntactic, scope-insensitive skeleton of one
//     definition — the names it references, the call heads it applies, and
//     whether it contains forms that touch the unknown-code ("leak")
//     boundary. Traits depend only on the definition's own text, so they
//     are cacheable under the definition's content hash.
//
//   - Components partitions the program's functions and globals into
//     undirected flow components. Every cross-function constraint edge the
//     generator in pointsto.go can emit travels through a call (argument/
//     return), a global variable, or the leak/observed boundary nodes.
//     Components therefore over-approximate "can exchange points-to
//     information with": solving only the component(s) of the target
//     functions yields, for every node inside the slice, exactly the sets
//     the whole-program fixpoint would compute (see the invariant note on
//     BuildComponents).
//
//   - AnalyzeDemand generates and solves constraints for an included
//     subset of definitions only. Object IDs still follow AST order within
//     the slice, so ID-order tie-breaks downstream are preserved.
package pointsto

import (
	"sort"
	"strings"

	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/types"
)

// Traits is the syntactic skeleton of one definition: everything the
// component builder needs to know about it, derivable from its text alone
// (deliberately scope-insensitive, so shadowing can only add edges, never
// hide one).
type Traits struct {
	// Free lists every identifier referenced anywhere in the definition
	// (variable references and set! targets, in body and contracts),
	// sorted and deduplicated.
	Free []string
	// Called lists every plain-VarRef call head applied in the body,
	// sorted and deduplicated. Contract expressions are excluded to match
	// the call graph, which only walks bodies.
	Called []string
	// Bound lists every name bound inside the definition (parameters,
	// lets, patterns, dotimes, lambda parameters). A call head that is
	// also bound anywhere must be treated as a possible closure call.
	Bound []string
	// HasLambda reports a lambda expression: its result is observable by
	// unknown code, so the definition writes to the leak boundary.
	HasLambda bool
	// ExoticCall reports a call whose head is not a plain variable
	// reference — the constraint generator treats it as a call through a
	// closure value (leaking arguments, result aliasing leaked values).
	ExoticCall bool
}

// traitScan accumulates one definition's traits.
type traitScan struct {
	free   map[string]bool
	called map[string]bool
	bound  map[string]bool
	t      *Traits
}

func (s *traitScan) expr(e ast.Expr, inBody bool) bool {
	switch e := e.(type) {
	case *ast.VarRef:
		s.free[e.Name] = true
	case *ast.Set:
		s.free[e.Name] = true
	case *ast.Call:
		if v, ok := e.Fn.(*ast.VarRef); ok {
			if inBody {
				s.called[v.Name] = true
			}
		} else {
			s.t.ExoticCall = true
		}
	case *ast.Lambda:
		s.t.HasLambda = true
		for _, p := range e.Params {
			s.bound[p.Name] = true
		}
	case *ast.Let:
		for _, b := range e.Bindings {
			s.bound[b.Name] = true
		}
	case *ast.DoTimes:
		s.bound[e.Var] = true
	case *ast.Case:
		for _, cl := range e.Clauses {
			s.pattern(cl.Pattern)
		}
	}
	return true
}

func (s *traitScan) pattern(p ast.Pattern) {
	switch p := p.(type) {
	case *ast.PatVar:
		s.bound[p.Name] = true
	case *ast.PatCtor:
		for _, a := range p.Args {
			s.pattern(a)
		}
	}
}

func (s *traitScan) finish() *Traits {
	s.t.Free = sortedSet(s.free)
	s.t.Called = sortedSet(s.called)
	s.t.Bound = sortedSet(s.bound)
	return s.t
}

func newTraitScan() *traitScan {
	return &traitScan{
		free:   map[string]bool{},
		called: map[string]bool{},
		bound:  map[string]bool{},
		t:      &Traits{},
	}
}

// sortedSet lists m's names, cloned: traits are cached across edits by the
// incremental driver, and an AST name is a substring of its source text,
// which a cached name would otherwise keep alive.
func sortedSet(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, strings.Clone(k))
	}
	sort.Strings(out)
	return out
}

// ScanTraits extracts the traits of one function definition. The result
// depends only on fn's own text.
func ScanTraits(fn *ast.DefineFunc) *Traits {
	s := newTraitScan()
	for _, p := range fn.Params {
		s.bound[p.Name] = true
	}
	for _, r := range fn.Contract.Requires {
		ast.Walk(r, func(e ast.Expr) bool { return s.expr(e, false) })
	}
	for _, en := range fn.Contract.Ensures {
		ast.Walk(en, func(e ast.Expr) bool { return s.expr(e, false) })
	}
	for _, b := range fn.Body {
		ast.Walk(b, func(e ast.Expr) bool { return s.expr(e, true) })
	}
	return s.finish()
}

// ScanExprTraits extracts the traits of a top-level initialiser expression
// (a DefineVar's init). Call heads count as body calls: global initialisers
// are evaluated by the constraint generator exactly like body code.
func ScanExprTraits(init ast.Expr) *Traits {
	s := newTraitScan()
	ast.Walk(init, func(e ast.Expr) bool { return s.expr(e, true) })
	return s.finish()
}

// ---------------------------------------------------------------------------
// Flow components
// ---------------------------------------------------------------------------

// Node keys inside the union-find. The leak/observed boundary is one shared
// pseudo-node: anything that can write to or read from unknown code is
// coupled through it.
const (
	compFn   = "f\x00"
	compGvar = "g\x00"
	leakNode = "!\x00leak"
)

// Components is the undirected flow partition of a program's functions and
// globals.
//
// Invariant (why slicing is exact): every constraint the generator emits
// either stays inside one definition, or connects a definition to a callee
// (argument/return edges), to a global variable's node, or to the shared
// leak/observed boundary. BuildComponents unions exactly those pairs —
// conservatively, from scope-insensitive traits, so a spurious shadowed
// name can merge two components but never separate two that interact. The
// least fixpoint of the constraints restricted to a union of whole
// components therefore agrees with the whole-program fixpoint on every
// node of those components.
type Components struct {
	compOf map[string]int
	// funcMembers and globalMembers list each component's members, sorted.
	funcMembers   [][]string
	globalMembers [][]string
}

// touchesLeak classifies one definition's traits against the checked
// program: does any of its forms write to or read from the unknown-code
// boundary? The classification is by name, mirroring (conservatively) the
// dispatch in builder.call and builder.builtin.
func touchesLeak(t *Traits, info *types.Info, funcs map[string]bool) bool {
	if t.HasLambda || t.ExoticCall {
		return true
	}
	bound := map[string]bool{}
	for _, b := range t.Bound {
		bound[b] = true
	}
	for _, name := range t.Called {
		if bound[name] {
			return true // possible closure call through a local
		}
		if funcs[name] {
			continue // defined function: plain call edges
		}
		if _, ok := info.Globals[name]; ok {
			return true // call through a closure-valued global
		}
		if info.CtorOf[name] != nil {
			continue // constructor application: allocation only
		}
		if isExternalName(info, name) {
			return true // arguments leak to foreign code
		}
		if scalarBuiltin[name] {
			continue
		}
		switch name {
		case "vector", "make-vector", "make-chan",
			"vector-ref", "vector-set!", "send", "recv":
			continue // modelled builtins: no leak edges
		}
		// print/println observe their arguments; every other unknown
		// head leaks them.
		return true
	}
	return false
}

func isExternalName(info *types.Info, name string) bool {
	for _, ext := range info.Externals {
		if ext.Name == name {
			return true
		}
	}
	return false
}

// BuildComponents partitions prog's functions and globals. traitsOf must
// yield the traits of every DefineFunc (by name, nil if unknown) and
// initTraits the traits of every DefineVar initialiser (by name); both
// typically come from a cache.
func BuildComponents(prog *ast.Program, info *types.Info,
	traitsOf func(name string) *Traits, initTraits map[string]*Traits) *Components {

	funcs := make(map[string]bool, len(prog.Defs))
	for _, d := range prog.Defs {
		if fn, ok := d.(*ast.DefineFunc); ok {
			funcs[fn.Name] = true
		}
	}

	// Integer union-find over dense node ids (node 0 is the shared leak
	// boundary). Names resolve to ids once through fnNode/gvNode; the hot
	// union loop never builds composite string keys.
	parent := make([]int32, 1, 2*len(prog.Defs)+1)
	sizes := make([]int32, 1, 2*len(prog.Defs)+1)
	sizes[0] = 1
	fnNode := make(map[string]int32, len(funcs))
	gvNode := map[string]int32{}
	newNode := func() int32 {
		id := int32(len(parent))
		parent = append(parent, id)
		sizes = append(sizes, 1)
		return id
	}
	fnID := func(name string) int32 {
		id, ok := fnNode[name]
		if !ok {
			id = newNode()
			fnNode[name] = id
		}
		return id
	}
	gvID := func(name string) int32 {
		id, ok := gvNode[name]
		if !ok {
			id = newNode()
			gvNode[name] = id
		}
		return id
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if sizes[ra] < sizes[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		sizes[ra] += sizes[rb]
	}

	link := func(self int32, t *Traits) {
		for _, name := range t.Called {
			if funcs[name] {
				union(self, fnID(name))
			}
		}
		for _, name := range t.Free {
			if _, ok := info.Globals[name]; ok {
				union(self, gvID(name))
			}
		}
		if touchesLeak(t, info, funcs) {
			union(self, 0)
		}
	}
	for _, d := range prog.Defs {
		switch d := d.(type) {
		case *ast.DefineFunc:
			if t := traitsOf(d.Name); t != nil {
				link(fnID(d.Name), t)
			}
		case *ast.DefineVar:
			id := gvID(d.Name)
			if t := initTraits[d.Name]; t != nil {
				link(id, t)
			}
		}
	}
	// Ensure every definition has a node before sizing the root table (a
	// function whose traits are missing gets one only here).
	for _, d := range prog.Defs {
		switch d := d.(type) {
		case *ast.DefineFunc:
			fnID(d.Name)
		case *ast.DefineVar:
			gvID(d.Name)
		}
	}

	c := &Components{compOf: make(map[string]int, len(parent))}
	rootID := make([]int32, len(parent))
	for i := range rootID {
		rootID[i] = -1
	}
	idOf := func(node int32) int {
		root := find(node)
		id := rootID[root]
		if id < 0 {
			id = int32(len(c.funcMembers))
			rootID[root] = id
			c.funcMembers = append(c.funcMembers, nil)
			c.globalMembers = append(c.globalMembers, nil)
		}
		return int(id)
	}
	// Assign component IDs in definition order so they are deterministic.
	for _, d := range prog.Defs {
		switch d := d.(type) {
		case *ast.DefineFunc:
			id := idOf(fnNode[d.Name])
			c.compOf[compFn+d.Name] = id
			c.funcMembers[id] = append(c.funcMembers[id], d.Name)
		case *ast.DefineVar:
			id := idOf(gvNode[d.Name])
			c.compOf[compGvar+d.Name] = id
			c.globalMembers[id] = append(c.globalMembers[id], d.Name)
		}
	}
	// Globals without a DefineVar can still have a node (references only).
	var gnames []string
	for name := range info.Globals {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		key := compGvar + name
		if _, ok := c.compOf[key]; ok {
			continue
		}
		node, ok := gvNode[name]
		if !ok {
			continue // never referenced anywhere
		}
		id := idOf(node)
		c.compOf[key] = id
		c.globalMembers[id] = append(c.globalMembers[id], name)
	}
	for i := range c.funcMembers {
		sort.Strings(c.funcMembers[i])
		sort.Strings(c.globalMembers[i])
	}
	return c
}

// Len returns the number of components.
func (c *Components) Len() int { return len(c.funcMembers) }

// OfFunc returns the component of function name (-1 if unknown).
func (c *Components) OfFunc(name string) int {
	if id, ok := c.compOf[compFn+name]; ok {
		return id
	}
	return -1
}

// OfGlobal returns the component of global name (-1 if unknown).
func (c *Components) OfGlobal(name string) int {
	if id, ok := c.compOf[compGvar+name]; ok {
		return id
	}
	return -1
}

// FuncMembers returns the sorted function members of component id.
func (c *Components) FuncMembers(id int) []string { return c.funcMembers[id] }

// GlobalMembers returns the sorted global members of component id.
func (c *Components) GlobalMembers(id int) []string { return c.globalMembers[id] }

// ---------------------------------------------------------------------------
// Demand analysis
// ---------------------------------------------------------------------------

// selection restricts constraint generation to a subset of definitions.
type selection struct {
	fns     map[string]bool
	globals map[string]bool
}

// AnalyzeDemand builds and solves only the constraint slice induced by the
// given function and global sets. The caller must pass whole flow
// components (typically the union of Components members for every
// component of interest); for nodes belonging to included definitions the
// solved sets, leak reachability, and global attribution are then
// byte-identical to a whole-program Analyze. cfgs may share prebuilt
// graphs; missing graphs for included functions are built on demand.
func AnalyzeDemand(prog *ast.Program, info *types.Info,
	cfgs map[*ast.DefineFunc]*cfg.Graph, fns, globals map[string]bool) *Result {
	return analyze(prog, info, cfgs, &selection{fns: fns, globals: globals})
}
