package analysis

import (
	"strings"

	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/dataflow"
	"bitc/internal/source"
)

// The deadstore analyzer finds two flavours of wasted work:
//
//   - BITC-DEAD001: a (set! x e) whose stored value can never be read,
//     decided by backward liveness over the function's CFG — the store is
//     dead exactly when x is not live immediately after it on any path —
//     or a (set-field! o f e) on an object whose field f is never loaded
//     anywhere in the program;
//   - BITC-DEAD002: a let binding that is never used at all (or a mutable
//     binding that is written but never read), decided by counting use/def
//     atoms of the local's binding number (so shadowing never miscounts).
//
// Variables captured by a lambda or spawn are exempt from DEAD001: the
// closure can run after any store, so no store to them is provably dead.
// Field stores are judged through the points-to results, so a store
// observable through *any* aliased handle — a let-bound copy, a global the
// object reaches, a reference that leaked to unknown code — is never
// flagged; only stores into provably confined objects whose field no alias
// ever reads count as dead. Names starting with '_' are exempt by
// convention.

// Dead-code lint codes.
const (
	CodeDeadStore     = "BITC-DEAD001"
	CodeUnusedBinding = "BITC-DEAD002"
)

var deadstoreAnalyzer = register(&Analyzer{
	Name:          "deadstore",
	Doc:           "liveness-based dead stores, alias-aware dead field stores, and unused let bindings",
	Code:          CodeDeadStore,
	Codes:         []string{CodeDeadStore, CodeUnusedBinding},
	PerFunction:   true,
	NeedsCFG:      true,
	NeedsPointsTo: true,
	Run:           runDeadStore,
})

func runDeadStore(p *Pass) {
	g := p.CFG(nil)

	// Per-variable counts over the whole graph: reads (any non-WriteRef
	// use, including the read half of a self-update), writes (set!s, plus
	// captured set!s emitted as WriteRef uses), and capture flags.
	reads := make([]int, len(g.Decls))
	writes := make([]int, len(g.Decls))
	captured := make([]bool, len(g.Decls))
	for _, b := range g.Blocks {
		for _, a := range b.Atoms {
			switch a.Op {
			case cfg.OpUse:
				if a.Deferred {
					captured[a.Var] = true
				}
				if a.WriteRef {
					writes[a.Var]++
				} else {
					reads[a.Var]++
				}
			case cfg.OpDef:
				writes[a.Var]++
			}
		}
	}

	// Unused bindings.
	for n, d := range g.Decls {
		if d == nil || d.Kind != cfg.DeclLet || strings.HasPrefix(d.Src, "_") {
			continue
		}
		switch {
		case reads[n] == 0 && writes[n] == 0:
			p.Reportf(CodeUnusedBinding, source.Warning, d.Binding.Span(),
				"binding %s is never used", d.Src)
		case reads[n] == 0 && writes[n] > 0:
			p.Reportf(CodeUnusedBinding, source.Warning, d.Binding.Span(),
				"mutable binding %s is assigned but never read", d.Src)
		}
	}

	// Dead stores: replay each block backward from its solved exit-live set
	// and flag defs whose value is dead. Reported only for let-bound
	// variables (parameter stores stay out of scope, as before), and only
	// when the variable is read somewhere — a never-read variable already
	// gets the clearer DEAD002 above.
	live := dataflow.Liveness(g)
	for _, b := range g.Blocks {
		after := make([]dataflow.VarSet, len(b.Atoms))
		l := live.In[b.Index].Clone()
		for i := len(b.Atoms) - 1; i >= 0; i-- {
			after[i] = l.Clone()
			l = dataflow.LivenessStep(l, b.Atoms[i])
		}
		for i, a := range b.Atoms {
			if a.Op != cfg.OpDef {
				continue
			}
			d := g.Decls[a.Var]
			if d.Kind != cfg.DeclLet || strings.HasPrefix(d.Src, "_") {
				continue
			}
			if captured[a.Var] || reads[a.Var] == 0 {
				continue
			}
			if !after[i].Has(a.Var) {
				p.Reportf(CodeDeadStore, source.Warning, a.Expr.Span(),
					"value stored to %s is never read", d.Src)
			}
		}
	}

	deadFieldStores(p)
}

// deadFieldStores flags (set-field! o f e) when no execution can observe
// the stored value: every object o may point to is allocated in a known
// function, never leaks to unknown code, is unreachable from any global,
// and has no load of field f anywhere in the program. Any alias of the
// object shares its abstract identity, so a read through a different handle
// (or any escape that could hide one) keeps the store alive.
func deadFieldStores(p *Pass) {
	pts := p.PointsTo
	if pts == nil {
		return
	}
	visit := func(e ast.Expr) bool {
		fs, ok := e.(*ast.FieldSet)
		if !ok {
			return true
		}
		objs := pts.ExprObjects(fs.Expr)
		if len(objs) == 0 {
			return true
		}
		for _, o := range objs {
			if o.Fn == "" || pts.GlobalReachable(o) || pts.FieldLoaded(o, fs.Name) {
				return true
			}
		}
		p.Reportf(CodeDeadStore, source.Warning, fs.Span(),
			"field %s is never read through any alias of this object", fs.Name)
		return true
	}
	for _, e := range p.Fn.Body {
		ast.Walk(e, visit)
	}
}
