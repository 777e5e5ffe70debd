package analysis

import (
	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/dataflow"
	"bitc/internal/source"
)

// The definit analyzer flags reads of `mutable` locals that happen before
// the first `set!` when the binding's initialiser is a zero-value
// placeholder (0, 0.0, #f, ""): the code observes the dummy value, which is
// almost always a declare-now-assign-later slip.
//
// It is a definite-assignment dataflow problem over the function's CFG
// (forward, must, intersection at joins): a read is flagged only when some
// path from the declaration reaches it without a set!, so assigning in both
// arms of an `if` — or in every case clause — counts, while assigning in
// only one arm does not. Two idioms are exempt because their placeholder
// reads are meaningful: self-updates `(set! x (+ x e))`, and loops that
// assign the variable somewhere in their body (induction variables and
// accumulators read the previous iteration's value on every pass after the
// first), which are encoded by force-assigning the variable at the loop
// header.

// CodeDefInit is emitted for a placeholder read before first assignment.
const CodeDefInit = "BITC-INIT001"

var definitAnalyzer = register(&Analyzer{
	Name:        "definit",
	Doc:         "flow-sensitive definite initialization: mutable locals read before their first set!",
	Code:        CodeDefInit,
	PerFunction: true,
	NeedsCFG:    true,
	Run:         runDefInit,
})

func runDefInit(p *Pass) {
	g := p.CFG(nil)
	tracked := dataflow.VarSet{}
	for n, d := range g.Decls {
		if d != nil && d.Kind == cfg.DeclLet && d.Binding != nil && d.Binding.Mutable && placeholderInit(d.Binding.Init) {
			tracked[int32(n)] = struct{}{}
		}
	}
	if len(tracked) == 0 {
		return
	}

	// Placeholder initialisers do not count as assignments.
	prob := dataflow.NewMustAssign(tracked, func(*cfg.Decl) bool { return false })

	// Loop exemption: a variable assigned anywhere in a loop (including via
	// a captured set! in a closure built there) is force-assigned at the
	// loop header, so reads inside and after the loop see the accumulator
	// idiom, while reads before the loop are still checked.
	extra := map[int]dataflow.VarSet{}
	for _, head := range g.Blocks {
		if head.Loop == nil {
			continue
		}
		assigns := dataflow.VarSet{}
		for _, lb := range g.LoopBlocks(head) {
			for _, a := range lb.Atoms {
				if !tracked.Has(a.Var) {
					continue
				}
				if a.Op == cfg.OpDef || (a.Op == cfg.OpUse && a.WriteRef) {
					assigns[a.Var] = struct{}{}
				}
			}
		}
		if len(assigns) > 0 {
			extra[head.Index] = assigns
		}
	}
	prob.Extra = extra

	res := dataflow.Solve[dataflow.VarSet](g, prob)

	// Replay each block from its solved entry fact and record the earliest
	// unassigned read per variable.
	bad := map[int32]source.Span{}
	for _, b := range g.Blocks {
		assigned := res.In[b.Index].Clone()
		if ex := extra[b.Index]; ex != nil {
			for k := range ex {
				assigned[k] = struct{}{}
			}
		}
		for _, a := range b.Atoms {
			if a.Op == cfg.OpUse && tracked.Has(a.Var) &&
				!a.WriteRef && !a.SelfUpdate && !assigned.Has(a.Var) {
				sp := a.Expr.Span()
				if old, ok := bad[a.Var]; !ok || sp.Start < old.Start {
					bad[a.Var] = sp
				}
			}
			assigned = prob.Step(assigned, a)
		}
	}

	for _, n := range tracked.Sorted() {
		sp, ok := bad[n]
		if !ok {
			continue
		}
		d := g.Decls[n]
		p.Report(Finding{
			Code:     CodeDefInit,
			Severity: source.Warning,
			Span:     sp,
			Message:  "mutable local " + d.Src + " is read before its first set!; it still holds its placeholder initialiser",
			Related: []Related{{
				Span:    d.Binding.Span(),
				Message: d.Src + " declared mutable here with a placeholder value",
			}},
		})
	}
}

// placeholderInit recognises literal zero values used as "no value yet".
func placeholderInit(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value == 0
	case *ast.FloatLit:
		return e.Value == 0
	case *ast.BoolLit:
		return !e.Value
	case *ast.StringLit:
		return e.Value == ""
	}
	return false
}
