package dataflow_test

import (
	"testing"

	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/dataflow"
	"bitc/internal/parser"
	"bitc/internal/types"
)

func buildFn(t *testing.T, src, name string) *cfg.Graph {
	t.Helper()
	prog, diags := parser.Parse("t.bitc", src)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	info, cdiags := types.Check(prog)
	if cdiags.HasErrors() {
		t.Fatalf("check: %v", cdiags)
	}
	for _, d := range prog.Defs {
		if fn, ok := d.(*ast.DefineFunc); ok && fn.Name == name {
			return cfg.Build(fn, info)
		}
	}
	t.Fatalf("no function %s", name)
	return nil
}

// local returns the binding number of g's first local named src.
func local(t *testing.T, g *cfg.Graph, src string) int32 {
	t.Helper()
	for _, d := range g.Decls {
		if d != nil && d.Src == src {
			return d.Bind
		}
	}
	t.Fatalf("no local %s", src)
	return 0
}

func TestLivenessDiamond(t *testing.T) {
	g := buildFn(t, `
(define (f (a int64)) int64
  (let ((mutable x 0) (mutable y 0))
    (if (< a 0) (set! x 1) (set! y 2))
    (+ x y)))
`, "f")
	res := dataflow.Liveness(g)
	// The join reads both x and y, so entering each arm the variable the
	// *other* arm assigns is live, while the arm's own target is killed by
	// its store.
	thenB, elseB := g.Entry.Succs[0], g.Entry.Succs[1]
	if live := res.Out[thenB.Index]; live.Has(local(t, g, "x")) || !live.Has(local(t, g, "y")) {
		t.Fatalf("then-arm entry live set should be {y}, got %v\n%s", live.Sorted(), g)
	}
	if live := res.Out[elseB.Index]; !live.Has(local(t, g, "x")) || live.Has(local(t, g, "y")) {
		t.Fatalf("else-arm entry live set should be {x}, got %v\n%s", live.Sorted(), g)
	}
	// Nothing is live at function exit.
	if n := res.In[g.Exit.Index].Sorted(); len(n) != 0 {
		t.Fatalf("exit live set should be empty, got %v", n)
	}
}

func TestLivenessDeadStoreVisible(t *testing.T) {
	g := buildFn(t, `
(define (f) int64
  (let ((mutable x 1))
    (set! x 2)
    (set! x 3)
    x))
`, "f")
	res := dataflow.Liveness(g)
	// Replay atoms backward in the single block: after (set! x 2), x must be
	// dead (immediately overwritten), after (set! x 3) it is live.
	b := g.Entry
	live := res.In[b.Index].Clone()
	liveAfter := make([]dataflow.VarSet, len(b.Atoms))
	for i := len(b.Atoms) - 1; i >= 0; i-- {
		liveAfter[i] = live.Clone()
		live = dataflow.LivenessStep(live, b.Atoms[i])
	}
	defs := 0
	for i, a := range b.Atoms {
		if a.Op != cfg.OpDef {
			continue
		}
		defs++
		switch defs {
		case 1: // (set! x 2) — overwritten before any read
			if liveAfter[i].Has(local(t, g, "x")) {
				t.Fatalf("x live after dead store:\n%s", g)
			}
		case 2: // (set! x 3) — read by the final x
			if !liveAfter[i].Has(local(t, g, "x")) {
				t.Fatalf("x dead after live store:\n%s", g)
			}
		}
	}
	if defs != 2 {
		t.Fatalf("want 2 defs, got %d", defs)
	}
}

func TestLivenessLoop(t *testing.T) {
	g := buildFn(t, `
(define (f) int64
  (let ((mutable i 0))
    (while (< i 10)
      (set! i (+ i 1)))
    i))
`, "f")
	res := dataflow.Liveness(g)
	var head *cfg.Block
	for _, b := range g.Blocks {
		if b.Loop != nil {
			head = b
		}
	}
	// i is live entering the loop header (read by the condition and after).
	if !res.Out[head.Index].Has(local(t, g, "i")) {
		t.Fatalf("i should be live entering loop header\n%s", g)
	}
}

// trackAll builds a MustAssign problem over every let-bound local, where no
// initialiser counts as an assignment.
func trackAll(g *cfg.Graph) *dataflow.MustAssignProblem {
	tracked := dataflow.VarSet{}
	for _, d := range g.Decls {
		if d != nil && d.Kind == cfg.DeclLet {
			tracked[d.Bind] = struct{}{}
		}
	}
	return dataflow.NewMustAssign(tracked, func(d *cfg.Decl) bool { return false })
}

func TestMustAssignBothArms(t *testing.T) {
	g := buildFn(t, `
(define (f (a int64)) int64
  (let ((mutable x 0))
    (if (< a 0) (set! x 1) (set! x 2))
    x))
`, "f")
	res := dataflow.Solve[dataflow.VarSet](g, trackAll(g))
	if !res.In[g.Exit.Index].Has(local(t, g, "x")) {
		t.Fatalf("x assigned in both arms should be definitely assigned at join\n%s", g)
	}
}

func TestMustAssignOneArmOnly(t *testing.T) {
	g := buildFn(t, `
(define (f (a int64)) int64
  (let ((mutable x 0))
    (if (< a 0) (set! x 1) ())
    x))
`, "f")
	res := dataflow.Solve[dataflow.VarSet](g, trackAll(g))
	if res.In[g.Exit.Index].Has(local(t, g, "x")) {
		t.Fatalf("x assigned in one arm must not be definitely assigned at join\n%s", g)
	}
}

func TestMustAssignExtraForcesBlock(t *testing.T) {
	g := buildFn(t, `
(define (f (a int64)) int64
  (let ((mutable x 0))
    (if (< a 0) (set! x 1) ())
    x))
`, "f")
	p := trackAll(g)
	p.Extra = map[int]dataflow.VarSet{
		g.Exit.Index: {local(t, g, "x"): struct{}{}},
	}
	res := dataflow.Solve[dataflow.VarSet](g, p)
	if !res.Out[g.Exit.Index].Has(local(t, g, "x")) {
		t.Fatalf("Extra should force-assign x in the join block")
	}
}

func TestMustAssignLoopConservative(t *testing.T) {
	// A loop body assignment does not definitely assign for code after the
	// loop (zero iterations).
	g := buildFn(t, `
(define (f) int64
  (let ((mutable i 0) (mutable x 0))
    (while (< i 3)
      (set! x 7)
      (set! i (+ i 1)))
    x))
`, "f")
	res := dataflow.Solve[dataflow.VarSet](g, trackAll(g))
	if res.In[g.Exit.Index].Has(local(t, g, "x")) {
		t.Fatalf("loop-body assignment must not count as definite\n%s", g)
	}
}

// rangeFact is a toy interval fact used to exercise EdgeRefiner.
type rangeFact map[int32]int // local -> upper bound (exclusive), -1 = unknown

type refineProblem struct {
	g *cfg.Graph
}

func (refineProblem) Direction() dataflow.Direction { return dataflow.Forward }
func (refineProblem) Boundary() rangeFact           { return rangeFact{} }
func (refineProblem) Init() rangeFact               { return rangeFact{} }

func (refineProblem) Meet(a, b rangeFact) rangeFact {
	out := rangeFact{}
	for k, v := range a {
		if w, ok := b[k]; ok {
			if w > v {
				out[k] = w
			} else {
				out[k] = v
			}
		}
	}
	return out
}

func (refineProblem) Equal(a, b rangeFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func (refineProblem) Transfer(b *cfg.Block, in rangeFact) rangeFact {
	out := rangeFact{}
	for k, v := range in {
		out[k] = v
	}
	return out
}

// Flow narrows x on the true edge of (< x N).
func (p refineProblem) Flow(from *cfg.Block, succIdx int, out rangeFact) rangeFact {
	call, ok := from.Cond.(*ast.Call)
	if !ok || succIdx != 0 {
		return out
	}
	fn, ok := call.Fn.(*ast.VarRef)
	if !ok || fn.Name != "<" || len(call.Args) != 2 {
		return out
	}
	v, ok := call.Args[0].(*ast.VarRef)
	if !ok {
		return out
	}
	lit, ok := call.Args[1].(*ast.IntLit)
	if !ok {
		return out
	}
	name := p.g.Var(v)
	if name == 0 {
		return out
	}
	refined := rangeFact{}
	for k, val := range out {
		refined[k] = val
	}
	refined[name] = int(lit.Value)
	return refined
}

func TestEdgeRefinerNarrowsTrueEdge(t *testing.T) {
	g := buildFn(t, `
(define (f (a int64)) int64
  (let ((mutable x 100))
    (if (< x 10) x 0)))
`, "f")
	res := dataflow.Solve[rangeFact](g, refineProblem{g: g})
	thenB, elseB := g.Entry.Succs[0], g.Entry.Succs[1]
	if res.In[thenB.Index][local(t, g, "x")] != 10 {
		t.Fatalf("true edge should narrow x < 10, got %v", res.In[thenB.Index])
	}
	if _, ok := res.In[elseB.Index][local(t, g, "x")]; ok {
		t.Fatalf("false edge should stay unrefined, got %v", res.In[elseB.Index])
	}
}
