// Package dataflow is a generic worklist solver over internal/cfg graphs.
//
// A Problem describes a monotone dataflow analysis: a direction, boundary
// and initial facts, a meet operator, and a per-block transfer function
// (optionally refined per edge, which is how branch conditions feed value
// ranges). Solve iterates blocks in reverse postorder (forward) or postorder
// (backward) until a fixpoint; problems over finite lattices always
// terminate.
//
// Liveness (backward may) is the canned bit-vector instance the checkers
// need, over the use/def/decl atoms the CFG builder emits. MustAssign
// (forward must) is the definite-initialization skeleton.
package dataflow

import (
	"sort"

	"bitc/internal/cfg"
)

// Direction of propagation.
type Direction int

// Directions.
const (
	Forward Direction = iota
	Backward
)

// Problem defines one dataflow analysis over facts of type F.
type Problem[F any] interface {
	Direction() Direction
	// Boundary is the fact entering the entry block (forward) or leaving
	// the exit block (backward).
	Boundary() F
	// Init is the starting fact for every other block (the lattice top).
	Init() F
	Meet(a, b F) F
	// Transfer applies block b to the incoming fact. Implementations must
	// not mutate in; they return a fresh (or unchanged) fact.
	Transfer(b *cfg.Block, in F) F
	Equal(a, b F) bool
}

// EdgeRefiner is an optional Problem extension: Flow refines the fact
// propagated along one edge. succIdx is the index of the target in
// from.Succs, so a conditional block's true edge is 0 and false edge is 1.
type EdgeRefiner[F any] interface {
	Flow(from *cfg.Block, succIdx int, out F) F
}

// Widener is an optional extension for forward problems over infinite
// lattices (value ranges): at every loop-header block (Block.Loop != nil)
// the solver replaces the computed meet with Widen(header, prev, next),
// where prev is the header's fact from the previous iteration, so growing
// chains jump to a fixpoint in bounded steps. After the ascending phase
// converges, the solver runs two descending sweeps that call
// Narrow(header, prev, next) at loop headers — next is the freshly
// recomputed meet of predecessor facts, and Narrow recovers bounds the
// widening overshot (it must only refine, never grow, its prev argument,
// which keeps the descent sound and terminating).
type Widener[F any] interface {
	Widen(header *cfg.Block, prev, next F) F
	Narrow(header *cfg.Block, prev, next F) F
}

// Result holds the per-block fixpoint facts. For forward problems In is the
// state before the block and Out after; for backward problems In is the
// state at block exit and Out at block entry (facts flow against the edges).
type Result[F any] struct {
	In, Out []F // indexed by Block.Index
}

// Solve runs the worklist algorithm to a fixpoint.
func Solve[F any](g *cfg.Graph, p Problem[F]) *Result[F] {
	n := len(g.Blocks)
	res := &Result[F]{In: make([]F, n), Out: make([]F, n)}
	for i := 0; i < n; i++ {
		res.In[i] = p.Init()
		res.Out[i] = p.Init()
	}

	order := g.RPO()
	if p.Direction() == Backward {
		rev := make([]*cfg.Block, n)
		for i, b := range order {
			rev[n-1-i] = b
		}
		order = rev
	}
	refiner, _ := p.(EdgeRefiner[F])
	widener, _ := p.(Widener[F])
	if p.Direction() == Backward {
		widener = nil // widening/narrowing is defined on loop-header entries
	}

	// sources(b) yields the dataflow predecessors with the edge metadata
	// needed for refinement.
	type inEdge struct {
		from    *cfg.Block
		succIdx int
	}
	sources := func(b *cfg.Block) []inEdge {
		var out []inEdge
		if p.Direction() == Forward {
			for _, pred := range b.Preds {
				for i, s := range pred.Succs {
					if s == b {
						out = append(out, inEdge{pred, i})
					}
				}
			}
		} else {
			for i, s := range b.Succs {
				_ = i
				out = append(out, inEdge{s, -1})
			}
		}
		return out
	}

	inWork := make([]bool, n)
	work := make([]*cfg.Block, 0, n)
	for _, b := range order {
		work = append(work, b)
		inWork[b.Index] = true
	}
	boundary := g.Entry
	if p.Direction() == Backward {
		boundary = g.Exit
	}

	// meetIn recomputes a block's incoming fact from the current outs of its
	// dataflow sources (shared by the main worklist and the narrowing phase).
	meetIn := func(b *cfg.Block) F {
		var in F
		srcs := sources(b)
		if b == boundary && len(srcs) == 0 {
			return p.Boundary()
		}
		first := true
		for _, e := range srcs {
			f := res.Out[e.from.Index]
			if refiner != nil && p.Direction() == Forward && e.succIdx >= 0 {
				f = refiner.Flow(e.from, e.succIdx, f)
			}
			if first {
				in = f
				first = false
			} else {
				in = p.Meet(in, f)
			}
		}
		if first {
			in = p.Init()
		}
		if b == boundary {
			in = p.Meet(in, p.Boundary())
		}
		return in
	}

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b.Index] = false

		in := meetIn(b)
		if widener != nil && b.Loop != nil {
			in = widener.Widen(b, res.In[b.Index], in)
		}
		res.In[b.Index] = in
		out := p.Transfer(b, in)
		if !p.Equal(out, res.Out[b.Index]) {
			res.Out[b.Index] = out
			var next []*cfg.Block
			if p.Direction() == Forward {
				next = b.Succs
			} else {
				next = b.Preds
			}
			for _, s := range next {
				if !inWork[s.Index] {
					inWork[s.Index] = true
					work = append(work, s)
				}
			}
		}
	}

	// Descending phase: with the ascending (widened) fixpoint as a sound
	// starting point, two RPO sweeps re-derive each block's entry fact from
	// its predecessors and let Narrow pull widened bounds back down at loop
	// headers. Transfers are monotone, so every sweep stays a sound
	// over-approximation, and the pass count bounds the descent.
	if widener != nil {
		for sweep := 0; sweep < 2; sweep++ {
			for _, b := range order {
				in := meetIn(b)
				if b.Loop != nil {
					in = widener.Narrow(b, res.In[b.Index], in)
				}
				res.In[b.Index] = in
				res.Out[b.Index] = p.Transfer(b, in)
			}
		}
	}
	return res
}

// AtomProblem is a Problem whose block transfer is the in-order
// composition of a per-atom Step. Step must treat its input as immutable
// (copy-on-write), because the replay helpers feed it facts that are still
// referenced by the solver's Result.
type AtomProblem[F any] interface {
	Problem[F]
	Step(f F, a cfg.Atom) F
}

// TransferAtoms folds Step over a block's atoms in evaluation order; an
// AtomProblem's Transfer is typically exactly this call.
func TransferAtoms[F any](p AtomProblem[F], b *cfg.Block, in F) F {
	f := in
	for _, a := range b.Atoms {
		f = p.Step(f, a)
	}
	return f
}

// VisitAtoms replays a solved forward AtomProblem through block b, calling
// visit with each atom's index and the fact in force immediately before
// it. Checkers use this to recover per-atom facts from the per-block
// fixpoint without duplicating the transfer rules; visit must not mutate
// the fact it receives.
func VisitAtoms[F any](p AtomProblem[F], res *Result[F], b *cfg.Block, visit func(i int, before F)) {
	f := res.In[b.Index]
	for i, a := range b.Atoms {
		visit(i, f)
		f = p.Step(f, a)
	}
}

// ---------------------------------------------------------------------------
// Name sets (the bit-vector fact shared by the canned instances)
// ---------------------------------------------------------------------------

// NameSet is a set of unique local names.
type NameSet map[string]struct{}

// Has reports membership.
func (s NameSet) Has(name string) bool { _, ok := s[name]; return ok }

// Clone copies the set.
func (s NameSet) Clone() NameSet {
	out := make(NameSet, len(s))
	for k := range s {
		out[k] = struct{}{}
	}
	return out
}

// Names returns the sorted members (for deterministic output and tests).
func (s NameSet) Names() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalNameSets(a, b NameSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func unionNameSets(a, b NameSet) NameSet {
	out := a.Clone()
	for k := range b {
		out[k] = struct{}{}
	}
	return out
}

func intersectNameSets(a, b NameSet) NameSet {
	out := NameSet{}
	for k := range a {
		if _, ok := b[k]; ok {
			out[k] = struct{}{}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Liveness (backward may)
// ---------------------------------------------------------------------------

type livenessProblem struct{}

func (livenessProblem) Direction() Direction { return Backward }
func (livenessProblem) Boundary() NameSet    { return NameSet{} }
func (livenessProblem) Init() NameSet        { return NameSet{} }
func (livenessProblem) Meet(a, b NameSet) NameSet {
	return unionNameSets(a, b)
}
func (livenessProblem) Equal(a, b NameSet) bool { return equalNameSets(a, b) }

func (livenessProblem) Transfer(b *cfg.Block, in NameSet) NameSet {
	live := in.Clone()
	for i := len(b.Atoms) - 1; i >= 0; i-- {
		live = LivenessStep(live, b.Atoms[i])
	}
	return live
}

// LivenessStep applies one atom, in reverse order, to a live set. Exported
// so checkers can recover per-atom liveness inside a block from the solved
// block-exit facts without duplicating the transfer rules.
func LivenessStep(live NameSet, a cfg.Atom) NameSet {
	switch a.Op {
	case cfg.OpUse:
		// Deferred (closure-captured) references keep a variable live:
		// the closure may run after any store. WriteRef captures count
		// too — the closure body will reference the cell.
		live[a.Name] = struct{}{}
	case cfg.OpDef:
		delete(live, a.Name)
	case cfg.OpDecl:
		delete(live, a.Name)
	}
	return live
}

// Liveness solves backward liveness over the graph's locals. Result.Out[i]
// is the set live on entry to block i, Result.In[i] the set live at its
// exit.
func Liveness(g *cfg.Graph) *Result[NameSet] {
	return Solve[NameSet](g, livenessProblem{})
}

// ---------------------------------------------------------------------------
// Definite assignment (forward must)
// ---------------------------------------------------------------------------

// MustAssignProblem computes the set of locals definitely assigned at each
// point. Tracked restricts the analysis to the variables of interest;
// InitAssigned decides whether a declaration's initialiser already counts
// as an assignment (definite-init treats placeholder zero values as "not
// yet"). Extra names a per-block set of variables to force-assign at the
// start of that block's transfer — the hook checkers use to encode idiom
// exemptions (e.g. loop accumulators).
type MustAssignProblem struct {
	Tracked      NameSet
	InitAssigned func(d *cfg.Decl) bool
	Extra        map[int]NameSet // block index -> names assigned by fiat
	universe     NameSet
}

// NewMustAssign builds the problem for the given tracked variables.
func NewMustAssign(tracked NameSet, initAssigned func(d *cfg.Decl) bool) *MustAssignProblem {
	return &MustAssignProblem{Tracked: tracked, InitAssigned: initAssigned, universe: tracked.Clone()}
}

// Direction is Forward: assignments propagate along execution order.
func (p *MustAssignProblem) Direction() Direction { return Forward }

// Boundary is empty: nothing is assigned at function entry.
func (p *MustAssignProblem) Boundary() NameSet { return NameSet{} }

// Init is the universe: a must-analysis starts every non-boundary block at
// "all assigned" so the intersection meet only removes what some path lacks.
func (p *MustAssignProblem) Init() NameSet { return p.universe.Clone() }

// Meet intersects: a variable is definitely assigned only if every
// predecessor path assigned it.
func (p *MustAssignProblem) Meet(a, b NameSet) NameSet { return intersectNameSets(a, b) }

// Equal compares two solutions for the solver's fixpoint test.
func (p *MustAssignProblem) Equal(a, b NameSet) bool { return equalNameSets(a, b) }

// Transfer adds the block's writes (and any Extra facts) to the incoming
// assigned set.
func (p *MustAssignProblem) Transfer(b *cfg.Block, in NameSet) NameSet {
	out := in.Clone()
	if extra := p.Extra[b.Index]; extra != nil {
		for k := range extra {
			out[k] = struct{}{}
		}
	}
	for _, a := range b.Atoms {
		out = p.Step(out, a)
	}
	return out
}

// Step applies one atom to an assigned-set; exported for per-atom replay.
func (p *MustAssignProblem) Step(assigned NameSet, a cfg.Atom) NameSet {
	switch a.Op {
	case cfg.OpDef:
		if !a.Deferred && p.Tracked.Has(a.Name) {
			assigned[a.Name] = struct{}{}
		}
	case cfg.OpDecl:
		if p.Tracked.Has(a.Name) {
			if p.InitAssigned == nil || p.InitAssigned(a.Decl) {
				assigned[a.Name] = struct{}{}
			} else {
				delete(assigned, a.Name)
			}
		}
	}
	return assigned
}
