package analysis

// The bounds analyzer is the static twin of the VM's vector bounds check
// (`vector index %d out of range 0..%d`, internal/vm/exec.go). It runs a
// relational interval analysis over the function's CFG — the
// internal/dataflow/interval domain extended with symbolic difference
// bounds (`i <= n+k`, `i >= n+k`) — and resolves every
// `vector-ref`/`vector-set!` site against the length of the vector it
// accesses, recovered from `make-vector`/`vector` allocation sites through
// the points-to object graph.
//
// The engine is the package's one range analysis: BITC-TRUNC001 and
// BITC-PROV001 run it without a points-to graph and read cast operands off
// its solution.
//
// Three mechanisms make loops provable:
//
//   - branch refinement: `(< i n)` on the true edge records both the
//     numeric clamp and the symbolic fact i <= n-1;
//   - loop-induction recognition: `(set! i (+ i 1))` shifts i's numeric
//     range and its symbolic offsets instead of discarding them, and the
//     solver's widening/narrowing hooks (dataflow.Widener) converge the
//     growing counter without losing the loop exit bound;
//   - symbolic lengths: `(make-vector n 0)` records len(v) = n against the
//     allocation's points-to object, so `i <= n-1` discharges `v[i]`
//     without knowing n.
//
// Verdicts per site: provably out of range (BITC-BOUND001, error — the
// trap always fires if the site executes), proved in range (no finding;
// the site joins the BoundsProofs set that internal/vm uses to elide its
// bounds checks), or neither (BITC-BOUND002, a note shown under -strict).

import (
	"fmt"
	"math/big"

	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/dataflow"
	"bitc/internal/dataflow/interval"
	"bitc/internal/pointsto"
	"bitc/internal/source"
	"bitc/internal/types"
)

// Bounds lint codes.
const (
	// CodeBoundOOB flags a vector access that is provably out of range on
	// every execution reaching it.
	CodeBoundOOB = "BITC-BOUND001"
	// CodeBoundMaybe flags a vector access the prover could not discharge;
	// it is informational and rendered only under -strict.
	CodeBoundMaybe = "BITC-BOUND002"
)

var boundsAnalyzer = register(&Analyzer{
	Name:          "bounds",
	Doc:           "relational vector-bounds verification: branch-refined, loop-inducted ranges against symbolic vector lengths",
	Code:          CodeBoundOOB,
	Codes:         []string{CodeBoundOOB, CodeBoundMaybe},
	PerFunction:   true,
	NeedsCFG:      true,
	NeedsPointsTo: true,
	Run:           runBounds,
})

func runBounds(p *Pass) {
	if !hasVectorSite(p.Info, p.Fn) {
		return // nothing to classify: skip the engine set-up and dataflow solve
	}
	eng := newBoundsEngine(p.Info, p.CFG(nil), p.PointsTo, p.Fn.Name)
	for _, s := range eng.analyze() {
		switch s.verdict {
		case siteOOB:
			p.Reportf(CodeBoundOOB, source.Error, s.span, "%s", s.msg)
		case siteUnproven:
			p.Reportf(CodeBoundMaybe, source.Note, s.span, "%s", s.msg)
		}
	}
}

// siteVerdict classifies one static vector-access site.
type siteVerdict int

const (
	siteProved siteVerdict = iota
	siteOOB
	siteUnproven
)

// boundsSite is the engine's result for one vector-ref/vector-set! site.
type boundsSite struct {
	span    source.Span
	verdict siteVerdict
	msg     string
}

// lenFact is what the engine knows about the length of the vectors
// allocated at one site: a numeric range, and optionally an exact symbolic
// form length == sym + k for a local (by binding number) whose value is
// stable over the whole function activation.
type lenFact struct {
	rng *interval.I
	sym int32
	k   *big.Int
}

// lenString renders lf for messages, naming its anchor as the graph does.
func (eng *boundsEngine) lenString(lf *lenFact) string {
	if lf == nil {
		return "unknown"
	}
	if lf.sym != 0 {
		if lf.k.Sign() == 0 {
			return eng.g.Name(lf.sym)
		}
		return fmt.Sprintf("%s%+d", eng.g.Name(lf.sym), lf.k)
	}
	return lf.rng.String()
}

// bFact is the per-variable dataflow fact: a numeric interval plus
// symbolic difference bounds (var <= sym+k for each ub entry, var >= sym+k
// for each lb entry), keyed by the anchor's binding number. Facts are
// immutable; transfer builds fresh ones.
type bFact struct {
	rng    *interval.I
	ub, lb map[int32]*big.Int
}

func (f *bFact) clone() *bFact {
	out := &bFact{rng: f.rng}
	if len(f.ub) > 0 {
		out.ub = make(map[int32]*big.Int, len(f.ub))
		for k, v := range f.ub {
			out.ub[k] = v
		}
	}
	if len(f.lb) > 0 {
		out.lb = make(map[int32]*big.Int, len(f.lb))
		for k, v := range f.lb {
			out.lb[k] = v
		}
	}
	return out
}

// shift translates the fact by a constant: numeric range and every
// symbolic offset move together — this is what keeps `(set! i (+ i 1))`
// style induction updates relational instead of destructive.
func (f *bFact) shift(k *big.Int) *bFact {
	out := &bFact{rng: interval.Shift(f.rng, k)}
	if len(f.ub) > 0 {
		out.ub = make(map[int32]*big.Int, len(f.ub))
		for s, v := range f.ub {
			out.ub[s] = new(big.Int).Add(v, k)
		}
	}
	if len(f.lb) > 0 {
		out.lb = make(map[int32]*big.Int, len(f.lb))
		for s, v := range f.lb {
			out.lb[s] = new(big.Int).Add(v, k)
		}
	}
	return out
}

func eqSymBounds(a, b map[int32]*big.Int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || av.Cmp(bv) != 0 {
			return false
		}
	}
	return true
}

// boundsEnv is the dataflow fact: known facts for locals, plus a
// reachability flag distinguishing bottom from "reachable, nothing known".
type boundsEnv struct {
	reached bool
	vars    map[int32]*bFact
}

func (e boundsEnv) clone() boundsEnv {
	out := boundsEnv{reached: e.reached, vars: make(map[int32]*bFact, len(e.vars))}
	for k, v := range e.vars {
		out.vars[k] = v
	}
	return out
}

// boundsEngine is the forward relational-interval problem plus the site
// checker built on its solution. One engine analyzes one function.
type boundsEngine struct {
	info *types.Info
	g    *cfg.Graph
	pts  *pointsto.Result
	fn   string

	// volatile: locals a closure may assign — never tracked.
	volatile []bool
	// assigned: locals that are the target of any set!.
	assigned []bool
	// inLoop marks blocks that belong to some natural loop; a symbol
	// declared inside a loop is re-bound per iteration and cannot anchor a
	// flow-insensitive length fact.
	inLoop []bool
	// lens maps each points-to vector object to its length fact.
	lens map[*pointsto.Object]*lenFact
}

func newBoundsEngine(info *types.Info, g *cfg.Graph, pts *pointsto.Result, fn string) *boundsEngine {
	eng := &boundsEngine{
		info: info, g: g, pts: pts, fn: fn,
		volatile: make([]bool, len(g.Decls)),
		assigned: make([]bool, len(g.Decls)),
		inLoop:   make([]bool, len(g.Blocks)),
		lens:     map[*pointsto.Object]*lenFact{},
	}
	for _, b := range g.Blocks {
		for _, a := range b.Atoms {
			if a.Op == cfg.OpUse && a.Deferred && a.WriteRef {
				eng.volatile[a.Var] = true
			}
			if a.Op == cfg.OpDef {
				eng.assigned[a.Var] = true
			}
		}
		if b.Loop != nil {
			for _, m := range g.LoopBlocks(b) {
				eng.inLoop[m.Index] = true
			}
		}
	}
	eng.scanAllocs()
	return eng
}

// symOK reports whether local n can appear as the anchor of a symbolic bound:
// its value must not change underneath the fact. Loop induction variables
// advance without a set! atom, so they are excluded too (an upper bound
// over a monotonically increasing counter would stay sound, but a lower
// bound would not; excluding them keeps the fact language uniform).
func (eng *boundsEngine) symOK(n int32) bool {
	if n == 0 || eng.volatile[n] || eng.assigned[n] {
		return false
	}
	return eng.g.Decls[n].Kind != cfg.DeclLoop
}

// scanAllocs records a length fact for every vector allocation site in the
// function. Length facts are flow-insensitive (an object's element count is
// fixed at allocation), so counts are evaluated under the empty environment:
// literals, casts, and stable symbols survive; anything else degrades to the
// count's type range. A symbolic anchor additionally requires the anchoring
// local to be declared outside any loop — a let re-bound per iteration has a
// different value for each allocated instance.
func (eng *boundsEngine) scanAllocs() {
	if eng.pts == nil {
		return // no object graph: every vector length stays unknown
	}
	for _, b := range eng.g.Blocks {
		for _, a := range b.Atoms {
			if a.Op != cfg.OpCall {
				continue
			}
			call, ok := a.Expr.(*ast.Call)
			if !ok {
				continue
			}
			var lf *lenFact
			switch eng.builtin(call) {
			case "make-vector":
				if len(call.Args) != 2 {
					continue
				}
				cf := eng.evalFact(boundsEnv{reached: true}, call.Args[0])
				if cf == nil {
					continue
				}
				lf = &lenFact{rng: cf.rng}
				// An exact symbolic length needs matching upper and lower
				// offsets against the same stable, loop-free anchor.
				for s, hi := range cf.ub {
					if lo, ok := cf.lb[s]; ok && lo.Cmp(hi) == 0 && eng.stableAnchor(s) {
						lf.sym, lf.k = s, hi
						break
					}
				}
			case "vector":
				lf = &lenFact{rng: interval.Of(int64(len(call.Args)), int64(len(call.Args)))}
			default:
				continue
			}
			// A vector that exists has a non-negative length (a negative
			// make-vector count traps at the allocation, so no access ever
			// sees it).
			lf.rng = interval.Intersect(lf.rng, interval.New(big.NewInt(0), nil))
			for _, o := range eng.pts.ExprObjects(call) {
				if o.Kind == pointsto.ObjVector {
					eng.lens[o] = lf
				}
			}
		}
	}
}

// stableAnchor reports whether local n may anchor a flow-insensitive
// length fact: symOK plus declared outside every loop (parameters always
// qualify).
func (eng *boundsEngine) stableAnchor(n int32) bool {
	if !eng.symOK(n) {
		return false
	}
	if eng.g.Decls[n].Kind == cfg.DeclParam {
		return true
	}
	for _, b := range eng.g.Blocks {
		for _, a := range b.Atoms {
			if a.Op == cfg.OpDecl && a.Var == n {
				return !eng.inLoop[b.Index]
			}
		}
	}
	return false
}

// replay solves the dataflow problem and calls visit on every atom, in
// block/atom order, with the environment just before it. Deferred atoms
// (run at an unknown later point) and atoms in refinement-unreachable
// blocks get the empty reachable environment.
func (eng *boundsEngine) replay(visit func(env boundsEnv, a cfg.Atom)) {
	res := dataflow.Solve[boundsEnv](eng.g, eng)
	for _, b := range eng.g.Blocks {
		env := res.In[b.Index]
		for _, a := range b.Atoms {
			if a.Deferred || !env.reached {
				visit(boundsEnv{reached: true}, a)
			} else {
				visit(env, a)
			}
			env = eng.step(env, a)
		}
	}
}

// analyze classifies every vector-access site.
func (eng *boundsEngine) analyze() []boundsSite {
	var sites []boundsSite
	eng.replay(func(env boundsEnv, a cfg.Atom) {
		if call, ok := a.Expr.(*ast.Call); ok && a.Op == cfg.OpCall && isVectorAccess(eng.info, call) {
			sites = append(sites, eng.checkSite(env, call))
		}
	})
	return sites
}

// checkSite resolves one access against the length of the vector operand.
func (eng *boundsEngine) checkSite(env boundsEnv, call *ast.Call) boundsSite {
	s := boundsSite{span: call.Span()}
	lf := eng.lenOf(call.Args[0])
	idx := eng.evalFact(env, call.Args[1])
	if idx == nil {
		idx = &bFact{rng: interval.Top()}
	}

	// Provably out of range: the index is always negative, or always at or
	// beyond every possible length.
	if idx.rng.Hi != nil && idx.rng.Hi.Sign() < 0 {
		s.verdict = siteOOB
		s.msg = fmt.Sprintf("vector index is always out of range: index range %s is entirely negative", idx.rng)
		return s
	}
	if lf != nil {
		alwaysOver := lf.rng.Hi != nil && idx.rng.Lo != nil && idx.rng.Lo.Cmp(lf.rng.Hi) >= 0
		if !alwaysOver && lf.sym != 0 {
			// index >= sym + k == length on every execution.
			if lo, ok := idx.lb[lf.sym]; ok && lo.Cmp(lf.k) >= 0 {
				alwaysOver = true
			}
		}
		if alwaysOver {
			s.verdict = siteOOB
			s.msg = fmt.Sprintf("vector index is always out of range: index range %s never falls below the vector length %s", idx.rng, eng.lenString(lf))
			return s
		}
	}

	// Proved in range: non-negative below, under the length above (either
	// numerically against the smallest possible length, or symbolically
	// against an exact length anchor).
	if idx.rng.Nonneg() && lf != nil {
		under := lf.rng.Lo != nil && idx.rng.Hi != nil && idx.rng.Hi.Cmp(lf.rng.Lo) < 0
		if !under && lf.sym != 0 {
			// index <= sym + k' with k' <= k-1 means index <= length-1.
			if hi, ok := idx.ub[lf.sym]; ok && hi.Cmp(new(big.Int).Sub(lf.k, big.NewInt(1))) <= 0 {
				under = true
			}
		}
		if under {
			s.verdict = siteProved
			return s
		}
	}

	s.verdict = siteUnproven
	s.msg = fmt.Sprintf("vector index may be out of range: the prover cannot discharge index range %s against vector length %s", idx.rng, eng.lenString(lf))
	return s
}

// lenOf resolves the vector operand to its allocation-site length fact,
// which requires the points-to set to be a single known vector object.
func (eng *boundsEngine) lenOf(e ast.Expr) *lenFact {
	if eng.pts == nil {
		return nil
	}
	var objs []*pointsto.Object
	if v, ok := e.(*ast.VarRef); ok {
		if n := eng.g.Var(v); n != 0 {
			objs = eng.pts.VarObjects(eng.fn, n)
		} else if sym := eng.info.Use(v); sym != nil && sym.Kind == types.SymGlobal {
			objs = eng.pts.GlobalObjects(v.Name)
		}
	} else {
		objs = eng.pts.ExprObjects(e)
	}
	if len(objs) != 1 {
		return nil
	}
	return eng.lens[objs[0]]
}

// ---------------------------------------------------------------------------
// Dataflow problem
// ---------------------------------------------------------------------------

// Direction is Forward: facts follow evaluation order.
func (eng *boundsEngine) Direction() dataflow.Direction { return dataflow.Forward }

// Boundary is the reachable empty environment at function entry.
func (eng *boundsEngine) Boundary() boundsEnv { return boundsEnv{reached: true} }

// Init is bottom (unreached).
func (eng *boundsEngine) Init() boundsEnv { return boundsEnv{} }

// Meet joins two paths: interval hull on numeric ranges, and the weaker of
// each common symbolic offset (max for upper bounds, min for lower); facts
// not present on both sides are dropped. Bottom is the identity.
func (eng *boundsEngine) Meet(a, b boundsEnv) boundsEnv {
	if !a.reached {
		return b
	}
	if !b.reached {
		return a
	}
	out := boundsEnv{reached: true, vars: map[int32]*bFact{}}
	for k, av := range a.vars {
		bv, ok := b.vars[k]
		if !ok {
			continue
		}
		m := &bFact{rng: interval.Hull(av.rng, bv.rng)}
		for s, ak := range av.ub {
			if bk, ok := bv.ub[s]; ok {
				if bk.Cmp(ak) > 0 {
					ak = bk
				}
				if m.ub == nil {
					m.ub = map[int32]*big.Int{}
				}
				m.ub[s] = ak
			}
		}
		for s, ak := range av.lb {
			if bk, ok := bv.lb[s]; ok {
				if bk.Cmp(ak) < 0 {
					ak = bk
				}
				if m.lb == nil {
					m.lb = map[int32]*big.Int{}
				}
				m.lb[s] = ak
			}
		}
		out.vars[k] = m
	}
	return out
}

// Equal compares environments for the solver's fixpoint test.
func (eng *boundsEngine) Equal(a, b boundsEnv) bool {
	if a.reached != b.reached || len(a.vars) != len(b.vars) {
		return false
	}
	for k, av := range a.vars {
		bv, ok := b.vars[k]
		if !ok || !av.rng.Eq(bv.rng) || !eqSymBounds(av.ub, bv.ub) || !eqSymBounds(av.lb, bv.lb) {
			return false
		}
	}
	return true
}

// Transfer folds step over the block's atoms.
func (eng *boundsEngine) Transfer(b *cfg.Block, in boundsEnv) boundsEnv {
	if !in.reached {
		return in
	}
	out := in.clone()
	for _, a := range b.Atoms {
		out = eng.step(out, a)
	}
	return out
}

// Widen accelerates loop convergence: numeric ranges widen side-wise
// (interval.Widen), symbolic offsets survive only while stable, and facts
// absent from the previous iteration pass through (first visit).
func (eng *boundsEngine) Widen(_ *cfg.Block, prev, next boundsEnv) boundsEnv {
	if !prev.reached || !next.reached {
		return next
	}
	out := boundsEnv{reached: true, vars: map[int32]*bFact{}}
	for k, nv := range next.vars {
		pv, ok := prev.vars[k]
		if !ok {
			out.vars[k] = nv
			continue
		}
		w := &bFact{rng: interval.Widen(pv.rng, nv.rng)}
		for s, nk := range nv.ub {
			if pk, ok := pv.ub[s]; ok && pk.Cmp(nk) == 0 {
				if w.ub == nil {
					w.ub = map[int32]*big.Int{}
				}
				w.ub[s] = nk
			}
		}
		for s, nk := range nv.lb {
			if pk, ok := pv.lb[s]; ok && pk.Cmp(nk) == 0 {
				if w.lb == nil {
					w.lb = map[int32]*big.Int{}
				}
				w.lb[s] = nk
			}
		}
		out.vars[k] = w
	}
	return out
}

// Narrow refines the widened header fact during the descending phase: each
// variable keeps its symbolic bounds and narrows its numeric range against
// the freshly recomputed meet (interval.Narrow only fills widened sides, so
// the descent is sound and bounded).
func (eng *boundsEngine) Narrow(_ *cfg.Block, prev, next boundsEnv) boundsEnv {
	if !prev.reached || !next.reached {
		return prev
	}
	out := boundsEnv{reached: true, vars: map[int32]*bFact{}}
	for k, pv := range prev.vars {
		nv, ok := next.vars[k]
		if !ok {
			out.vars[k] = pv
			continue
		}
		n := pv.clone()
		n.rng = interval.Narrow(pv.rng, nv.rng)
		out.vars[k] = n
	}
	return out
}

// step applies one atom (shared by Transfer and the checker's replay).
func (eng *boundsEngine) step(env boundsEnv, a cfg.Atom) boundsEnv {
	if !env.reached {
		return env
	}
	switch a.Op {
	case cfg.OpDef:
		if a.Deferred {
			return env
		}
		if s, ok := a.Expr.(*ast.Set); ok {
			nf := eng.evalFact(env, s.Value)
			return eng.rebind(env, a.Var, nf)
		}
	case cfg.OpDecl:
		switch a.Decl.Kind {
		case cfg.DeclLet:
			return eng.rebind(env, a.Var, eng.evalFact(env, a.Decl.Binding.Init))
		case cfg.DeclLoop:
			// dotimes counts i = 0 .. count-1: the numeric upper bound comes
			// from the count's range, the symbolic ones from the count's
			// anchors shifted down by one.
			if dt, ok := a.Decl.Node.(*ast.DoTimes); ok {
				cf := eng.evalFact(env, dt.Count)
				if cf != nil {
					f := cf.shift(big.NewInt(-1))
					f.rng = interval.Intersect(f.rng, interval.New(big.NewInt(0), nil))
					f.lb = nil // i starts at 0 regardless of the count's floor
					return eng.rebind(env, a.Var, f)
				}
			}
			return eng.rebind(env, a.Var, nil)
		default:
			return eng.rebind(env, a.Var, nil)
		}
	}
	return env
}

// rebind installs a new fact for local name (nil clears it) and
// invalidates every symbolic bound anchored on name — its value just
// changed.
func (eng *boundsEngine) rebind(env boundsEnv, name int32, f *bFact) boundsEnv {
	if eng.volatile[name] {
		return env
	}
	out := env.clone()
	for k, v := range out.vars {
		if _, ok := v.ub[name]; !ok {
			if _, ok := v.lb[name]; !ok {
				continue
			}
		}
		nv := v.clone()
		delete(nv.ub, name)
		delete(nv.lb, name)
		out.vars[k] = nv
	}
	if f == nil {
		delete(out.vars, name)
		return out
	}
	// A self-referential bound (x <= x+k from evaluating the old x) is
	// meaningless after the rebind.
	if _, ok := f.ub[name]; ok {
		f = f.clone()
		delete(f.ub, name)
		delete(f.lb, name)
	} else if _, ok := f.lb[name]; ok {
		f = f.clone()
		delete(f.lb, name)
	}
	out.vars[name] = f
	return out
}

// Flow refines the fact along a branch edge: succ 0 is the true edge,
// succ 1 the false edge (dataflow.EdgeRefiner).
func (eng *boundsEngine) Flow(from *cfg.Block, succIdx int, out boundsEnv) boundsEnv {
	if !out.reached || from.Cond == nil || len(from.Succs) != 2 {
		return out
	}
	return eng.refine(out, from.Cond, succIdx == 0)
}

// builtin returns the builtin call's head denotes, or "" (a closure call,
// a defined function, a head that is not a name).
func (eng *boundsEngine) builtin(call *ast.Call) string {
	if v, ok := call.Fn.(*ast.VarRef); ok {
		return eng.info.Builtin(v)
	}
	return ""
}

// refine applies a branch condition's truth to the environment.
func (eng *boundsEngine) refine(env boundsEnv, cond ast.Expr, truth bool) boundsEnv {
	call, ok := cond.(*ast.Call)
	if !ok {
		return env
	}
	op := eng.builtin(call)
	switch op {
	case "not":
		if len(call.Args) == 1 {
			return eng.refine(env, call.Args[0], !truth)
		}
		return env
	case "and":
		if truth {
			for _, a := range call.Args {
				env = eng.refine(env, a, true)
			}
		}
		return env
	case "or":
		if !truth {
			for _, a := range call.Args {
				env = eng.refine(env, a, false)
			}
		}
		return env
	}
	if len(call.Args) != 2 {
		return env
	}
	a, b := call.Args[0], call.Args[1]
	switch op {
	case ">", ">=": // (> a b) is (< b a)
		a, b = b, a
	case "=":
		if truth {
			env = eng.constrainLess(env, a, b, false)
			return eng.constrainLess(env, b, a, false)
		}
		return env
	}
	switch op {
	case "<", ">":
		if truth {
			return eng.constrainLess(env, a, b, true)
		}
		return eng.constrainLess(env, b, a, false) // !(a<b) == b<=a
	case "<=", ">=":
		if truth {
			return eng.constrainLess(env, a, b, false)
		}
		return eng.constrainLess(env, b, a, true) // !(a<=b) == b<a
	}
	return env
}

// constrainLess records a < b (strict) or a <= b into the environment,
// clamping both operands numerically and merging symbolic offsets from the
// opposite side. A numeric contradiction makes the edge unreachable.
func (eng *boundsEngine) constrainLess(env boundsEnv, a, b ast.Expr, strict bool) boundsEnv {
	af, bf := eng.evalFact(env, a), eng.evalFact(env, b)
	gap := big.NewInt(0)
	if strict {
		gap = big.NewInt(1)
	}
	if bf != nil {
		env = eng.applyBound(env, a, bf.shift(new(big.Int).Neg(gap)), true)
	}
	if !env.reached {
		return env
	}
	if af != nil {
		env = eng.applyBound(env, b, af.shift(gap), false)
	}
	return env
}

// applyBound clamps the local named by e with the given side of bound:
// upper=true installs e <= bound (numeric Hi plus bound's ub anchors),
// upper=false installs e >= bound (numeric Lo plus bound's lb anchors).
func (eng *boundsEngine) applyBound(env boundsEnv, e ast.Expr, bound *bFact, upper bool) boundsEnv {
	if !env.reached {
		return env
	}
	v, ok := e.(*ast.VarRef)
	if !ok {
		return env
	}
	name := eng.g.Var(v)
	if name == 0 || eng.volatile[name] {
		return env
	}
	cur := eng.evalFact(env, e)
	if cur == nil {
		return env
	}
	next := cur.clone()
	if upper {
		next.rng = interval.Intersect(next.rng, interval.New(nil, bound.rng.Hi))
		for s, k := range bound.ub {
			if s == name || !eng.symOK(s) {
				continue
			}
			if old, ok := next.ub[s]; !ok || k.Cmp(old) < 0 {
				if next.ub == nil {
					next.ub = map[int32]*big.Int{}
				}
				next.ub[s] = k
			}
		}
	} else {
		next.rng = interval.Intersect(next.rng, interval.New(bound.rng.Lo, nil))
		for s, k := range bound.lb {
			if s == name || !eng.symOK(s) {
				continue
			}
			if old, ok := next.lb[s]; !ok || k.Cmp(old) > 0 {
				if next.lb == nil {
					next.lb = map[int32]*big.Int{}
				}
				next.lb[s] = k
			}
		}
	}
	if next.rng.Empty() {
		return boundsEnv{} // condition can never hold: edge unreachable
	}
	out := env.clone()
	out.vars[name] = next
	return out
}

// evalFact computes a conservative fact for e under env, or nil when e is
// not integer-valued. The fallback for unknown expressions is the full
// (finite) type range with no symbolic bounds.
func (eng *boundsEngine) evalFact(env boundsEnv, e ast.Expr) *bFact {
	t := types.Prune(eng.info.TypeOf(e))
	full := typeRange(t)
	fallback := func() *bFact {
		if full == nil {
			return nil
		}
		return &bFact{rng: full}
	}
	switch e := e.(type) {
	case *ast.IntLit:
		return &bFact{rng: interval.Point(big.NewInt(e.Value))}
	case *ast.CharLit:
		return &bFact{rng: interval.Point(big.NewInt(int64(e.Value)))}
	case *ast.VarRef:
		name := eng.g.Var(e)
		if name == 0 {
			return fallback()
		}
		f := env.vars[name]
		if f == nil {
			if full == nil {
				return nil
			}
			f = &bFact{rng: full}
		} else if full != nil && !f.rng.Within(full) {
			// A value fits its type (the checker rejects out-of-range
			// literals; the VM wraps arithmetic and casts), however far
			// widening pushed the stored range. A range disjoint from the
			// type comes from a wrapped 64-bit +/- (see wrapFact).
			if r := interval.Intersect(f.rng, full); r.Empty() {
				f = &bFact{rng: full}
			} else {
				f = f.clone()
				f.rng = r
			}
		}
		// A stable local is its own exact symbolic anchor: x <= x+0 and
		// x >= x+0 — the seed every relational fact grows from.
		if eng.symOK(name) {
			f = f.clone()
			if _, ok := f.ub[name]; !ok {
				if f.ub == nil {
					f.ub = map[int32]*big.Int{}
				}
				f.ub[name] = big.NewInt(0)
			}
			if _, ok := f.lb[name]; !ok {
				if f.lb == nil {
					f.lb = map[int32]*big.Int{}
				}
				f.lb[name] = big.NewInt(0)
			}
		}
		return f
	case *ast.Cast:
		inner := eng.evalFact(env, e.Expr)
		if inner != nil && full != nil && inner.rng.Within(full) {
			return inner // value preserved by the cast
		}
		return fallback()
	case *ast.Begin:
		if n := len(e.Body); n > 0 {
			if f := eng.evalFact(env, e.Body[n-1]); f != nil {
				return f
			}
		}
		return fallback()
	case *ast.Call:
		if f := eng.callFact(env, e); f != nil {
			return f
		}
		return fallback()
	}
	return fallback()
}

// callFact evaluates the builtins the relational domain understands:
// +/- (shifting symbolic offsets through constant offsets, and wrapping
// narrow results into their type), vector-length (projecting a length fact
// back into the integer domain), and the masking/remainder/shift builtins
// with literal operands. A head bound to a local or parameter calls the
// closure it holds, whatever its name.
func (eng *boundsEngine) callFact(env boundsEnv, call *ast.Call) *bFact {
	op := eng.builtin(call)
	switch op {
	case "+", "-":
		if len(call.Args) != 2 {
			return nil
		}
		af, bf := eng.evalFact(env, call.Args[0]), eng.evalFact(env, call.Args[1])
		if af == nil || bf == nil {
			return nil
		}
		var f *bFact
		if op == "+" {
			if k := pointOf(bf); k != nil {
				f = af.shift(k)
			} else if k := pointOf(af); k != nil {
				f = bf.shift(k)
			} else {
				f = &bFact{rng: interval.Add(af.rng, bf.rng)}
			}
		} else if k := pointOf(bf); k != nil {
			f = af.shift(new(big.Int).Neg(k))
		} else {
			f = &bFact{rng: interval.Sub(af.rng, bf.rng)}
		}
		return wrapFact(f, types.Prune(eng.info.TypeOf(call)))
	case "vector-length":
		if len(call.Args) != 1 {
			return nil
		}
		lf := eng.lenOf(call.Args[0])
		if lf == nil {
			return nil
		}
		f := &bFact{rng: lf.rng}
		if lf.sym != 0 {
			f.ub = map[int32]*big.Int{lf.sym: lf.k}
			f.lb = map[int32]*big.Int{lf.sym: lf.k}
		}
		return f
	case "bitand", "mod", "shr":
		if r := eng.builtinNumRange(env, op, call); r != nil {
			return &bFact{rng: r}
		}
	}
	return nil
}

// wrapFact fits the exact result of a +/- into its type t. The VM wraps
// 8/16/32-bit arithmetic, so a narrow result that may leave t can be any
// value of t (`(+ c 1)` over an int8 c in [100, 127] is -128 at c = 127).
// 64-bit results stay exact: wrapping them would drop the induction proofs
// of insertion-sort's nested loops. That is a known gap, since a 64-bit
// `(+ i 1)` with i refined only to [0, 2^63-1] is still proved in range.
func wrapFact(f *bFact, t *types.Type) *bFact {
	if t.Kind != types.KInt || t.Bits == 0 || t.Bits >= 64 {
		return f
	}
	if full := typeRange(t); !f.rng.Within(full) {
		return &bFact{rng: full}
	}
	return f
}

// pointOf returns the constant value of a singleton fact, or nil.
func pointOf(f *bFact) *big.Int {
	if f.rng.Lo != nil && f.rng.Hi != nil && f.rng.Lo.Cmp(f.rng.Hi) == 0 {
		return f.rng.Lo
	}
	return nil
}

// builtinNumRange narrows the result of masking/remainder/shift builtins
// with a literal second operand.
func (eng *boundsEngine) builtinNumRange(env boundsEnv, name string, call *ast.Call) *interval.I {
	if len(call.Args) != 2 {
		return nil
	}
	lit, ok := call.Args[1].(*ast.IntLit)
	if !ok {
		return nil
	}
	argT := types.Prune(eng.info.TypeOf(call.Args[0]))
	argRng := func() *interval.I {
		if f := eng.evalFact(env, call.Args[0]); f != nil {
			return f.rng
		}
		return nil
	}
	switch name {
	case "bitand":
		if lit.Value >= 0 {
			return interval.Of(0, lit.Value)
		}
	case "mod":
		if lit.Value > 0 {
			hi := big.NewInt(lit.Value - 1)
			if argT.Kind == types.KInt && argT.Signed {
				if r := argRng(); r != nil && r.Nonneg() {
					return interval.New(big.NewInt(0), hi)
				}
				return interval.New(new(big.Int).Neg(hi), hi)
			}
			return interval.New(big.NewInt(0), hi)
		}
	case "shr":
		if full := typeRange(argT); full != nil && lit.Value >= 0 && lit.Value < 64 &&
			argT.Kind == types.KInt && !argT.Signed {
			base := full
			if r := argRng(); r != nil && r.Nonneg() && r.Hi != nil {
				base = r
			}
			return interval.New(big.NewInt(0), new(big.Int).Rsh(base.Hi, uint(lit.Value)))
		}
	}
	return nil
}
