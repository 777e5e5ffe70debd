package analysis

import (
	"sort"
	"strconv"
	"strings"

	"bitc/internal/ast"
	"bitc/internal/concurrent"
	"bitc/internal/pointsto"
	"bitc/internal/source"
	"bitc/internal/types"
)

// Function summaries: the interprocedural substrate for the race and
// deadlock checkers. Each function is summarised by the locks it (or any
// callee) may acquire, the lock-ordering edges and re-acquisitions its
// execution induces, and the shared-global accesses it performs with the
// locks held relative to its own entry. with-lock is block-structured, so
// every acquired lock is released on exit and the held-on-exit set is always
// empty — the summary therefore needs no release component.
//
// Summaries are computed bottom-up over the call graph's SCC order: a call
// site instantiates the callee's finished summary (merging the caller's held
// locks into the callee's accesses and turning the callee's acquisitions
// into ordering edges), and mutually recursive functions iterate to a
// fixpoint within their SCC. This removes the per-call-chain depth bound the
// old syntactic walks needed: a race or an ABBA inversion through any chain
// of helpers is visible.

// LockSite is the first program point where a lock event was observed.
type LockSite struct {
	Lock string
	Span source.Span
	Fn   string // function lexically containing the event
}

// AtomicSite is one (atomic ...) region entry observed in a summary. Nested
// marks a site reachable while another atomic region is already open —
// directly, or through any chain of calls.
type AtomicSite struct {
	Span   source.Span
	Fn     string // function lexically containing the atomic form
	Nested bool
}

// EffectSite is one irreversible effect — an extern/FFI call, an observable
// I/O builtin, a channel operation, or a spawn — with its transactional
// context. Atomic marks a site reachable inside an atomic region (directly
// or through callees); such an effect re-executes when the STM retries the
// transaction, or traps outright, and can never be rolled back.
type EffectSite struct {
	Kind   string // "extern", "io", "send", "recv", "spawn", "join"
	Name   string // callee or builtin name
	Span   source.Span
	Fn     string // function lexically containing the effect
	Atomic bool
}

// RetrySite is an atomic region entered under an application-level retry
// loop whose condition re-reads shared state: the loop re-runs the
// transaction without any retry budget, on top of the STM's own internal
// retries — the unbounded-livelock shape the 2PC coordinator's bounded
// backoff exists to avoid.
type RetrySite struct {
	Span source.Span
	Fn   string
	Cond string // the shared location ("global.field") the loop re-reads
}

// FuncEffects is one function's summary.
type FuncEffects struct {
	Name string
	// Acquires maps each lock the function may acquire (directly or through
	// callees) to its first acquisition site.
	Acquires map[string]LockSite
	// Edges[a][b] is the first site where b was acquired while a was held.
	Edges map[string]map[string]LockSite
	// Self[a] is the first site where a was re-acquired while already held.
	Self map[string]LockSite
	// Accesses are the shared-global accesses, with locksets relative to
	// function entry (entered with no locks held). Accesses under a spawn
	// keep their own locksets when instantiated at call sites.
	Accesses []concurrent.Access
	// Atomics are the atomic-region entries this function may perform,
	// directly or through callees.
	Atomics []AtomicSite
	// Irrev are the irreversible-effect sites (extern calls, I/O, channel
	// ops, spawns) with their atomic context relative to function entry.
	Irrev []EffectSite
	// Retries are atomic entries under unbounded shared-state retry loops.
	Retries []RetrySite
}

// Summaries is the whole-program summary set plus the derived whole-program
// results the interprocedural checkers consume.
type Summaries struct {
	// Races are the conflicting access pairs reachable from entry points.
	Races []concurrent.Race
	// LockEdges and LockSelf are the union of every function's ordering
	// edges and re-acquisitions (every function is a potential entry for
	// ordering purposes).
	LockEdges map[string]map[string]LockSite
	LockSelf  map[string]LockSite
	// SharedAccesses are the entry-reachable shared accesses Races was
	// derived from — the atomicity checker's view of which locations are
	// STM-managed and which mutations bypass the transactions.
	SharedAccesses []concurrent.Access
	// NestedAtomics, AtomicEffects, and RetryLoops are the union over every
	// function (any function is a potential entry) of nested atomic entries,
	// irreversible effects reachable inside an atomic region, and atomics
	// under unbounded shared-state retry loops.
	NestedAtomics []AtomicSite
	AtomicEffects []EffectSite
	RetryLoops    []RetrySite
}

// ComputeSummaries builds every function's effects bottom-up and derives the
// whole-program race and lock-order facts. pts, when non-nil, resolves
// shared-access bases through the points-to sets, so an access through an
// aliased handle (a let-bound copy of a global, a parameter the global was
// passed as) is unified with direct accesses of the same global; nil falls
// back to recognising only direct global references.
func ComputeSummaries(prog *ast.Program, info *types.Info, pts *pointsto.Result) *Summaries {
	cg := BuildCallGraph(prog)
	sb := newSummaryBuilder(info, cg, pts)
	for _, scc := range cg.SCCs() {
		sb.computeSCC(scc)
	}
	return aggregate(prog, cg, sb.effects)
}

// computeSCC (re)computes the effects of one strongly connected component,
// iterating its members to a fixpoint. Callee SCCs must already be present
// in sb.effects — either computed earlier in bottom-up order or preloaded
// from a cache by the incremental driver.
func (sb *summaryBuilder) computeSCC(scc []string) {
	for _, name := range scc {
		sb.effects[name] = newEffects(name)
	}
	for {
		changed := false
		for _, name := range scc {
			eff := sb.computeOne(sb.cg.Funcs[name])
			if !equalEffects(sb.effects[name], eff) {
				changed = true
			}
			sb.effects[name] = eff
		}
		if !changed {
			break
		}
	}
}

// aggregate derives the whole-program facts from a complete effects set.
// It is the only fold: ComputeSummaries calls it on freshly computed
// effects, and the incremental driver on a mix of fresh and decoded ones
// whenever its aggregation cache misses.
func aggregate(prog *ast.Program, cg *CallGraph, effects map[string]*FuncEffects) *Summaries {
	s := &Summaries{
		LockEdges: map[string]map[string]LockSite{},
		LockSelf:  map[string]LockSite{},
	}

	// Ordering facts: union over all functions, first site wins, functions
	// visited in sorted name order for determinism.
	for _, name := range cg.Names {
		eff := effects[name]
		for _, a := range sortedEdgeKeys(eff.Edges) {
			outs := eff.Edges[a]
			for _, b := range sortedKeys(outs) {
				addEdgeSite(s.LockEdges, a, b, outs[b])
			}
		}
		for _, a := range sortedKeys(eff.Self) {
			if _, ok := s.LockSelf[a]; !ok {
				s.LockSelf[a] = eff.Self[a]
			}
		}
	}

	// Races: accesses reachable from entry points (functions nothing else
	// calls, plus main), deduplicated across entries.
	var accesses []concurrent.Access
	seen := map[string]bool{}
	for _, d := range prog.Defs {
		fn, ok := d.(*ast.DefineFunc)
		if !ok {
			continue
		}
		if cg.CalledByOther[fn.Name] && fn.Name != "main" {
			continue
		}
		for _, ac := range effects[fn.Name].Accesses {
			k := accessKey(ac)
			if !seen[k] {
				seen[k] = true
				accesses = append(accesses, ac)
			}
		}
	}
	s.Races = concurrent.FindRaces(accesses)
	s.SharedAccesses = accesses

	foldAtomicFacts(s, cg.Names, effects)
	return s
}

// foldAtomicFacts unions the transaction-safety facts of every function into
// the whole-program view: nested atomic entries, irreversible effects inside
// atomic regions, and unbounded-retry sites. Instantiation copies a callee's
// sites into each caller's summary, so the same site reappears across the
// call chain; the fold deduplicates by site identity and sorts for a
// deterministic report.
func foldAtomicFacts(s *Summaries, names []string, effects map[string]*FuncEffects) {
	seen := map[string]bool{}
	for _, name := range names {
		eff := effects[name]
		for _, a := range eff.Atomics {
			if !a.Nested {
				continue
			}
			if k := "n|" + atomicKey(a); !seen[k] {
				seen[k] = true
				s.NestedAtomics = append(s.NestedAtomics, a)
			}
		}
		for _, e := range eff.Irrev {
			if !e.Atomic {
				continue
			}
			if k := "e|" + effectKey(e); !seen[k] {
				seen[k] = true
				s.AtomicEffects = append(s.AtomicEffects, e)
			}
		}
		for _, r := range eff.Retries {
			if k := "r|" + retryKey(r); !seen[k] {
				seen[k] = true
				s.RetryLoops = append(s.RetryLoops, r)
			}
		}
	}
	sort.Slice(s.NestedAtomics, func(i, j int) bool {
		a, b := s.NestedAtomics[i], s.NestedAtomics[j]
		if a.Span.Start != b.Span.Start {
			return a.Span.Start < b.Span.Start
		}
		return a.Fn < b.Fn
	})
	sort.Slice(s.AtomicEffects, func(i, j int) bool {
		a, b := s.AtomicEffects[i], s.AtomicEffects[j]
		if a.Span.Start != b.Span.Start {
			return a.Span.Start < b.Span.Start
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Fn < b.Fn
	})
	sort.Slice(s.RetryLoops, func(i, j int) bool {
		a, b := s.RetryLoops[i], s.RetryLoops[j]
		if a.Span.Start != b.Span.Start {
			return a.Span.Start < b.Span.Start
		}
		return a.Fn < b.Fn
	})
}

func sortedEdgeKeys(m map[string]map[string]LockSite) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

type summaryBuilder struct {
	info      *types.Info
	cg        *CallGraph
	pts       *pointsto.Result
	effects   map[string]*FuncEffects
	shared    map[string]bool
	externals map[string]bool
}

// newSummaryBuilder prepares a builder over an empty effects set. pts may be
// a whole-program result or a demand slice covering (at least) the functions
// whose SCCs will be recomputed.
func newSummaryBuilder(info *types.Info, cg *CallGraph, pts *pointsto.Result) *summaryBuilder {
	sb := &summaryBuilder{
		info:      info,
		cg:        cg,
		pts:       pts,
		effects:   map[string]*FuncEffects{},
		shared:    map[string]bool{},
		externals: map[string]bool{},
	}
	for name, t := range info.Globals {
		if types.Prune(t).Kind == types.KStruct {
			sb.shared[name] = true
		}
	}
	for _, ext := range info.Externals {
		sb.externals[ext.Name] = true
	}
	return sb
}

func newEffects(name string) *FuncEffects {
	return &FuncEffects{
		Name:     name,
		Acquires: map[string]LockSite{},
		Edges:    map[string]map[string]LockSite{},
		Self:     map[string]LockSite{},
	}
}

// walkCtx is the state threaded through one function-body walk.
type walkCtx struct {
	fn       string   // function being summarised (lock-site attribution)
	accessFn string   // access attribution ($spawn suffix inside spawn exprs)
	order    []string // real locks held, no duplicates (ordering facts)
	held     []string // locks held incl. "atomic" and re-acquisitions (locksets)
	spawned  bool
	atomic   bool            // inside an atomic region relative to function entry
	retry    string          // non-empty: inside a shared-state retry loop on this location
	seen     map[string]bool // access/site dedup keys
	eff      *FuncEffects
}

// computeOne rebuilds fn's effects from its body and the current effects of
// its callees. Called repeatedly within an SCC until a fixpoint; the walk is
// deterministic and monotone in the callee effects, so iteration terminates.
func (sb *summaryBuilder) computeOne(fn *ast.DefineFunc) *FuncEffects {
	ctx := &walkCtx{
		fn:       fn.Name,
		accessFn: fn.Name,
		seen:     map[string]bool{},
		eff:      newEffects(fn.Name),
	}
	for _, e := range fn.Body {
		sb.walk(e, ctx)
	}
	return ctx.eff
}

func (sb *summaryBuilder) walk(e ast.Expr, ctx *walkCtx) {
	switch e := e.(type) {
	case *ast.WithLock:
		site := LockSite{Lock: e.Lock, Span: e.Span(), Fn: ctx.fn}
		reacquired := false
		for _, h := range ctx.order {
			if h == e.Lock {
				reacquired = true
				addSelfSite(ctx.eff.Self, e.Lock, site)
			} else {
				addEdgeSite(ctx.eff.Edges, h, e.Lock, site)
			}
		}
		addAcquire(ctx.eff.Acquires, e.Lock, site)
		inner := *ctx
		if !reacquired {
			inner.order = append(append([]string{}, ctx.order...), e.Lock)
		}
		inner.held = append(append([]string{}, ctx.held...), e.Lock)
		for _, b := range e.Body {
			sb.walk(b, &inner)
		}

	case *ast.Atomic:
		// STM serialises with every other atomic block: model as a single
		// pseudo-lock "atomic" in locksets, invisible to lock ordering.
		sb.addAtomic(ctx, AtomicSite{Span: e.Span(), Fn: ctx.fn, Nested: ctx.atomic})
		if ctx.retry != "" {
			sb.addRetry(ctx, RetrySite{Span: e.Span(), Fn: ctx.fn, Cond: ctx.retry})
		}
		inner := *ctx
		inner.held = append(append([]string{}, ctx.held...), "atomic")
		inner.atomic = true
		for _, b := range e.Body {
			sb.walk(b, &inner)
		}

	case *ast.While:
		// A loop whose condition re-reads shared state and whose body enters
		// an atomic region is an application-level retry loop without a
		// budget: the STM already retries internally, and the outer loop
		// re-runs the whole transaction until the shared state cooperates.
		sb.walk(e.Cond, ctx)
		for _, inv := range e.Invariants {
			sb.walk(inv, ctx)
		}
		inner := *ctx
		if loc := sb.sharedCondLoc(e.Cond); loc != "" {
			inner.retry = loc
		}
		for _, b := range e.Body {
			sb.walk(b, &inner)
		}

	case *ast.Spawn:
		// A spawned thread starts with an empty lockset and outside any
		// transaction of the parent; direct accesses in the spawn expression
		// are attributed to a synthetic $spawn frame. Spawning *inside* an
		// atomic region is itself an irreversible effect (the VM traps).
		if ctx.atomic {
			sb.addIrrev(ctx, EffectSite{
				Kind: "spawn", Name: "spawn", Span: e.Span(), Fn: ctx.fn, Atomic: true,
			})
		}
		inner := *ctx
		inner.accessFn = ctx.accessFn + "$spawn"
		inner.order = nil
		inner.held = nil
		inner.spawned = true
		inner.atomic = false
		inner.retry = ""
		sb.walk(e.Expr, &inner)

	case *ast.FieldRef:
		for _, g := range sb.sharedTargets(e.Expr) {
			sb.record(ctx, g, e.Name, false, e.Span())
		}
		sb.walk(e.Expr, ctx)

	case *ast.FieldSet:
		for _, g := range sb.sharedTargets(e.Expr) {
			sb.record(ctx, g, e.Name, true, e.Span())
		}
		sb.walk(e.Expr, ctx)
		sb.walk(e.Value, ctx)

	case *ast.Call:
		if v, ok := e.Fn.(*ast.VarRef); ok {
			if sb.cg.Funcs[v.Name] != nil {
				sb.instantiate(ctx, v.Name)
			} else if kind := sb.effectKind(v.Name); kind != "" {
				sb.addIrrev(ctx, EffectSite{
					Kind: kind, Name: v.Name, Span: e.Span(), Fn: ctx.fn, Atomic: ctx.atomic,
				})
			}
		}
		for _, arg := range e.Args {
			sb.walk(arg, ctx)
		}

	default:
		ast.Walk(e, func(sub ast.Expr) bool {
			if sub == e {
				return true
			}
			sb.walk(sub, ctx)
			return false
		})
	}
}

// instantiate merges a callee's summary into the caller at a call site.
func (sb *summaryBuilder) instantiate(ctx *walkCtx, callee string) {
	ce := sb.effects[callee]
	if ce == nil { // later SCC member on the first fixpoint round
		return
	}
	// The callee's acquisitions happen under the caller's held locks.
	for _, l := range sortedKeys(ce.Acquires) {
		site := ce.Acquires[l]
		for _, h := range ctx.order {
			if h == l {
				addSelfSite(ctx.eff.Self, l, site)
			} else {
				addEdgeSite(ctx.eff.Edges, h, l, site)
			}
		}
		addAcquire(ctx.eff.Acquires, l, site)
	}
	// The callee's own ordering facts hold regardless of caller state.
	for a, outs := range ce.Edges {
		for b, site := range outs {
			addEdgeSite(ctx.eff.Edges, a, b, site)
		}
	}
	for a, site := range ce.Self {
		addSelfSite(ctx.eff.Self, a, site)
	}
	// The callee's accesses happen with the caller's locks added — except
	// accesses the callee already runs on its own spawned thread, which keep
	// their recorded context.
	for _, ac := range ce.Accesses {
		if !ac.Spawned {
			ac.Lockset = mergeLocksets(ac.Lockset, ctx.held)
			ac.Spawned = ctx.spawned
		}
		sb.append(ctx, ac)
	}
	// The callee's atomic entries and irreversible effects happen under the
	// caller's transactional context: an atomic entered from inside an open
	// atomic nests, and an effect inside-or-below an atomic caller cannot be
	// rolled back. A callee that enters an atomic region turns a caller's
	// shared-state retry loop into an unbounded transaction-retry loop.
	for _, a := range ce.Atomics {
		if ctx.atomic {
			a.Nested = true
		}
		if ctx.retry != "" {
			sb.addRetry(ctx, RetrySite{Span: a.Span, Fn: a.Fn, Cond: ctx.retry})
		}
		sb.addAtomic(ctx, a)
	}
	for _, ef := range ce.Irrev {
		if ctx.atomic {
			ef.Atomic = true
		}
		sb.addIrrev(ctx, ef)
	}
	for _, r := range ce.Retries {
		sb.addRetry(ctx, r)
	}
}

func (sb *summaryBuilder) record(ctx *walkCtx, global, field string, write bool, span source.Span) {
	ls := append([]string{}, ctx.held...)
	sort.Strings(ls)
	sb.append(ctx, concurrent.Access{
		Global: global, Field: field, Write: write, Span: span,
		Func: ctx.accessFn, Lockset: ls, Spawned: ctx.spawned,
	})
}

func (sb *summaryBuilder) append(ctx *walkCtx, ac concurrent.Access) {
	k := accessKey(ac)
	if ctx.seen[k] {
		return
	}
	ctx.seen[k] = true
	ctx.eff.Accesses = append(ctx.eff.Accesses, ac)
}

func (sb *summaryBuilder) addAtomic(ctx *walkCtx, s AtomicSite) {
	k := "at|" + atomicKey(s)
	if ctx.seen[k] {
		return
	}
	ctx.seen[k] = true
	ctx.eff.Atomics = append(ctx.eff.Atomics, s)
}

func (sb *summaryBuilder) addIrrev(ctx *walkCtx, s EffectSite) {
	k := "ef|" + effectKey(s)
	if ctx.seen[k] {
		return
	}
	ctx.seen[k] = true
	ctx.eff.Irrev = append(ctx.eff.Irrev, s)
}

func (sb *summaryBuilder) addRetry(ctx *walkCtx, s RetrySite) {
	k := "rt|" + retryKey(s)
	if ctx.seen[k] {
		return
	}
	ctx.seen[k] = true
	ctx.eff.Retries = append(ctx.eff.Retries, s)
}

// effectKind classifies a call head that is not a defined function as an
// irreversible effect: an extern crosses the FFI (foreign side effects
// survive a rollback), print/println emit observable output, and channel
// operations either publish to another thread or trap outright inside an
// atomic region.
func (sb *summaryBuilder) effectKind(name string) string {
	switch {
	case sb.externals[name]:
		return "extern"
	case name == "print" || name == "println":
		return "io"
	case name == "send":
		return "send"
	case name == "recv":
		return "recv"
	case name == "join":
		return "join"
	}
	return ""
}

// sharedCondLoc names the first shared-global field a loop condition reads,
// or "" when the condition touches no shared state (a local counter — the
// bounded, benign loop shape).
func (sb *summaryBuilder) sharedCondLoc(cond ast.Expr) string {
	loc := ""
	var visit func(e ast.Expr)
	visit = func(e ast.Expr) {
		if loc != "" {
			return
		}
		if fr, ok := e.(*ast.FieldRef); ok {
			if gs := sb.sharedTargets(fr.Expr); len(gs) > 0 {
				loc = gs[0] + "." + fr.Name
				return
			}
		}
		ast.Walk(e, func(sub ast.Expr) bool {
			if sub == e {
				return true
			}
			visit(sub)
			return false
		})
	}
	visit(cond)
	return loc
}

// sharedTargets names the shared globals a field access on base may touch.
// A direct reference to a shared global is always recognised; with
// points-to results, any base expression whose set contains an object a
// shared global names resolves to that global — each object is attributed
// to its sorted-first global so aliases of the same storage unify onto one
// location name.
func (sb *summaryBuilder) sharedTargets(e ast.Expr) []string {
	var out []string
	seen := map[string]bool{}
	if v, ok := e.(*ast.VarRef); ok {
		if sym := sb.info.Uses[v]; sym != nil && sym.Kind == types.SymGlobal && sb.shared[v.Name] {
			seen[v.Name] = true
			out = append(out, v.Name)
		}
	}
	if sb.pts != nil {
		for _, o := range sb.pts.ExprObjects(e) {
			gs := sb.pts.GlobalsOf(o)
			if len(gs) == 0 {
				continue
			}
			if g := gs[0]; sb.shared[g] && !seen[g] {
				seen[g] = true
				out = append(out, g)
			}
		}
	}
	sort.Strings(out)
	return out
}

func accessKey(ac concurrent.Access) string {
	var b strings.Builder
	b.Grow(len(ac.Global) + len(ac.Field) + len(ac.Func) + 24)
	b.WriteString(ac.Global)
	b.WriteByte('.')
	b.WriteString(ac.Field)
	b.WriteByte('|')
	b.WriteString(ac.Func)
	b.WriteByte('|')
	for i, l := range ac.Lockset {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
	}
	if ac.Write {
		b.WriteString("|w")
	}
	if ac.Spawned {
		b.WriteString("|s")
	}
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(ac.Span.Start)))
	return b.String()
}

func atomicKey(s AtomicSite) string {
	k := strconv.Itoa(int(s.Span.Start)) + "|" + s.Fn
	if s.Nested {
		k += "|n"
	}
	return k
}

func effectKey(s EffectSite) string {
	k := s.Kind + "|" + s.Name + "|" + strconv.Itoa(int(s.Span.Start)) + "|" + s.Fn
	if s.Atomic {
		k += "|a"
	}
	return k
}

func retryKey(s RetrySite) string {
	return strconv.Itoa(int(s.Span.Start)) + "|" + s.Fn + "|" + s.Cond
}

func mergeLocksets(a, b []string) []string {
	out := append(append([]string{}, a...), b...)
	sort.Strings(out)
	// Keep duplicates out (a lock held by both caller and callee).
	dedup := out[:0]
	for i, l := range out {
		if i == 0 || out[i-1] != l {
			dedup = append(dedup, l)
		}
	}
	return dedup
}

func addAcquire(m map[string]LockSite, lock string, site LockSite) {
	if _, ok := m[lock]; !ok {
		m[lock] = site
	}
}

func addSelfSite(m map[string]LockSite, lock string, site LockSite) {
	if _, ok := m[lock]; !ok {
		m[lock] = site
	}
}

func addEdgeSite(m map[string]map[string]LockSite, a, b string, site LockSite) {
	if m[a] == nil {
		m[a] = map[string]LockSite{}
	}
	if _, ok := m[a][b]; !ok {
		m[a][b] = site
	}
}

func sortedKeys(m map[string]LockSite) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalEffects(a, b *FuncEffects) bool {
	if len(a.Acquires) != len(b.Acquires) || len(a.Self) != len(b.Self) ||
		len(a.Edges) != len(b.Edges) || len(a.Accesses) != len(b.Accesses) ||
		len(a.Atomics) != len(b.Atomics) || len(a.Irrev) != len(b.Irrev) ||
		len(a.Retries) != len(b.Retries) {
		return false
	}
	for k := range a.Acquires {
		if _, ok := b.Acquires[k]; !ok {
			return false
		}
	}
	for k := range a.Self {
		if _, ok := b.Self[k]; !ok {
			return false
		}
	}
	for k, outs := range a.Edges {
		bo, ok := b.Edges[k]
		if !ok || len(outs) != len(bo) {
			return false
		}
		for k2 := range outs {
			if _, ok := bo[k2]; !ok {
				return false
			}
		}
	}
	bk := map[string]bool{}
	for _, ac := range b.Accesses {
		bk[accessKey(ac)] = true
	}
	for _, ac := range a.Accesses {
		if !bk[accessKey(ac)] {
			return false
		}
	}
	sk := map[string]bool{}
	for _, s := range b.Atomics {
		sk["at|"+atomicKey(s)] = true
	}
	for _, s := range b.Irrev {
		sk["ef|"+effectKey(s)] = true
	}
	for _, s := range b.Retries {
		sk["rt|"+retryKey(s)] = true
	}
	for _, s := range a.Atomics {
		if !sk["at|"+atomicKey(s)] {
			return false
		}
	}
	for _, s := range a.Irrev {
		if !sk["ef|"+effectKey(s)] {
			return false
		}
	}
	for _, s := range a.Retries {
		if !sk["rt|"+retryKey(s)] {
			return false
		}
	}
	return true
}
