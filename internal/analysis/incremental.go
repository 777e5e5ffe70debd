package analysis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/concurrent"
	"bitc/internal/factstore"
	"bitc/internal/par"
	"bitc/internal/pointsto"
	"bitc/internal/source"
	"bitc/internal/types"
)

// The incremental driver. RunWithStore produces a report byte-identical to
// Run's, but pulls per-function facts (syntactic traits, bottom-up
// summaries, per-function findings) from a content-hashed fact store and
// recomputes only what an edit actually invalidated.
//
// The key scheme, bottom of this file's pyramid first:
//
//   funcKey(f)    sha256 of f's raw source slice. Any textual edit to f
//                 changes it; moving f inside the file does not.
//   typesSig      hash of every non-function definition's raw text (structs,
//                 unions, globals, externals) plus the file name — the type
//                 environment every function is checked against.
//   envSig(f)     typesSig plus, for every name f references, what that name
//                 is (defined function with a given type scheme, global,
//                 constructor, external, or unknown). Catches edits that
//                 change f's meaning without touching f's text, e.g.
//                 deleting a callee so the call head becomes unknown.
//   compKey(c)    identity of a points-to flow component: typesSig plus
//                 every member function's funcKey and every member global's
//                 raw hash. Pins the exact constraint slice the demand
//                 solver would generate for the component (see
//                 pointsto.BuildComponents for why slicing is exact).
//   sccSig(s)     identity of a call-graph SCC for the summary engine: each
//                 member's funcKey, envSig, and compKey, plus the
//                 summaryKeys of every out-of-SCC callee — so invalidation
//                 propagates bottom-up through the call graph, and a caller
//                 is dirty whenever anything its summary was built from is.
//   summaryKey(f) sccSig of f's SCC, salted with f's name.
//   bundleKey(f)  per function, for the per-function finding bundle: the
//                 selected cacheable analyzers, funcKey, and envSig, plus
//                 f's compKey when any of them consumes points-to facts.
//                 All selected per-function analyzers' findings for f are
//                 cached as one entry — probing is one lookup per function
//                 instead of one per (analyzer, function) pair, which is
//                 what keeps a warm no-op probe cheap at 100k functions.
//   aggKey        early cutoff for the whole-program aggregation fold: every
//                 function's name, summary value hash (VHash), and
//                 entry-point bit, in definition order. An edit that
//                 recomputes some summaries to unchanged values reuses the
//                 folded lock order and race set wholesale.
//
// Derived keys are built by concatenating already-hashed 32-byte components
// with \x00-separated tags; only leaf content (source slices, free-name
// environments, component membership, SCC signatures) goes through SHA-256.
//
// Cached facts never store absolute source offsets: spans are encoded
// relative to the top-level definition that contains them
// (factstore.RelSpan) and rebased against the current parse on every hit,
// so whitespace above a function does not invalidate anything.
//
// Whole-program analyzers (race, deadlock, ffi) re-run every time, but the
// expensive substrate they stand on — points-to sets and bottom-up
// summaries — is sliced and cached, so their rerun is a cheap fold.

// RunWithStore executes the selected analyzers like Run, using store as a
// fact cache across calls. A nil store degenerates to Run. The store may be
// shared across programs; keys are content-addressed, so cross-program
// collisions are impossible and cross-edit sharing is automatic.
func RunWithStore(prog *ast.Program, info *types.Info, opts Options, store *factstore.Store) (*Report, error) {
	if store == nil {
		return Run(prog, info, opts)
	}
	selected, err := opts.Selected()
	if err != nil {
		return nil, err
	}
	store.BeginRun()

	var funcs []*ast.DefineFunc
	for _, d := range prog.Defs {
		if fn, ok := d.(*ast.DefineFunc); ok {
			funcs = append(funcs, fn)
		}
	}

	needCFG, needPts, needSums := false, false, false
	for _, a := range selected {
		needCFG = needCFG || a.NeedsCFG
		needPts = needPts || a.NeedsPointsTo
		needSums = needSums || a.NeedsSummaries
	}
	needCFG = needCFG || needPts || needSums
	needPts = needPts || needSums

	k := buildKeys(prog, info, store, funcs, needSums || needPts, opts.Parallelism)

	// Lay out result slots exactly as Run would (selection order; a
	// per-function analyzer owns len(funcs) consecutive slots), then split
	// the per-function analyzers into the bundled cacheable set and the
	// always-run remainder. A per-function analyzer that consumed
	// whole-program summaries would be unsound to cache per function; none
	// exists, but fail open if one appears.
	nslots := 0
	baseSlot := map[string]int{}
	var pending []task
	var bundled, alwaysFn []*Analyzer
	bundlePts := false
	var bundleNames []string
	for _, a := range selected {
		if !a.PerFunction {
			pending = append(pending, task{analyzer: a, slot: nslots})
			nslots++
			continue
		}
		baseSlot[a.Name] = nslots
		nslots += len(funcs)
		if a.NeedsSummaries {
			alwaysFn = append(alwaysFn, a)
		} else {
			bundled = append(bundled, a)
			bundlePts = bundlePts || a.NeedsPointsTo
			bundleNames = append(bundleNames, a.Name)
		}
	}
	results := make([][]Finding, nslots)
	bundleSig := strings.Join(bundleNames, ",")

	// Probe the per-function finding bundles. A hit fills every bundled
	// analyzer's slot for that function; a miss becomes one pool task per
	// bundled analyzer. A missed function whose bundle embeds points-to
	// facts drags its whole flow component into the demand slice
	// (ptsDirty); any miss forces that function's CFG (cfgDirty).
	ptsDirty := make([]bool, len(funcs))
	cfgDirty := make([]bool, len(funcs))
	anyPtsDirty := false
	missKey := make([]string, len(funcs))
	var bundleKeys []string
	var bundleHits []any
	if len(bundled) > 0 {
		bundleKeys = make([]string, len(funcs))
		for fi := range funcs {
			bundleKeys[fi] = "fb\x00" + bundleSig + "\x00" + k.funcKey[fi] + k.envSig[fi]
			if bundlePts {
				bundleKeys[fi] += k.compKey[k.fnComp[fi]]
			}
		}
		bundleHits = store.GetMany(bundleKeys)
	}
	for fi, fn := range funcs {
		if len(bundled) > 0 {
			if v := bundleHits[fi]; v != nil {
				cb := v.(*cachedBundle)
				for ai, a := range bundled {
					results[baseSlot[a.Name]+fi] = decodeFindings(k.ix, cb.ByAnalyzer[ai])
				}
			} else {
				missKey[fi] = bundleKeys[fi]
				for _, a := range bundled {
					pending = append(pending, task{analyzer: a, fn: fn, slot: baseSlot[a.Name] + fi})
				}
				if bundlePts {
					ptsDirty[fi] = true
					anyPtsDirty = true
				}
				cfgDirty[fi] = true
			}
		}
		for _, a := range alwaysFn {
			pending = append(pending, task{analyzer: a, fn: fn, slot: baseSlot[a.Name] + fi})
			if a.NeedsPointsTo || a.NeedsSummaries {
				ptsDirty[fi] = true
				anyPtsDirty = true
			}
			cfgDirty[fi] = true
		}
	}

	// Probe the summary caches bottom-up. A miss anywhere in an SCC dirties
	// the whole SCC (the fixpoint recomputes all members together) and pulls
	// its members into the points-to slice. Hits stay in their compact
	// cached form: decoding all of them would rebuild the whole program's
	// effects every run, and only an aggregation miss needs them all.
	var effects map[string]*FuncEffects
	cached := make([]*cachedEffects, len(funcs))
	var dirtySCCs [][]string
	if needSums {
		effects = map[string]*FuncEffects{}
		sums := store.GetMany(k.sumKey)
		for si, scc := range k.sccOrder {
			missed := false
			for _, mi := range k.sccs[si].Members {
				if v := sums[mi]; v != nil {
					cached[mi] = v.(*cachedEffects)
				} else {
					missed = true
				}
			}
			if missed {
				dirtySCCs = append(dirtySCCs, scc)
				for _, mi := range k.sccs[si].Members {
					ptsDirty[mi] = true
					anyPtsDirty = true
					cfgDirty[mi] = true
					// The whole SCC is recomputed; a partial hit must not
					// shadow the fresh result during aggregation.
					cached[mi] = nil
				}
			}
		}
	}

	// Demand points-to over the dirty components only. The slice must be a
	// union of whole components for the restricted fixpoint to be exact.
	var cfgs map[*ast.DefineFunc]*cfg.Graph
	var pts *pointsto.Result
	if needCFG {
		cfgs = make(map[*ast.DefineFunc]*cfg.Graph)
	}
	if needPts && anyPtsDirty {
		compSet := map[int]bool{}
		for fi := range funcs {
			if ptsDirty[fi] && k.fnComp[fi] >= 0 {
				compSet[k.fnComp[fi]] = true
			}
		}
		sliceFns := map[string]bool{}
		sliceGlobals := map[string]bool{}
		for id := range compSet {
			for _, m := range k.comps.FuncMembers(id) {
				sliceFns[m] = true
			}
			for _, g := range k.comps.GlobalMembers(id) {
				sliceGlobals[g] = true
			}
		}
		for _, fn := range funcs {
			if sliceFns[fn.Name] {
				cfgs[fn] = cfg.Build(fn)
			}
		}
		pts = pointsto.AnalyzeDemand(prog, info, cfgs, sliceFns, sliceGlobals)
	}
	if needCFG {
		for fi, fn := range funcs {
			if cfgDirty[fi] && cfgs[fn] == nil {
				cfgs[fn] = cfg.Build(fn)
			}
		}
	}

	// Recompute dirty SCC summaries bottom-up over the demand points-to
	// slice. Only the direct out-of-SCC callees of dirty members need their
	// clean effects decoded as the callee environment (a callee's finished
	// summary already folds everything below it).
	var summaries *Summaries
	if needSums {
		if len(dirtySCCs) > 0 {
			sb := newSummaryBuilder(info, k.cg, pts)
			sb.effects = effects
			for _, scc := range dirtySCCs {
				for _, m := range scc {
					for _, c := range k.cg.Callees[m] {
						ci := k.fnIndex[c]
						if effects[c] == nil && cached[ci] != nil {
							effects[c] = decodeEffects(k.ix, c, cached[ci])
						}
					}
				}
				sb.computeSCC(scc)
				for _, m := range scc {
					mi := k.fnIndex[m]
					enc := encodeEffects(k.ix, sb.effects[m])
					store.Put(k.sumKey[mi], enc)
					cached[mi] = enc
				}
			}
		}
		// Early cutoff for the whole-program aggregation. The fold's output
		// is a pure function of every summary's value, each function's
		// entry-point status, and the name-pinned fold order — all captured
		// below in definition order (names pin both the sorted lock-order
		// fold and the entry walk). Most edits recompute a summary to the
		// same value, so the folded lock order and race set are reused
		// wholesale instead of re-deduplicating every access in the program.
		aggParts := make([]string, 1, 3*len(funcs)+1)
		aggParts[0] = "agg"
		for fi, fn := range funcs {
			entry := "0"
			if !k.cg.CalledByOther[fn.Name] || fn.Name == "main" {
				entry = "1"
			}
			aggParts = append(aggParts, fn.Name, cached[fi].VHash, entry)
		}
		aggKey := factstore.Hash(aggParts...)
		if v, ok := store.Get(aggKey); ok {
			summaries = decodeAgg(k.ix, v.(*cachedAgg))
		} else {
			// A miss folds with aggregate, Run's own fold, so the warm
			// report is byte-identical to a cold one. A cold run computed
			// every summary into effects just now; a warm run first decodes
			// the clean summaries it has not decoded yet (factstore.RelSpan
			// is a lossless rebase, so a decoded summary equals the one
			// that was encoded).
			for fi, fn := range funcs {
				if effects[fn.Name] == nil {
					effects[fn.Name] = decodeEffects(k.ix, fn.Name, cached[fi])
				}
			}
			summaries = aggregate(prog, k.cg, effects)
			store.Put(aggKey, encodeAgg(k.ix, summaries))
		}
	}

	execTasks(prog, info, cfgs, pts, summaries, pending, results, opts.Parallelism)

	for fi := range funcs {
		if missKey[fi] == "" {
			continue
		}
		cb := &cachedBundle{ByAnalyzer: make([][]cachedFinding, len(bundled))}
		for ai, a := range bundled {
			cb.ByAnalyzer[ai] = encodeFindings(k.ix, results[baseSlot[a.Name]+fi])
		}
		store.Put(missKey[fi], cb)
	}
	return assembleReport(prog, opts, selected, results), nil
}

func decodeSite(ix *factstore.Index, s cachedSite) LockSite {
	return LockSite{Lock: s.Lock, Span: ix.Abs(s.Span), Fn: s.Fn}
}

func sortedCachedKeys(m map[string]cachedSite) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedCachedEdgeKeys(m map[string]map[string]cachedSite) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Key computation
// ---------------------------------------------------------------------------

// progKeys carries every content key of one incremental run. Per-function
// keys live in slices indexed by the function's position in the filtered
// definition order (fnIndex maps names back to positions): at monorepo
// scale the key pipeline touches every function several times per run, and
// slice indexing is what keeps that traffic off string-keyed maps.
type progKeys struct {
	ix       *factstore.Index
	typesSig string
	fnIndex  map[string]int32 // function name -> index into the slices below
	funcKey  []string         // content hash of the function's source slice
	// traits and initTraits are the cached syntactic skeletons of function
	// definitions and global initialisers; traitsVH hashes each function's
	// traits content (not its source), feeding the graph-layer signature.
	traits     []*pointsto.Traits
	traitsVH   []string
	initTraits map[string]*pointsto.Traits
	envSig     []string
	comps      *pointsto.Components
	compKey    []string // by component id
	fnComp     []int    // flow component id, by function index
	cg         *CallGraph
	sccOrder   [][]string
	sccs       []sccIndex // sccOrder by function index
	sccLevels  [][]int32  // indices into sccs, grouped by dependency level
	sumKey     []string
}

// minKeyChunk is the fewest functions (or SCCs) worth a goroutine of key
// building.
const minKeyChunk = 256

func buildKeys(prog *ast.Program, info *types.Info, store *factstore.Store,
	funcs []*ast.DefineFunc, needFlow bool, workers int) *progKeys {

	n := len(funcs)
	k := &progKeys{
		ix:         factstore.NewIndex(prog),
		fnIndex:    make(map[string]int32, n),
		funcKey:    make([]string, n),
		traits:     make([]*pointsto.Traits, n),
		initTraits: map[string]*pointsto.Traits{},
		envSig:     make([]string, n),
	}
	k.typesSig = k.ix.TypesSig()
	for i, fn := range funcs {
		k.fnIndex[fn.Name] = int32(i)
	}
	for di, fi := 0, 0; di < len(prog.Defs); di++ {
		if _, ok := prog.Defs[di].(*ast.DefineFunc); ok {
			k.funcKey[fi] = k.ix.HashAt(di)
			fi++
		}
	}

	// Traits: pure functions of one definition's text, keyed by its hash.
	// Each entry carries a hash of the traits *content* (VHash), so the
	// graph layer below can tell "edited" apart from "edited in a way that
	// changed the skeleton" — most edits do not.
	k.traitsVH = make([]string, n)
	initVH := map[string]string{}
	tks := make([]string, n)
	for i := range funcs {
		tks[i] = "tr\x00" + k.funcKey[i]
	}
	for i, v := range store.GetMany(tks) {
		if v != nil {
			ct := v.(*cachedTraits)
			k.traits[i], k.traitsVH[i] = ct.T, ct.VHash
		} else {
			t := pointsto.ScanTraits(funcs[i])
			k.traits[i] = t
			k.traitsVH[i] = traitsVHash(t)
			store.Put(tks[i], &cachedTraits{T: t, VHash: k.traitsVH[i]})
		}
	}
	for _, d := range prog.Defs {
		if d, ok := d.(*ast.DefineVar); ok && d.Init != nil {
			di, _ := k.ix.Def("v:" + d.Name)
			tk := "vt\x00" + di.Hash
			if v, ok := store.Get(tk); ok {
				ct := v.(*cachedTraits)
				k.initTraits[d.Name], initVH[d.Name] = ct.T, ct.VHash
			} else {
				t := pointsto.ScanExprTraits(d.Init)
				k.initTraits[d.Name] = t
				initVH[d.Name] = traitsVHash(t)
				store.Put(tk, &cachedTraits{T: t, VHash: initVH[d.Name]})
			}
		}
	}

	// envSig: the classification of every free name, under typesSig. A
	// function name classifies by its scheme; those are rendered once per
	// function, and both passes fan out over the worker pool because they
	// touch every function on every run, warm or cold.
	fnClass := make([]string, n)
	par.Chunks(n, workers, minKeyChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if sch := info.Funcs[funcs[i].Name]; sch != nil {
				fnClass[i] = "fn:" + schemeSig(sch)
			} else {
				fnClass[i] = "fn:?"
			}
		}
	})
	globalClass := make(map[string]string, len(info.Globals))
	for name, t := range info.Globals {
		if t != nil {
			globalClass[name] = "g:" + t.String()
		}
	}
	external := map[string]bool{}
	for _, ext := range info.Externals {
		external[ext.Name] = true
	}
	classify := func(name string) string {
		if i, ok := k.fnIndex[name]; ok {
			return fnClass[i]
		}
		if c, ok := globalClass[name]; ok {
			return c
		}
		switch {
		case info.CtorOf[name] != nil:
			return "c" // layout covered by typesSig
		case external[name]:
			return "x" // signature covered by typesSig
		}
		return "?" // local, builtin, or undefined
	}
	par.Chunks(n, workers, minKeyChunk, func(lo, hi int) {
		parts := make([]string, 0, 64)
		for i := lo; i < hi; i++ {
			parts = append(parts[:0], "env", k.typesSig)
			for _, name := range k.traits[i].Free {
				parts = append(parts, name, classify(name))
			}
			k.envSig[i] = factstore.Hash(parts...)
		}
	})

	if !needFlow {
		return k
	}
	parts := make([]string, 0, 64)

	// The graph layer — call graph, SCC order, flow components — is a pure
	// function of the traits skeletons, the definition order, and the type
	// environment, all of which survive the typical edit unchanged. It is
	// cached whole under a program-level signature over exactly those
	// inputs (traits by content, not by source text, so editing a function
	// body usually hits). The cached form holds only names and function
	// indices; the Funcs map is rebuilt against the current AST on every
	// hit, because summary recomputation walks bodies through it.
	parts = append(parts[:0], "graph", k.typesSig)
	fi := 0
	for _, d := range prog.Defs {
		switch d := d.(type) {
		case *ast.DefineFunc:
			parts = append(parts, "F", d.Name, k.traitsVH[fi])
			fi++
		case *ast.DefineVar:
			vh, ok := initVH[d.Name]
			if !ok {
				vh = "-"
			}
			parts = append(parts, "V", d.Name, vh)
		}
	}
	graphSig := factstore.Hash(parts...)
	if v, ok := store.Get(graphSig); ok {
		cgr := v.(*cachedGraph)
		k.cg = &CallGraph{
			Funcs:         make(map[string]*ast.DefineFunc, n),
			Names:         cgr.Names,
			Callees:       cgr.Callees,
			CalledByOther: cgr.CalledByOther,
		}
		for _, fn := range funcs {
			k.cg.Funcs[fn.Name] = fn
		}
		k.sccOrder = cgr.SCCOrder
		k.sccs, k.sccLevels = cgr.SCCs, cgr.SCCLevels
		k.comps = cgr.Comps
		k.fnComp = cgr.FnComp
	} else {
		k.comps = pointsto.BuildComponents(prog, info, func(name string) *pointsto.Traits {
			if i, ok := k.fnIndex[name]; ok {
				return k.traits[i]
			}
			return nil
		}, k.initTraits)
		k.cg = NewCallGraphFromCallees(prog, func(name string) []string {
			return k.traits[k.fnIndex[name]].Called
		})
		k.sccOrder = k.cg.SCCs()
		k.sccs, k.sccLevels = indexSCCs(k.sccOrder, k.cg.Callees, k.fnIndex)
		k.fnComp = make([]int, n)
		for i, fn := range funcs {
			k.fnComp[i] = k.comps.OfFunc(fn.Name)
		}
		store.Put(graphSig, &cachedGraph{
			Names:         k.cg.Names,
			Callees:       k.cg.Callees,
			CalledByOther: k.cg.CalledByOther,
			SCCOrder:      k.sccOrder,
			SCCs:          k.sccs,
			SCCLevels:     k.sccLevels,
			Comps:         k.comps,
			FnComp:        k.fnComp,
		})
	}

	// Component and summary keys are rebuilt every run even on a graph hit:
	// they embed source hashes (funcKey, envSig), which the graph signature
	// deliberately does not.
	k.compKey = make([]string, k.comps.Len())
	for id := 0; id < k.comps.Len(); id++ {
		parts = append(parts[:0], "comp", k.typesSig)
		for _, m := range k.comps.FuncMembers(id) {
			parts = append(parts, "f", m, k.funcKey[k.fnIndex[m]])
		}
		for _, g := range k.comps.GlobalMembers(id) {
			di, ok := k.ix.Def("v:" + g)
			if !ok {
				parts = append(parts, "g", g, "undeclared")
				continue
			}
			parts = append(parts, "g", g, di.Hash)
		}
		k.compKey[id] = factstore.Hash(parts...)
	}

	// Summary keys bottom-up: each SCC's signature folds its members' keys
	// with the finished summaryKeys of all out-of-SCC callees. SCCs of one
	// level depend only on lower levels, so each level fans out.
	k.sumKey = make([]string, n)
	for _, level := range k.sccLevels {
		par.Chunks(len(level), workers, minKeyChunk, func(lo, hi int) {
			var parts, calleeKeys []string
			for _, si := range level[lo:hi] {
				scc := k.sccs[si]
				parts = append(parts[:0], "scc", k.typesSig)
				for _, mi := range scc.Members {
					parts = append(parts, funcs[mi].Name, k.funcKey[mi], k.envSig[mi], k.compKey[k.fnComp[mi]])
				}
				calleeKeys = calleeKeys[:0]
				for _, ci := range scc.OutCallees {
					calleeKeys = append(calleeKeys, k.sumKey[ci])
				}
				sccSig := factstore.Hash(append(parts, sortDedup(calleeKeys)...)...)
				for _, mi := range scc.Members {
					k.sumKey[mi] = "sum\x00" + funcs[mi].Name + "\x00" + sccSig
				}
			}
		})
	}
	return k
}

// cachedTraits pairs one definition's traits with a hash of their content,
// so graph-level signatures can depend on what the skeleton *is* rather
// than on the source text it came from.
type cachedTraits struct {
	T     *pointsto.Traits
	VHash string
}

func traitsVHash(t *pointsto.Traits) string {
	parts := make([]string, 0, len(t.Free)+len(t.Called)+len(t.Bound)+6)
	parts = append(parts, "tv", strconv.Itoa(len(t.Free)))
	parts = append(parts, t.Free...)
	parts = append(parts, strconv.Itoa(len(t.Called)))
	parts = append(parts, t.Called...)
	parts = append(parts, strconv.Itoa(len(t.Bound)))
	parts = append(parts, t.Bound...)
	parts = append(parts, bit(t.HasLambda), bit(t.ExoticCall))
	return factstore.Hash(parts...)
}

// cachedGraph is the graph layer of one program shape: everything in it is
// names or function indices (no AST pointers, no spans), so it stays valid
// across re-parses for as long as the graph signature — which pins the
// definition order, and with it every index — matches.
type cachedGraph struct {
	Names         []string
	Callees       map[string][]string
	CalledByOther map[string]bool
	SCCOrder      [][]string
	SCCs          []sccIndex
	SCCLevels     [][]int32
	Comps         *pointsto.Components
	FnComp        []int
}

// sccIndex is one SCC of SCCOrder by function index: its members (in
// SCCOrder's name order) and its members' callees outside the SCC, the
// inputs of the SCC's summary key.
type sccIndex struct {
	Members, OutCallees []int32
}

// indexSCCs restates order by function index and groups the SCCs into
// levels: an SCC's level is one above the highest level among its
// out-of-SCC callees, so every SCC depends only on lower levels.
func indexSCCs(order [][]string, callees map[string][]string, fnIndex map[string]int32) (sccs []sccIndex, levels [][]int32) {
	sccs = make([]sccIndex, len(order))
	sccOf := make([]int32, len(fnIndex))
	level := make([]int, len(order))
	for si, scc := range order { // bottom-up: callees' SCCs come first
		var inSCC map[string]bool // most SCCs are singletons
		if len(scc) > 1 {
			inSCC = make(map[string]bool, len(scc))
			for _, m := range scc {
				inSCC[m] = true
			}
		}
		for _, m := range scc {
			sccs[si].Members = append(sccs[si].Members, fnIndex[m])
			sccOf[fnIndex[m]] = int32(si)
			for _, c := range callees[m] {
				if inSCC[c] || c == m {
					continue
				}
				sccs[si].OutCallees = append(sccs[si].OutCallees, fnIndex[c])
				level[si] = max(level[si], level[sccOf[fnIndex[c]]]+1)
			}
		}
		for len(levels) <= level[si] {
			levels = append(levels, nil)
		}
		levels[level[si]] = append(levels[level[si]], int32(si))
	}
	return sccs, levels
}

// schemeSig prints a type scheme canonically: constraints in quantifier
// order plus the canonical type string (Type.String renames variables
// per-call, so the result is independent of the unifier's global counter).
func schemeSig(s *types.Scheme) string {
	var b strings.Builder
	for _, v := range s.Vars {
		fmt.Fprintf(&b, "%d,", v.Constraint)
	}
	b.WriteByte('|')
	b.WriteString(s.Type.String())
	return b.String()
}

func sortDedup(ss []string) []string {
	if len(ss) < 2 {
		return ss
	}
	sort.Strings(ss)
	out := ss[:1]
	for _, s := range ss[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Cached encodings (all spans relative, rebased on every decode)
// ---------------------------------------------------------------------------

// Names in the AST are substrings of the parsed source text, so a cached fact
// holding one would keep that edit's whole text alive for as long as the
// fact stays cached — the -watch daemon's heap would grow by a source text
// per edit. Encoders therefore store clones of every name.

func cloneAll(ss []string) []string {
	if ss == nil {
		return nil
	}
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = strings.Clone(s)
	}
	return out
}

type cachedSite struct {
	Lock string
	Span factstore.RelSpan
	Fn   string
}

type cachedAccess struct {
	Global  string
	Field   string
	Write   bool
	Span    factstore.RelSpan
	Func    string
	Lockset []string
	Spawned bool
}

type cachedAtomicSite struct {
	Span   factstore.RelSpan
	Fn     string
	Nested bool
}

type cachedEffectSite struct {
	Kind   string
	Name   string
	Span   factstore.RelSpan
	Fn     string
	Atomic bool
}

type cachedRetrySite struct {
	Span factstore.RelSpan
	Fn   string
	Cond string
}

// cachedEffects is FuncEffects with relative spans.
type cachedEffects struct {
	Acquires map[string]cachedSite
	Edges    map[string]map[string]cachedSite
	Self     map[string]cachedSite
	Accesses []cachedAccess
	Atomics  []cachedAtomicSite
	Irrev    []cachedEffectSite
	Retries  []cachedRetrySite
	// VHash is a content hash of the encoded value itself, not of its
	// derivation: summaries recomputed to the same value share it across
	// edits, which is what lets the aggregation early cutoff fire.
	VHash string
}

func encodeSite(ix *factstore.Index, s LockSite) cachedSite {
	return cachedSite{Lock: strings.Clone(s.Lock), Span: ix.Rel(s.Span), Fn: strings.Clone(s.Fn)}
}

func encodeAccess(ix *factstore.Index, ac concurrent.Access) cachedAccess {
	return cachedAccess{
		Global: strings.Clone(ac.Global), Field: strings.Clone(ac.Field), Write: ac.Write,
		Span: ix.Rel(ac.Span), Func: strings.Clone(ac.Func),
		Lockset: cloneAll(ac.Lockset), Spawned: ac.Spawned,
	}
}

func decodeAccess(ix *factstore.Index, ca cachedAccess) concurrent.Access {
	return concurrent.Access{
		Global: ca.Global, Field: ca.Field, Write: ca.Write,
		Span: ix.Abs(ca.Span), Func: ca.Func,
		Lockset: ca.Lockset, Spawned: ca.Spawned,
	}
}

func encodeAtomicSite(ix *factstore.Index, s AtomicSite) cachedAtomicSite {
	return cachedAtomicSite{Span: ix.Rel(s.Span), Fn: strings.Clone(s.Fn), Nested: s.Nested}
}

func decodeAtomicSite(ix *factstore.Index, s cachedAtomicSite) AtomicSite {
	return AtomicSite{Span: ix.Abs(s.Span), Fn: s.Fn, Nested: s.Nested}
}

func encodeEffectSite(ix *factstore.Index, s EffectSite) cachedEffectSite {
	return cachedEffectSite{Kind: s.Kind, Name: strings.Clone(s.Name), Span: ix.Rel(s.Span), Fn: strings.Clone(s.Fn), Atomic: s.Atomic}
}

func decodeEffectSite(ix *factstore.Index, s cachedEffectSite) EffectSite {
	return EffectSite{Kind: s.Kind, Name: s.Name, Span: ix.Abs(s.Span), Fn: s.Fn, Atomic: s.Atomic}
}

func encodeRetrySite(ix *factstore.Index, s RetrySite) cachedRetrySite {
	return cachedRetrySite{Span: ix.Rel(s.Span), Fn: strings.Clone(s.Fn), Cond: strings.Clone(s.Cond)}
}

func decodeRetrySite(ix *factstore.Index, s cachedRetrySite) RetrySite {
	return RetrySite{Span: ix.Abs(s.Span), Fn: s.Fn, Cond: s.Cond}
}

func encodeEffects(ix *factstore.Index, eff *FuncEffects) *cachedEffects {
	// Maps are allocated only when non-empty (most functions acquire no
	// locks); the decoder mirrors this, and every consumer of FuncEffects
	// treats a nil map as empty.
	ce := &cachedEffects{}
	if len(eff.Acquires) > 0 {
		ce.Acquires = make(map[string]cachedSite, len(eff.Acquires))
		for l, s := range eff.Acquires {
			ce.Acquires[strings.Clone(l)] = encodeSite(ix, s)
		}
	}
	if len(eff.Edges) > 0 {
		ce.Edges = make(map[string]map[string]cachedSite, len(eff.Edges))
		for a, outs := range eff.Edges {
			m := make(map[string]cachedSite, len(outs))
			for b, s := range outs {
				m[strings.Clone(b)] = encodeSite(ix, s)
			}
			ce.Edges[strings.Clone(a)] = m
		}
	}
	if len(eff.Self) > 0 {
		ce.Self = make(map[string]cachedSite, len(eff.Self))
		for l, s := range eff.Self {
			ce.Self[strings.Clone(l)] = encodeSite(ix, s)
		}
	}
	if len(eff.Accesses) > 0 {
		ce.Accesses = make([]cachedAccess, len(eff.Accesses))
		for i, ac := range eff.Accesses {
			ce.Accesses[i] = encodeAccess(ix, ac)
		}
	}
	if len(eff.Atomics) > 0 {
		ce.Atomics = make([]cachedAtomicSite, len(eff.Atomics))
		for i, s := range eff.Atomics {
			ce.Atomics[i] = encodeAtomicSite(ix, s)
		}
	}
	if len(eff.Irrev) > 0 {
		ce.Irrev = make([]cachedEffectSite, len(eff.Irrev))
		for i, s := range eff.Irrev {
			ce.Irrev[i] = encodeEffectSite(ix, s)
		}
	}
	if len(eff.Retries) > 0 {
		ce.Retries = make([]cachedRetrySite, len(eff.Retries))
		for i, s := range eff.Retries {
			ce.Retries[i] = encodeRetrySite(ix, s)
		}
	}
	ce.VHash = effectsVHash(ce)
	return ce
}

// effectsVHash hashes a cached summary's value under a tagged, length-
// delimited serialisation (factstore.Hash delimits every part, the tags
// separate the sections), with map sections in sorted key order so equal
// values always hash equally.
func effectsVHash(ce *cachedEffects) string {
	parts := make([]string, 1, 8+8*len(ce.Accesses))
	parts[0] = "effv"
	site := func(tag, key string, s cachedSite) {
		parts = append(parts, tag, key, s.Lock, s.Fn, relStr(s.Span))
	}
	for _, l := range sortedCachedKeys(ce.Acquires) {
		site("a", l, ce.Acquires[l])
	}
	for _, a := range sortedCachedEdgeKeys(ce.Edges) {
		outs := ce.Edges[a]
		for _, b := range sortedCachedKeys(outs) {
			site("e", a+"\x00"+b, outs[b])
		}
	}
	for _, l := range sortedCachedKeys(ce.Self) {
		site("s", l, ce.Self[l])
	}
	for _, ac := range ce.Accesses {
		parts = append(parts, "c", ac.Global, ac.Field, bit(ac.Write),
			relStr(ac.Span), ac.Func, strconv.Itoa(len(ac.Lockset)))
		parts = append(parts, ac.Lockset...)
		parts = append(parts, bit(ac.Spawned))
	}
	for _, s := range ce.Atomics {
		parts = append(parts, "t", relStr(s.Span), s.Fn, bit(s.Nested))
	}
	for _, s := range ce.Irrev {
		parts = append(parts, "i", s.Kind, s.Name, relStr(s.Span), s.Fn, bit(s.Atomic))
	}
	for _, s := range ce.Retries {
		parts = append(parts, "r", relStr(s.Span), s.Fn, s.Cond)
	}
	return factstore.Hash(parts...)
}

func relStr(r factstore.RelSpan) string {
	return r.Owner + "\x00" + strconv.Itoa(r.Start) + "\x00" + strconv.Itoa(r.End)
}

func bit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func decodeEffects(ix *factstore.Index, name string, ce *cachedEffects) *FuncEffects {
	eff := &FuncEffects{Name: name}
	if len(ce.Acquires) > 0 {
		eff.Acquires = make(map[string]LockSite, len(ce.Acquires))
		for l, s := range ce.Acquires {
			eff.Acquires[l] = decodeSite(ix, s)
		}
	}
	if len(ce.Edges) > 0 {
		eff.Edges = make(map[string]map[string]LockSite, len(ce.Edges))
		for a, outs := range ce.Edges {
			m := make(map[string]LockSite, len(outs))
			for b, s := range outs {
				m[b] = decodeSite(ix, s)
			}
			eff.Edges[a] = m
		}
	}
	if len(ce.Self) > 0 {
		eff.Self = make(map[string]LockSite, len(ce.Self))
		for l, s := range ce.Self {
			eff.Self[l] = decodeSite(ix, s)
		}
	}
	if len(ce.Accesses) > 0 {
		eff.Accesses = make([]concurrent.Access, len(ce.Accesses))
		for i, ac := range ce.Accesses {
			eff.Accesses[i] = decodeAccess(ix, ac)
		}
	}
	if len(ce.Atomics) > 0 {
		eff.Atomics = make([]AtomicSite, len(ce.Atomics))
		for i, s := range ce.Atomics {
			eff.Atomics[i] = decodeAtomicSite(ix, s)
		}
	}
	if len(ce.Irrev) > 0 {
		eff.Irrev = make([]EffectSite, len(ce.Irrev))
		for i, s := range ce.Irrev {
			eff.Irrev[i] = decodeEffectSite(ix, s)
		}
	}
	if len(ce.Retries) > 0 {
		eff.Retries = make([]RetrySite, len(ce.Retries))
		for i, s := range ce.Retries {
			eff.Retries[i] = decodeRetrySite(ix, s)
		}
	}
	return eff
}

// cachedAgg is the folded output of aggregation: the program-wide lock
// order, self-deadlock sites, and race set, with relative spans. It is
// keyed by every function's summary VHash and entry status in definition
// order, so one entry serves every edit that leaves all summary values
// unchanged.
type cachedAgg struct {
	Edges   []cachedAggEdge
	Self    []cachedAggSelf
	Races   []cachedRace
	Shared  []cachedAccess
	Nested  []cachedAtomicSite
	Effects []cachedEffectSite
	Retries []cachedRetrySite
}

type cachedAggEdge struct {
	A, B string
	Site cachedSite
}

type cachedAggSelf struct {
	Lock string
	Site cachedSite
}

type cachedRace struct {
	Location string
	A, B     cachedAccess
}

func encodeAgg(ix *factstore.Index, s *Summaries) *cachedAgg {
	ca := &cachedAgg{}
	for _, a := range sortedEdgeKeys(s.LockEdges) {
		outs := s.LockEdges[a]
		for _, b := range sortedKeys(outs) {
			ca.Edges = append(ca.Edges, cachedAggEdge{A: strings.Clone(a), B: strings.Clone(b), Site: encodeSite(ix, outs[b])})
		}
	}
	for _, a := range sortedKeys(s.LockSelf) {
		ca.Self = append(ca.Self, cachedAggSelf{Lock: strings.Clone(a), Site: encodeSite(ix, s.LockSelf[a])})
	}
	if len(s.Races) > 0 {
		ca.Races = make([]cachedRace, len(s.Races))
		for i, r := range s.Races {
			ca.Races[i] = cachedRace{
				Location: r.Location,
				A:        encodeAccess(ix, r.A),
				B:        encodeAccess(ix, r.B),
			}
		}
	}
	if len(s.SharedAccesses) > 0 {
		ca.Shared = make([]cachedAccess, len(s.SharedAccesses))
		for i, ac := range s.SharedAccesses {
			ca.Shared[i] = encodeAccess(ix, ac)
		}
	}
	if len(s.NestedAtomics) > 0 {
		ca.Nested = make([]cachedAtomicSite, len(s.NestedAtomics))
		for i, a := range s.NestedAtomics {
			ca.Nested[i] = encodeAtomicSite(ix, a)
		}
	}
	if len(s.AtomicEffects) > 0 {
		ca.Effects = make([]cachedEffectSite, len(s.AtomicEffects))
		for i, e := range s.AtomicEffects {
			ca.Effects[i] = encodeEffectSite(ix, e)
		}
	}
	if len(s.RetryLoops) > 0 {
		ca.Retries = make([]cachedRetrySite, len(s.RetryLoops))
		for i, r := range s.RetryLoops {
			ca.Retries[i] = encodeRetrySite(ix, r)
		}
	}
	return ca
}

func decodeAgg(ix *factstore.Index, ca *cachedAgg) *Summaries {
	s := &Summaries{
		LockEdges: map[string]map[string]LockSite{},
		LockSelf:  map[string]LockSite{},
	}
	for _, e := range ca.Edges {
		m := s.LockEdges[e.A]
		if m == nil {
			m = map[string]LockSite{}
			s.LockEdges[e.A] = m
		}
		m[e.B] = decodeSite(ix, e.Site)
	}
	for _, e := range ca.Self {
		s.LockSelf[e.Lock] = decodeSite(ix, e.Site)
	}
	if len(ca.Races) > 0 {
		s.Races = make([]concurrent.Race, len(ca.Races))
		for i, r := range ca.Races {
			s.Races[i] = concurrent.Race{
				Location: r.Location,
				A:        decodeAccess(ix, r.A),
				B:        decodeAccess(ix, r.B),
			}
		}
	}
	if len(ca.Shared) > 0 {
		s.SharedAccesses = make([]concurrent.Access, len(ca.Shared))
		for i, ac := range ca.Shared {
			s.SharedAccesses[i] = decodeAccess(ix, ac)
		}
	}
	if len(ca.Nested) > 0 {
		s.NestedAtomics = make([]AtomicSite, len(ca.Nested))
		for i, a := range ca.Nested {
			s.NestedAtomics[i] = decodeAtomicSite(ix, a)
		}
	}
	if len(ca.Effects) > 0 {
		s.AtomicEffects = make([]EffectSite, len(ca.Effects))
		for i, e := range ca.Effects {
			s.AtomicEffects[i] = decodeEffectSite(ix, e)
		}
	}
	if len(ca.Retries) > 0 {
		s.RetryLoops = make([]RetrySite, len(ca.Retries))
		for i, r := range ca.Retries {
			s.RetryLoops[i] = decodeRetrySite(ix, r)
		}
	}
	return s
}

// cachedBundle holds every bundled per-function analyzer's findings for one
// function, aligned with the bundled analyzers in selection order (the
// bundle key embeds the analyzer list, so alignment cannot drift).
type cachedBundle struct {
	ByAnalyzer [][]cachedFinding
}

type cachedRelated struct {
	Span    factstore.RelSpan
	Message string
	File    string
}

// cachedFinding is a Finding with relative spans. Messages embed names and
// rendered values but never absolute offsets (renderers derive positions
// from the span at print time), so they cache verbatim.
type cachedFinding struct {
	Code     string
	Severity source.Severity
	Span     factstore.RelSpan
	Message  string
	Analyzer string
	Related  []cachedRelated
}

func encodeFindings(ix *factstore.Index, fs []Finding) []cachedFinding {
	out := make([]cachedFinding, len(fs))
	for i, f := range fs {
		cf := cachedFinding{
			Code: f.Code, Severity: f.Severity, Span: ix.Rel(f.Span),
			Message: f.Message, Analyzer: f.Analyzer,
		}
		for _, r := range f.Related {
			cf.Related = append(cf.Related, cachedRelated{
				Span: ix.Rel(r.Span), Message: r.Message, File: r.File,
			})
		}
		out[i] = cf
	}
	return out
}

func decodeFindings(ix *factstore.Index, cfs []cachedFinding) []Finding {
	if len(cfs) == 0 {
		return nil
	}
	out := make([]Finding, len(cfs))
	for i, cf := range cfs {
		f := Finding{
			Code: cf.Code, Severity: cf.Severity, Span: ix.Abs(cf.Span),
			Message: cf.Message, Analyzer: cf.Analyzer,
		}
		for _, r := range cf.Related {
			f.Related = append(f.Related, Related{
				Span: ix.Abs(r.Span), Message: r.Message, File: r.File,
			})
		}
		out[i] = f
	}
	return out
}
