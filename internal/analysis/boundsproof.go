package analysis

// The proof-set side of the bounds analyzer: BoundsProofs runs the same
// relational engine the BITC-BOUND analyzer uses, but instead of findings it
// returns the set of vector-access sites the prover discharged. internal/vm
// consumes this set in its pre-decode pass to select bounds-check-free
// handlers for proven OpVecRef/OpVecSet sites, so the static prover pays for
// itself at dispatch time.
//
// The prover pays only where it can elide a check. A syntactic walk
// (hasVectorSite) finds the functions that contain a vector-ref/vector-set!
// call; a program with none gets the empty proof set without building a
// CFG or a points-to graph. Otherwise every function gets a CFG and
// whole-program points-to is solved, but the engine runs on the
// site-bearing functions only: a function without a site has nothing to
// classify, so skipping it cannot change the proof set.
//
// Sites are keyed by the access expression's source position as stamped into
// ir.Instr.Pos by the compiler (span start + 1 so that zero means "no
// position"), which is stable across compilation because both sides read the
// same resolved AST.

import (
	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/pointsto"
	"bitc/internal/source"
	"bitc/internal/types"
)

// BoundsProofSet is the result of a bounds-prover run over a whole program.
type BoundsProofSet struct {
	// Sites counts the static vector-ref/vector-set! sites examined.
	Sites int
	// Proved counts the sites discharged as always in range.
	Proved int

	elidable map[int]bool
}

// Elidable returns the set of proven access sites keyed by compiler position
// stamp (source span start + 1, matching ir.Instr.Pos). The returned map is
// shared; callers must not mutate it.
func (ps *BoundsProofSet) Elidable() map[int]bool { return ps.elidable }

func (ps *BoundsProofSet) add(span source.Span, proved bool) {
	ps.Sites++
	if proved {
		ps.Proved++
		ps.elidable[int(span.Start)+1] = true
	}
}

// isVectorAccess reports whether call is a vector-ref/vector-set! site the
// bounds engine classifies.
func isVectorAccess(info *types.Info, call *ast.Call) bool {
	v, ok := call.Fn.(*ast.VarRef)
	if !ok || len(call.Args) < 2 {
		return false
	}
	op := info.Builtin(v)
	return op == "vector-ref" || op == "vector-set!"
}

// hasVectorSite reports whether fn contains a vector-access site anywhere,
// lambda bodies and contracts included. A function without one has nothing
// for the bounds engine to classify.
func hasVectorSite(info *types.Info, fn *ast.DefineFunc) bool {
	found := false
	ast.WalkDef(fn, func(e ast.Expr) bool {
		if call, ok := e.(*ast.Call); ok && isVectorAccess(info, call) {
			found = true
		}
		return !found
	})
	return found
}

// BoundsProofs runs the bounds prover over every function with a vector
// access and returns the proof set. It is independent of the finding
// drivers so the VM path can ask for proofs without assembling a report.
func BoundsProofs(prog *ast.Program, info *types.Info) *BoundsProofSet {
	var funcs, need []*ast.DefineFunc
	for _, d := range prog.Defs {
		if fn, ok := d.(*ast.DefineFunc); ok {
			funcs = append(funcs, fn)
			if hasVectorSite(info, fn) {
				need = append(need, fn)
			}
		}
	}
	ps := &BoundsProofSet{elidable: map[int]bool{}}
	for _, sites := range proveSites(prog, info, funcs, need) {
		for _, s := range sites {
			ps.add(s.span, s.verdict == siteProved)
		}
	}
	return ps
}

// proveSites runs the bounds engine on need (site-bearing functions) and
// returns each one's classified sites in need order. Any function to prove
// rebuilds the full substrate — a CFG per function and whole-program
// points-to — because proofs are consumed at program load (one shot); no
// function to prove builds nothing.
func proveSites(prog *ast.Program, info *types.Info, funcs, need []*ast.DefineFunc) [][]boundsSite {
	if len(need) == 0 {
		return nil
	}
	cfgs := make(map[*ast.DefineFunc]*cfg.Graph, len(funcs))
	for _, fn := range funcs {
		cfgs[fn] = cfg.Build(fn, info)
	}
	pts := pointsto.Analyze(prog, info, cfgs)
	out := make([][]boundsSite, len(need))
	for i, fn := range need {
		out[i] = newBoundsEngine(info, cfgs[fn], pts, fn.Name).analyze()
	}
	return out
}
