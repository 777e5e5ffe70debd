package analysis

import (
	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/factstore"
	"bitc/internal/pointsto"
	"bitc/internal/types"
)

// BoundsProofsWholeProgram is the reference the site-scanning prover is
// held to: the bounds engine on every function, site-bearing or not.
func BoundsProofsWholeProgram(prog *ast.Program, info *types.Info) *BoundsProofSet {
	var funcs []*ast.DefineFunc
	cfgs := map[*ast.DefineFunc]*cfg.Graph{}
	for _, d := range prog.Defs {
		if fn, ok := d.(*ast.DefineFunc); ok {
			funcs = append(funcs, fn)
			cfgs[fn] = cfg.Build(fn, info)
		}
	}
	pts := pointsto.Analyze(prog, info, cfgs)
	ps := &BoundsProofSet{elidable: map[int]bool{}}
	for _, fn := range funcs {
		for _, s := range newBoundsEngine(info, cfgs[fn], pts, fn.Name).analyze() {
			ps.add(s.span, s.verdict == siteProved)
		}
	}
	return ps
}

// KeyWork counts SHA-256 digests and type renderings of one key derivation.
type KeyWork = keyWork

// CarriedKeyWork returns what deriving the keys of the last run on file
// into store cost.
func CarriedKeyWork(store *factstore.Store, file string) KeyWork {
	return store.Carry(file).(*progKeys).work
}
