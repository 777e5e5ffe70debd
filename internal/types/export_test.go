package types

import (
	"bitc/internal/ast"
	"bitc/internal/source"
)

// CheckCounted is Check plus the checker's work counters: the Link hops its
// path-compressing find walked and the probes its scope table answered.
func CheckCounted(prog *ast.Program) (info *Info, diags *source.Diagnostics, hops, probes int) {
	c := newChecker(prog)
	c.run(prog)
	return c.info, c.diags, c.u.hops, c.scope.probes
}
