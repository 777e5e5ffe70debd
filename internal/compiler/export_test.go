package compiler

import (
	"bitc/internal/ast"
	"bitc/internal/ir"
	"bitc/internal/source"
	"bitc/internal/types"
)

// CompileCounted is Compile plus the compiler's work counter: the reads of
// its binding-number slot table.
func CompileCounted(prog *ast.Program, info *types.Info, opts Options) (*ir.Module, *source.Diagnostics, int) {
	c := compile(prog, info, opts)
	return c.mod, c.diags, c.reads
}
