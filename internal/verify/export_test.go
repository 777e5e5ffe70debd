package verify

import (
	"bitc/internal/ast"
	"bitc/internal/types"
)

// ProgramCounted is Program plus its work counter: the contract-table
// entries built and the expressions evaluated.
func ProgramCounted(prog *ast.Program, info *types.Info, opts Options) (*Report, int) {
	return program(prog, info, opts)
}
