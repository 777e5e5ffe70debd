package cfg

import (
	"bitc/internal/ast"
	"bitc/internal/types"
)

// BuildCounted is Build plus the builder's work counter: blocks made,
// atoms emitted, Decls entries grown and names resolved.
func BuildCounted(fn *ast.DefineFunc, info *types.Info) (*Graph, int) {
	return build(fn, info)
}
