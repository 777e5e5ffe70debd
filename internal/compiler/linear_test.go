package compiler_test

import (
	"fmt"
	"testing"

	"bitc/internal/ast"
	"bitc/internal/compiler"
	"bitc/internal/corpus"
	"bitc/internal/parser"
	"bitc/internal/types"
)

// maxProbesPerVRef bounds the compiler's slot-table reads per variable
// reference. It holds at every size, so resolving locals costs the same at
// any nesting depth: a scope chain walked outwards, or a read repeated per
// enclosing scope, would push the ratio up with N.
const maxProbesPerVRef = 2.0

// TestCompileLinearCost compiles the scaling shapes at growing sizes and
// bounds the compiler's deterministic work counter, not its wall time.
//
// What the counter cannot see: probes counts reads of the slot table
// indexed by binding number, one per call, so it bounds reads per
// reference and not the work inside one. A read is one slice index by
// construction; a return to a chain of per-scope maps would show only in
// the wall time and the allocations.
func TestCompileLinearCost(t *testing.T) {
	shapes := []struct {
		name  string
		gen   func(int) string
		sizes []int
	}{
		{"set-body", corpus.SetBodyShape, []int{1000, 4000, 16000}},
		{"nest", corpus.NestShape, []int{5000, 20000}},
		{"let", corpus.LetShape, []int{1000, 4000}},
		{"if", corpus.IfShape, []int{1000, 4000}},
	}
	for _, sh := range shapes {
		for _, n := range sh.sizes {
			name := fmt.Sprintf("%s-%d", sh.name, n)
			prog, diags := parser.Parse(name, sh.gen(n))
			if diags.HasErrors() {
				t.Fatalf("%s: parse: %v", name, diags)
			}
			info, cdiags := types.Check(prog)
			if cdiags.HasErrors() {
				t.Fatalf("%s: check: %v", name, cdiags)
			}
			_, mdiags, probes := compiler.CompileCounted(prog, info, compiler.Options{})
			if mdiags.HasErrors() {
				t.Fatalf("%s: compile: %v", name, mdiags)
			}
			refs := 0
			for _, d := range prog.Defs {
				ast.WalkDef(d, func(e ast.Expr) bool {
					if _, ok := e.(*ast.VarRef); ok {
						refs++
					}
					return true
				})
			}
			if refs < n {
				t.Fatalf("%s: only %d references", name, refs)
			}
			ppr := float64(probes) / float64(refs)
			t.Logf("%s: %d references, %.2f probes each", name, refs, ppr)
			if ppr > maxProbesPerVRef {
				t.Errorf("%s: %.2f slot-table reads per VarRef, want <= %.0f", name, ppr, maxProbesPerVRef)
			}
		}
	}
}
