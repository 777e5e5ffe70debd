package cfg_test

import (
	"fmt"
	"testing"

	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/corpus"
	"bitc/internal/parser"
	"bitc/internal/types"
)

// TestCFGLinearCost builds the CFGs of the nested-let and nested-if shapes
// at 1000 and 4000 and bounds the builder's deterministic work counter,
// not its wall time: four times the input must cost about four times the
// work. A name resolved by walking a stack of per-scope maps, as the
// builder once did, costs the depth of the nest per use on these shapes.
func TestCFGLinearCost(t *testing.T) {
	for _, sh := range []struct {
		name string
		gen  func(int) string
	}{
		{"let", corpus.LetShape},
		{"if", corpus.IfShape},
	} {
		work := map[int]int{}
		for _, n := range []int{1000, 4000} {
			name := fmt.Sprintf("%s-%d", sh.name, n)
			prog, diags := parser.Parse(name, sh.gen(n))
			if diags.HasErrors() {
				t.Fatalf("%s: parse: %v", name, diags)
			}
			info, cdiags := types.Check(prog)
			if cdiags.HasErrors() {
				t.Fatalf("%s: check: %v", name, cdiags)
			}
			for _, d := range prog.Defs {
				if fn, ok := d.(*ast.DefineFunc); ok {
					_, w := cfg.BuildCounted(fn, info)
					work[n] += w
				}
			}
			t.Logf("%s: work %d", name, work[n])
		}
		if r := float64(work[4000]) / float64(work[1000]); r > 4.4 {
			t.Errorf("%s: CFG work grew %.2fx for 4x the input, want about 4x", sh.name, r)
		}
	}
}
