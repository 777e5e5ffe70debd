package opt_test

import (
	"fmt"
	"testing"

	"bitc/internal/compiler"
	"bitc/internal/corpus"
	"bitc/internal/ir"
	"bitc/internal/opt"
	"bitc/internal/parser"
	"bitc/internal/types"
)

// Bounds on the optimiser's work per unit of input. Each holds at every
// size, so a pass costs time linear in the function it rewrites: scanning
// the live copies at every definition, re-sweeping a function until no
// dead instruction is left, or re-walking every move until no escape
// spreads would push a ratio up with N.
const (
	maxAliasOpsPerInstr = 4.0 // copy-propagation table reads and definitions per instruction
	maxPopsPerInstr     = 1.0 // dead-code worklist pops per instruction
	maxStepsPerMov      = 4.0 // escape-propagation steps per move
)

// TestOptLinearCost optimises the scaling shapes at O2 at growing sizes and
// bounds the passes' deterministic work counters, not their wall time.
// Instructions and moves are counted as the compiler emitted them.
//
// What the counters cannot see: constant folding keeps no counter, as its
// work is one table read per operand by construction; and each counter
// counts table operations, not the cost of one, which a return to maps
// would raise only in the wall time.
func TestOptLinearCost(t *testing.T) {
	shapes := []struct {
		name  string
		gen   func(int) string
		sizes []int
	}{
		{"set-body", corpus.SetBodyShape, []int{1000, 4000, 16000}},
		{"nest", corpus.NestShape, []int{5000, 20000}},
		{"let", corpus.LetShape, []int{1000, 4000}},
		{"if", corpus.IfShape, []int{1000, 4000}},
		{"mov-chain", corpus.MovChainShape, []int{1000, 4000}},
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
			mod, mdiags := compiler.Compile(prog, info, compiler.Options{})
			if mdiags.HasErrors() {
				t.Fatalf("%s: compile: %v", name, mdiags)
			}
			instrs, movs := 0, 0
			for _, f := range mod.Funcs {
				for _, b := range f.Blocks {
					instrs += len(b.Instrs)
					for _, in := range b.Instrs {
						if in.Op == ir.OpMov {
							movs++
						}
					}
				}
			}
			if instrs < n {
				t.Fatalf("%s: only %d instructions", name, instrs)
			}
			_, w := opt.OptimizeCounted(mod, opt.O2)
			api := float64(w.AliasOps) / float64(instrs)
			ppi := float64(w.DCEPops) / float64(instrs)
			spm := 0.0
			if movs > 0 {
				spm = float64(w.EscSteps) / float64(movs)
			} else if w.EscSteps > 0 {
				t.Errorf("%s: %d escape steps without a move", name, w.EscSteps)
			}
			t.Logf("%s: %d instructions, %.2f alias ops and %.2f pops each; %d moves, %.2f steps each",
				name, instrs, api, ppi, movs, spm)
			if api > maxAliasOpsPerInstr {
				t.Errorf("%s: %.2f alias-table operations per instruction, want <= %.0f", name, api, maxAliasOpsPerInstr)
			}
			if ppi > maxPopsPerInstr {
				t.Errorf("%s: %.2f worklist pops per instruction, want <= %.0f", name, ppi, maxPopsPerInstr)
			}
			if spm > maxStepsPerMov {
				t.Errorf("%s: %.2f escape steps per move, want <= %.0f", name, spm, maxStepsPerMov)
			}
		}
	}
}
