package opt

import "bitc/internal/ir"

// Work is what one Optimize call's passes did, counted in steps that do
// not depend on the machine.
type Work struct {
	AliasOps int // copy-propagation table reads and definitions
	DCEPops  int // registers popped from the dead-code worklist
	EscSteps int // moves examined while propagating escapes
}

// OptimizeCounted is Optimize plus the passes' work counters.
func OptimizeCounted(mod *ir.Module, level Level) (*Result, Work) {
	t := &tables{}
	res := optimize(mod, level, t)
	return res, Work{t.aliasOps, t.dcePops, t.escSteps}
}
