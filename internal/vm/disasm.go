package vm

// disasm.go renders the decoded (and fused) form of a function, so dispatch
// changes are reviewable as diffs: scripts/check.sh pins the listings of two
// E1 kernels as golden files. The left column is the decode-time
// classification (the specialized handler chosen, or the superinstruction
// shape); the right column is the source IR.

import (
	"fmt"
	"strings"

	"bitc/internal/ir"
)

// DisasmFunc returns the decoded instruction listing of the named function
// under the VM's dispatch mode. Each line is `label  ir-rendering`; fused
// slots list their components joined by " ; " with the absorbed branch (if
// any) rendered last. The listing reflects exactly what the inner loop will
// dispatch; it forces decoding if the VM has not run yet.
func (v *VM) DisasmFunc(name string) (string, error) {
	idx, ok := v.mod.FuncIdx[name]
	if !ok {
		return "", trapf("no function %s", name)
	}
	v.ensureDecoded()
	df := v.dfuncs[idx]
	var b strings.Builder
	fmt.Fprintf(&b, "func %s dispatch=%s\n", name, v.opts.Dispatch)
	for bi := range df.blocks {
		blk := &df.blocks[bi]
		fmt.Fprintf(&b, "b%d:\n", bi)
		for i := range blk.code {
			d := &blk.code[i]
			fmt.Fprintf(&b, "  %-26s %s\n", d.label, renderSlot(d))
		}
		if blk.termFused {
			fmt.Fprintf(&b, "  %-26s (absorbed above)\n", "term")
		} else {
			fmt.Fprintf(&b, "  %-26s %s\n", "term", renderTerm(&blk.term))
		}
	}
	return b.String(), nil
}

// renderSlot renders one decoded slot's source instructions.
func renderSlot(d *dinstr) string {
	s := d.src.String()
	for i := range d.fused {
		s += " ; " + d.fused[i].src.String()
	}
	if d.br {
		s += fmt.Sprintf(" ; br r%d b%d b%d", d.cond, d.to, d.els)
	}
	return s
}

func renderTerm(t *dterm) string {
	return ir.Terminator{Kind: t.kind, Cond: t.cond, To: t.to, Else: t.els, Val: t.val}.String()
}
