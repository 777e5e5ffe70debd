package vm

// fuse.go: the peephole superinstruction pass over a decoded block. It
// collapses the adjacent pairs the profiler (`bitc top`) surfaces on the
// E1/E8 kernels — const+arith, mov feeding arith, load+compare+branch — into
// one dispatch slot, so the inner loop pays one indirect call where it paid
// two or three. Eligibility is governed by ir.Op.FuseClass (the stable
// contract with the IR) plus the decode-time canFuse bit: only specialized,
// non-blocking, frame-neutral instructions fuse, so a fused component either
// completes or traps, never yields mid-superinstruction.
//
// Fidelity: a superinstruction still counts Stats.Instrs and consumes
// instruction budget once per original component, and on the exact path
// (an observer attached, or the budget within reach) VM.runExact runs its
// components one at a time, ticking between them, so profiles, traces, and
// budget traps are identical to unfused execution. The handlers below are
// the fast path: they run the components back to back and leave the
// accounting to the loop, which charges the slot's width and, when a later
// component traps (slotTrap), only the components that ran. The one
// permitted divergence is quantum granularity: a superinstruction never
// splits across a preemption point, so a thread may overrun its quantum by
// at most width-1 instructions. docs/vm.md documents this contract.

import (
	"bitc/internal/ir"
)

// fuseBlock rewrites a decoded block, greedily fusing left to right. When
// the block ends in compare(+branch), the terminator itself is absorbed into
// the final superinstruction (termFused).
func fuseBlock(blk dblock) dblock {
	code, term := blk.code, blk.term
	var out []dinstr
	i, n := 0, len(code)
	for i < n {
		c1 := &code[i]
		// load/const + cmp + branch: the whole loop-bottom idiom in one slot.
		if i == n-2 && term.kind == ir.TermBranch {
			c2 := &code[i+1]
			if fuseHead(c1) && fuseCmp(c2) && c2.dst == term.cond {
				f := *c1
				f.base, f.h = c1.h, fTripleBr
				f.width = 3
				f.fused = []dinstr{*c2}
				f.cond, f.to, f.els = term.cond, term.to, term.els
				f.ctl, f.br = true, true
				f.label = "fuse[" + c1.label + "+" + c2.label + "+br]"
				out = append(out, f)
				blk.termFused = true
				i += 2
				continue
			}
		}
		// cmp + branch.
		if i == n-1 && term.kind == ir.TermBranch && fuseCmp(c1) && c1.dst == term.cond {
			f := *c1
			f.base, f.h = c1.h, fCmpBr
			f.width = 2
			f.cond, f.to, f.els = term.cond, term.to, term.els
			f.ctl, f.br = true, true
			f.label = "fuse[" + c1.label + "+br]"
			out = append(out, f)
			blk.termFused = true
			i++
			continue
		}
		// const/load + arith|cmp pairs (including mov coalescing).
		if i+1 < n {
			if f, ok := fusePair(c1, &code[i+1]); ok {
				out = append(out, f)
				i += 2
				continue
			}
		}
		out = append(out, *c1)
		i++
	}
	blk.code = out
	return blk
}

// fuseHead reports whether d may lead a superinstruction: a specialized
// constant or load.
func fuseHead(d *dinstr) bool {
	if !d.canFuse {
		return false
	}
	c := d.op.FuseClass()
	return c == ir.FuseConst || c == ir.FuseLoad
}

// fuseCmp reports whether d is a specialized comparison.
func fuseCmp(d *dinstr) bool {
	return d.canFuse && d.op.FuseClass() == ir.FuseCmp
}

// fusePair builds a two-wide superinstruction from a const/load followed by
// an arithmetic or comparison instruction, when both are specialized. The
// hottest shape — an unboxed 64-bit add/sub whose right operand is the just-
// materialised integer constant — gets a deep handler that skips the second
// dispatch entirely; everything else chains the two component handlers.
func fusePair(c1, c2 *dinstr) (dinstr, bool) {
	if !fuseHead(c1) {
		return dinstr{}, false
	}
	cls := c2.op.FuseClass()
	if !c2.canFuse || (cls != ir.FuseArith && cls != ir.FuseCmp) {
		return dinstr{}, false
	}
	f := *c1
	f.base, f.h = c1.h, fPair
	f.width = 2
	f.fused = []dinstr{*c2}
	f.label = "fuse[" + c1.label + "+" + c2.label + "]"
	if c1.op == ir.OpConst && c1.val.K == KInt && !c1.boxIt && !c2.boxIt &&
		c2.bits >= 64 && c2.b == c1.dst {
		switch c2.op {
		case ir.OpAdd:
			f.h, f.label = fConstAddB, "fuse[const+add.k]"
		case ir.OpSub:
			f.h, f.label = fConstSubB, "fuse[const+sub.k]"
		}
	}
	return f, true
}

// ---------------------------------------------------------------------------
// Superinstruction handlers
// ---------------------------------------------------------------------------

// fPair runs component 1 (the slot's own operands, via base) then
// component 2.
func fPair(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	if err := d.base(v, t, fr, d); err != nil {
		return err
	}
	e := &d.fused[0]
	if err := e.h(v, t, fr, e); err != nil {
		v.slotTrap = 1
		return err
	}
	return nil
}

// branch takes a superinstruction's absorbed branch terminator.
func branch(fr *Frame, d *dinstr) {
	if fr.regs[d.cond].Truthy() {
		fr.block = d.to
	} else {
		fr.block = d.els
	}
	fr.ip = 0
}

// fCmpBr runs a comparison then the block's branch terminator.
func fCmpBr(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	if err := d.base(v, t, fr, d); err != nil {
		return err
	}
	branch(fr, d)
	return nil
}

// fTripleBr runs a load/const, a comparison, and the branch terminator.
func fTripleBr(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	if err := d.base(v, t, fr, d); err != nil {
		return err
	}
	e := &d.fused[0]
	if err := e.h(v, t, fr, e); err != nil {
		v.slotTrap = 1
		return err
	}
	branch(fr, d)
	return nil
}

// fConstAddB is the deep const+add superinstruction: r(c) = k; r(d) = a + k,
// unboxed 64-bit. The constant store stays visible (a later branch target
// may read it), but the add reads the known immediate directly.
func fConstAddB(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	fr.regs[d.dst] = d.val
	e := &d.fused[0]
	fr.regs[e.dst] = intVal(v.loadInt(fr.regs[e.a]) + d.val.I)
	return nil
}

// fConstSubB is the deep const+sub superinstruction (fib's `n-1`/`n-2`).
func fConstSubB(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	fr.regs[d.dst] = d.val
	e := &d.fused[0]
	fr.regs[e.dst] = intVal(v.loadInt(fr.regs[e.a]) - d.val.I)
	return nil
}
