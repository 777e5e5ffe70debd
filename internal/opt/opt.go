// Package opt implements bitc's optimiser: three block-local clean-up
// passes (constant folding, copy propagation, dead-code elimination) and
// the escape-based unboxing analysis that experiment E2 interrogates: under
// a uniform (boxed) representation, which values can a compiler
// legitimately keep out of heap boxes, and which are pinned by stores,
// calls, and returns? The paper's fallacy 2 is the claim that this residue
// is negligible.
package opt

import (
	"math"

	"bitc/internal/ir"
	"bitc/internal/types"
)

// Level selects how much optimisation runs. O2 rewrites no instruction
// that O1 leaves alone: it only adds the NoBox annotation.
type Level int

// Optimisation levels.
const (
	O0 Level = iota // nothing
	O1              // local: const-fold, copy-prop, DCE
	O2              // O1 + unboxing annotation
)

// Result summarises what the optimiser did (for the experiment tables).
type Result struct {
	ConstFolded   int
	CopiesRemoved int
	DeadRemoved   int
	// Inlined is always zero: the optimiser has no inliner. It is kept
	// only because the benchmark reports it as opt.inlined.
	Inlined int
	// BranchesFolded is always zero: the optimiser has no branch folding.
	// It is kept only because the benchmark reports it as
	// opt.branches_folded.
	BranchesFolded int
	// CSEReplaced is always zero: the optimiser has no common-subexpression
	// elimination. It is kept only because the benchmark reports it as
	// opt.cse_replaced.
	CSEReplaced int
	Boxing      BoxingStats
}

// Optimize runs the passes at the given level over every function.
func Optimize(mod *ir.Module, level Level) *Result {
	res := &Result{}
	if level == O0 {
		return res
	}
	for _, f := range mod.Funcs {
		res.ConstFolded += constFold(f)
		res.CopiesRemoved += copyProp(f)
		res.DeadRemoved += deadCode(f)
		if level >= O2 {
			res.Boxing.add(AnnotateUnboxed(f))
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// Constant folding (block-local)
// ---------------------------------------------------------------------------

type constVal struct {
	kind ir.ConstKind
	i    int64
	f    float64
}

// constFold folds arithmetic and comparisons whose operands are known
// constants within a block. Returns the number of instructions folded.
func constFold(f *ir.Func) int {
	folded := 0
	for _, blk := range f.Blocks {
		known := map[ir.Reg]constVal{}
		for idx := range blk.Instrs {
			in := &blk.Instrs[idx]
			switch in.Op {
			case ir.OpConst:
				switch in.CKind {
				case ir.ConstInt, ir.ConstBool, ir.ConstChar:
					known[in.Dst] = constVal{kind: in.CKind, i: in.Imm}
				case ir.ConstFloat:
					known[in.Dst] = constVal{kind: ir.ConstFloat, f: in.FImm}
				default:
					delete(known, in.Dst)
				}
				continue
			case ir.OpMov:
				if c, ok := known[in.A]; ok {
					known[in.Dst] = c
				} else {
					delete(known, in.Dst)
				}
				continue
			}

			if tryFold(in, known) {
				folded++
				// The folded instruction is now OpConst; record it.
				if in.CKind == ir.ConstFloat {
					known[in.Dst] = constVal{kind: ir.ConstFloat, f: in.FImm}
				} else {
					known[in.Dst] = constVal{kind: in.CKind, i: in.Imm}
				}
				continue
			}
			if in.Dst != ir.NoReg {
				delete(known, in.Dst)
			}
		}
	}
	return folded
}

func tryFold(in *ir.Instr, known map[ir.Reg]constVal) bool {
	isIntish := func(c constVal) bool {
		return c.kind == ir.ConstInt || c.kind == ir.ConstBool || c.kind == ir.ConstChar
	}
	a, aok := known[in.A]
	b, bok := known[in.B]
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpShl, ir.OpShr:
		if !aok || !bok || in.Float || !isIntish(a) || !isIntish(b) {
			return false
		}
		var r int64
		switch in.Op {
		case ir.OpAdd:
			r = a.i + b.i
		case ir.OpSub:
			r = a.i - b.i
		case ir.OpMul:
			r = a.i * b.i
		case ir.OpBitAnd:
			r = a.i & b.i
		case ir.OpBitOr:
			r = a.i | b.i
		case ir.OpBitXor:
			r = a.i ^ b.i
		case ir.OpShl:
			r = a.i << (uint64(b.i) & 63)
		case ir.OpShr:
			if in.Signed {
				r = a.i >> (uint64(b.i) & 63)
			} else {
				r = int64(uint64(a.i) >> (uint64(b.i) & 63))
			}
		}
		r = wrapConst(r, in.NumBits, in.Signed)
		*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, CKind: ir.ConstInt, Imm: r, Type: in.Type, Region: ir.NoReg}
		return true
	case ir.OpDiv, ir.OpMod:
		if !aok || !bok || in.Float || !isIntish(a) || !isIntish(b) || b.i == 0 {
			return false // never fold a trap away
		}
		var r int64
		switch {
		case in.Op == ir.OpDiv && in.Signed:
			r = a.i / b.i
		case in.Op == ir.OpDiv:
			r = int64(uint64(a.i) / uint64(b.i))
		case in.Signed:
			r = a.i % b.i
		default:
			r = int64(uint64(a.i) % uint64(b.i))
		}
		r = wrapConst(r, in.NumBits, in.Signed)
		*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, CKind: ir.ConstInt, Imm: r, Type: in.Type, Region: ir.NoReg}
		return true
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		if !aok || !bok || in.Float || !isIntish(a) || !isIntish(b) {
			return false
		}
		// Ordered comparisons follow the VM: unsigned unless in.Signed.
		// Flipping the sign bit maps unsigned order onto signed order.
		x, y := a.i, b.i
		if !in.Signed {
			x, y = x^math.MinInt64, y^math.MinInt64
		}
		var res bool
		switch in.Op {
		case ir.OpEq:
			res = x == y
		case ir.OpNe:
			res = x != y
		case ir.OpLt:
			res = x < y
		case ir.OpLe:
			res = x <= y
		case ir.OpGt:
			res = x > y
		case ir.OpGe:
			res = x >= y
		}
		imm := int64(0)
		if res {
			imm = 1
		}
		*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, CKind: ir.ConstBool, Imm: imm, Region: ir.NoReg}
		return true
	case ir.OpNot:
		if !aok || a.kind != ir.ConstBool {
			return false
		}
		*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, CKind: ir.ConstBool, Imm: 1 - a.i, Region: ir.NoReg}
		return true
	case ir.OpNeg:
		if !aok || in.Float || !isIntish(a) {
			return false
		}
		*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, CKind: ir.ConstInt,
			Imm: wrapConst(-a.i, in.NumBits, in.Signed), Type: in.Type, Region: ir.NoReg}
		return true
	}
	return false
}

func wrapConst(x int64, bits int, signed bool) int64 {
	if bits <= 0 || bits >= 64 {
		return x
	}
	mask := (uint64(1) << uint(bits)) - 1
	u := uint64(x) & mask
	if signed && u&(1<<uint(bits-1)) != 0 {
		return int64(u | ^mask)
	}
	return int64(u)
}

// ---------------------------------------------------------------------------
// Copy propagation (block-local)
// ---------------------------------------------------------------------------

// copyProp replaces uses of registers defined by a Mov with the source, when
// neither register is redefined in between (within one block).
func copyProp(f *ir.Func) int {
	replaced := 0
	for _, blk := range f.Blocks {
		alias := map[ir.Reg]ir.Reg{} // dst -> src
		invalidate := func(r ir.Reg) {
			delete(alias, r)
			for d, s := range alias {
				if s == r {
					delete(alias, d)
				}
			}
		}
		resolve := func(r ir.Reg) ir.Reg {
			if s, ok := alias[r]; ok {
				replaced++
				return s
			}
			return r
		}
		for idx := range blk.Instrs {
			in := &blk.Instrs[idx]
			// Rewrite operands first.
			if usesA(in.Op) {
				in.A = resolve(in.A)
			}
			if usesB(in.Op) {
				in.B = resolve(in.B)
			}
			for i := range in.Args {
				in.Args[i] = resolve(in.Args[i])
			}
			if in.Region != ir.NoReg {
				in.Region = resolve(in.Region)
			}
			if in.Op == ir.OpMov {
				invalidate(in.Dst)
				if in.A != in.Dst {
					alias[in.Dst] = in.A
				}
				continue
			}
			if in.Dst != ir.NoReg {
				invalidate(in.Dst)
			}
		}
		if blk.Term.Kind == ir.TermBranch {
			if s, ok := alias[blk.Term.Cond]; ok {
				blk.Term.Cond = s
				replaced++
			}
		}
		if blk.Term.Kind == ir.TermReturn && blk.Term.Val != ir.NoReg {
			if s, ok := alias[blk.Term.Val]; ok {
				blk.Term.Val = s
				replaced++
			}
		}
	}
	return replaced
}

func usesA(op ir.Op) bool {
	switch op {
	case ir.OpConst, ir.OpCall, ir.OpCallExtern, ir.OpBuiltin, ir.OpMakeClosure,
		ir.OpNewStruct, ir.OpNewUnion, ir.OpVectorLit, ir.OpGlobalGet,
		ir.OpAtomicBegin, ir.OpAtomicEnd, ir.OpLockAcquire, ir.OpLockRelease,
		ir.OpRegionEnter:
		return false
	}
	return true
}

func usesB(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod,
		ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpShl, ir.OpShr,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe,
		ir.OpSetField, ir.OpNewVector, ir.OpVecRef, ir.OpVecSet:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Dead code elimination
// ---------------------------------------------------------------------------

// pureOp reports whether an instruction can be removed if its result is
// unused (no traps, no side effects, no allocation identity).
func pureOp(op ir.Op) bool {
	switch op {
	case ir.OpConst, ir.OpMov, ir.OpAdd, ir.OpSub, ir.OpMul,
		ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpShl, ir.OpShr,
		ir.OpNeg, ir.OpBitNot, ir.OpNot,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe,
		ir.OpCast, ir.OpGlobalGet:
		return true
	}
	return false
}

// deadCode removes pure instructions whose destination is never read.
// Iterates to a fixed point.
func deadCode(f *ir.Func) int {
	removed := 0
	for {
		used := map[ir.Reg]bool{}
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				if usesA(in.Op) {
					used[in.A] = true
				}
				if usesB(in.Op) {
					used[in.B] = true
				}
				for _, a := range in.Args {
					used[a] = true
				}
				if in.Region != ir.NoReg {
					used[in.Region] = true
				}
			}
			switch blk.Term.Kind {
			case ir.TermBranch:
				used[blk.Term.Cond] = true
			case ir.TermReturn:
				if blk.Term.Val != ir.NoReg {
					used[blk.Term.Val] = true
				}
			}
		}
		changed := false
		for _, blk := range f.Blocks {
			out := blk.Instrs[:0]
			for _, in := range blk.Instrs {
				if pureOp(in.Op) && in.Dst != ir.NoReg && !used[in.Dst] {
					removed++
					changed = true
					continue
				}
				out = append(out, in)
			}
			blk.Instrs = out
		}
		if !changed {
			return removed
		}
	}
}

// ---------------------------------------------------------------------------
// Unboxing analysis (experiment E2)
// ---------------------------------------------------------------------------

// BoxingStats classifies every scalar-producing instruction in a function by
// whether the uniform representation forces a heap box.
type BoxingStats struct {
	ScalarResults int // instructions producing scalar values
	Unboxable     int // proven local: annotated NoBox
	EscapeHeap    int // stored into a struct/union/vector field
	EscapeCall    int // passed to a call/builtin/closure/ spawn
	EscapeReturn  int // returned (or captured by a closure)
}

func (b *BoxingStats) add(o BoxingStats) {
	b.ScalarResults += o.ScalarResults
	b.Unboxable += o.Unboxable
	b.EscapeHeap += o.EscapeHeap
	b.EscapeCall += o.EscapeCall
	b.EscapeReturn += o.EscapeReturn
}

// Boxed returns the residue the optimiser could not unbox.
func (b *BoxingStats) Boxed() int { return b.ScalarResults - b.Unboxable }

func scalarType(t *types.Type) bool {
	if t == nil {
		return true // arithmetic results without a recorded type are scalars
	}
	switch types.Prune(t).Kind {
	case types.KInt, types.KBool, types.KChar, types.KFloat:
		return true
	}
	return false
}

// producesScalar reports whether in computes a fresh scalar value that would
// need a box under the uniform representation.
func producesScalar(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod,
		ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpShl, ir.OpShr,
		ir.OpNeg, ir.OpBitNot, ir.OpNot,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe,
		ir.OpVecLen, ir.OpCast:
		return true
	case ir.OpConst:
		switch in.CKind {
		case ir.ConstInt, ir.ConstFloat, ir.ConstBool, ir.ConstChar:
			return true
		}
	}
	return false
}

// AnnotateUnboxed marks NoBox on every scalar-producing instruction whose
// register never escapes to the heap, a call boundary, or a return — the
// values a realistic unboxing optimisation can rescue. Everything else stays
// boxed; the split is returned for E2's table.
func AnnotateUnboxed(f *ir.Func) BoxingStats {
	// Classify the *registers* that escape, function-wide (registers are
	// reused across blocks, so this is conservative).
	escHeap := map[ir.Reg]bool{}
	escCall := map[ir.Reg]bool{}
	escRet := map[ir.Reg]bool{}
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			switch in.Op {
			case ir.OpNewStruct, ir.OpNewUnion, ir.OpVectorLit, ir.OpNewVector:
				for _, a := range in.Args {
					escHeap[a] = true
				}
				if in.Op == ir.OpNewVector {
					escHeap[in.B] = true // the fill value is stored
				}
			case ir.OpSetField:
				escHeap[in.B] = true
			case ir.OpVecSet:
				for _, a := range in.Args {
					escHeap[a] = true
				}
			case ir.OpCall, ir.OpCallClosure, ir.OpCallExtern, ir.OpBuiltin:
				for _, a := range in.Args {
					escCall[a] = true
				}
			case ir.OpMakeClosure:
				for _, a := range in.Args {
					escRet[a] = true // captured: lives beyond this frame
				}
			case ir.OpSpawn:
				escCall[in.A] = true
			case ir.OpMov:
				// A copy into an escaping register escapes as well — handled
				// by treating Mov destinations below.
			}
		}
		if blk.Term.Kind == ir.TermReturn && blk.Term.Val != ir.NoReg {
			escRet[blk.Term.Val] = true
		}
	}
	// Propagate escape through Mov: if dst escapes, src escapes.
	for changed := true; changed; {
		changed = false
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				if in.Op != ir.OpMov {
					continue
				}
				for _, m := range []map[ir.Reg]bool{escHeap, escCall, escRet} {
					if m[in.Dst] && !m[in.A] {
						m[in.A] = true
						changed = true
					}
				}
			}
		}
	}

	var bs BoxingStats
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if !producesScalar(in) || !scalarType(in.Type) || in.Dst == ir.NoReg {
				continue
			}
			bs.ScalarResults++
			switch {
			case escHeap[in.Dst]:
				bs.EscapeHeap++
			case escCall[in.Dst]:
				bs.EscapeCall++
			case escRet[in.Dst]:
				bs.EscapeReturn++
			default:
				bs.Unboxable++
				in.NoBox = true
			}
		}
	}
	return bs
}
