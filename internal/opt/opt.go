// Package opt implements bitc's optimiser: three clean-up passes
// (block-local constant folding and copy propagation, function-wide
// dead-code elimination) and the escape-based unboxing analysis that
// experiment E2 interrogates: under a uniform (boxed) representation, which
// values can a compiler legitimately keep out of heap boxes, and which are
// pinned by stores, calls, and returns? The paper's fallacy 2 is the claim
// that this residue is negligible.
//
// Every pass costs time linear in the function it rewrites. The passes keep
// their facts in register-indexed tables that one Optimize call allocates
// and reuses for every function (see tables); a block-local table is
// emptied by starting a new generation, not by clearing it. Copy
// propagation drops an alias whose source was redefined by comparing the
// source's definition count, not by scanning the aliases. Dead-code
// elimination counts each register's uses and removes definitions from a
// worklist of registers whose count fell to zero, and the unboxing
// analysis pushes escapes backwards through moves from a worklist; both
// reach the fixed point that sweeping until nothing changes would.
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
	return optimize(mod, level, &tables{})
}

func optimize(mod *ir.Module, level Level, t *tables) *Result {
	res := &Result{}
	if level == O0 {
		return res
	}
	for _, f := range mod.Funcs {
		t.fit(f)
		res.ConstFolded += constFold(f, t)
		res.CopiesRemoved += copyProp(f, t)
		res.DeadRemoved += deadCode(f, t)
		if level >= O2 {
			res.Boxing.add(annotateUnboxed(f, t))
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// Register-indexed tables
// ---------------------------------------------------------------------------

// tables is the scratch state the passes share within one Optimize call.
// Every table is indexed by register plus one, so NoReg has a slot of its
// own; fit sizes them for each function. Every register a function's code
// names is below its NumRegs, as the VM, which allocates that many, needs.
type tables struct {
	nregs int // slots in f's register tables

	known regTable[constVal]   // constFold: the block's known constants
	alias regTable[aliasEntry] // copyProp: the block's live copies
	defs  []uint32             // copyProp: definitions of each register so far

	uses []int32      // deadCode: reads of each register by live code
	head []int32      // deadCode and the unboxing analysis: chain heads
	next []int32      // the chain link of each chained instruction
	at   []*ir.Instr  // the chained instructions, by chain position
	dead []bool       // deadCode: the position's instruction was removed
	work []ir.Reg     // deadCode and the unboxing analysis: the worklist
	esc  []escapeBits // unboxing analysis: how each register escapes

	// Deterministic work counters; the linear-cost test reads them.
	aliasOps, dcePops, escSteps int
}

// fit sizes the tables for f.
func (t *tables) fit(f *ir.Func) {
	t.nregs = f.NumRegs + 1
	t.known.fit(t.nregs)
	t.alias.fit(t.nregs)
	if len(t.defs) < t.nregs {
		t.defs = make([]uint32, max(t.nregs, 2*len(t.defs)))
	}
	n := 0
	for _, blk := range f.Blocks {
		n += len(blk.Instrs)
	}
	if cap(t.at) < n {
		t.at = make([]*ir.Instr, 0, max(n, 2*cap(t.at)))
		t.next = make([]int32, 0, cap(t.at))
	}
}

// resetChains empties head, next and at for a pass that chains
// instructions by register.
func (t *tables) resetChains() {
	t.head = zeroed(t.head, t.nregs)
	for i := range t.head {
		t.head[i] = -1
	}
	t.at, t.next = t.at[:0], t.next[:0]
}

// regTable maps registers to values. Its entries belong to a generation:
// reset starts a new one, which empties the table without touching it, and
// a pass resets the table before it first uses it in a block.
type regTable[T any] struct {
	val   []T
	stamp []uint32 // the generation an entry was set in; 0 is never live
	gen   uint32
}

// fit makes room for n slots. It may drop every entry, so a pass calls it
// only before a reset.
func (rt *regTable[T]) fit(n int) {
	if len(rt.stamp) < n {
		n = max(n, 2*len(rt.stamp))
		rt.val, rt.stamp = make([]T, n), make([]uint32, n)
	}
}

func (rt *regTable[T]) reset() {
	if rt.gen++; rt.gen == 0 {
		clear(rt.stamp)
		rt.gen = 1
	}
}

func (rt *regTable[T]) get(r ir.Reg) (T, bool) {
	if i := r + 1; rt.stamp[i] == rt.gen {
		return rt.val[i], true
	}
	var zero T
	return zero, false
}

func (rt *regTable[T]) set(r ir.Reg, v T) {
	rt.val[r+1], rt.stamp[r+1] = v, rt.gen
}

func (rt *regTable[T]) del(r ir.Reg) { rt.stamp[r+1] = 0 }

// zeroed returns s holding n zero values, reusing its storage.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	s = s[:n]
	clear(s)
	return s
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
func constFold(f *ir.Func, t *tables) int {
	folded := 0
	known := &t.known
	for _, blk := range f.Blocks {
		known.reset()
		for idx := range blk.Instrs {
			in := &blk.Instrs[idx]
			switch in.Op {
			case ir.OpConst:
				switch in.CKind {
				case ir.ConstInt, ir.ConstBool, ir.ConstChar:
					known.set(in.Dst, constVal{kind: in.CKind, i: in.Imm})
				case ir.ConstFloat:
					known.set(in.Dst, constVal{kind: ir.ConstFloat, f: in.FImm})
				default:
					known.del(in.Dst)
				}
				continue
			case ir.OpMov:
				if c, ok := known.get(in.A); ok {
					known.set(in.Dst, c)
				} else {
					known.del(in.Dst)
				}
				continue
			}

			if tryFold(in, known) {
				folded++
				// The folded instruction is now OpConst; record it.
				if in.CKind == ir.ConstFloat {
					known.set(in.Dst, constVal{kind: ir.ConstFloat, f: in.FImm})
				} else {
					known.set(in.Dst, constVal{kind: in.CKind, i: in.Imm})
				}
				continue
			}
			if in.Dst != ir.NoReg {
				known.del(in.Dst)
			}
		}
	}
	return folded
}

func tryFold(in *ir.Instr, known *regTable[constVal]) bool {
	isIntish := func(c constVal) bool {
		return c.kind == ir.ConstInt || c.kind == ir.ConstBool || c.kind == ir.ConstChar
	}
	a, aok := known.get(in.A)
	b, bok := known.get(in.B)
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

// aliasEntry records that a register holds a copy of src, made when src
// had been defined defs times.
type aliasEntry struct {
	src  ir.Reg
	defs uint32
}

// copyProp replaces uses of registers defined by a Mov with the source, when
// neither register is redefined in between (within one block). A copy of a
// register that has been redefined since is stale: its recorded definition
// count no longer matches the source's.
func copyProp(f *ir.Func, t *tables) int {
	replaced := 0
	resolve := func(r ir.Reg) ir.Reg {
		t.aliasOps++
		if a, ok := t.alias.get(r); ok && a.defs == t.defs[a.src+1] {
			replaced++
			return a.src
		}
		return r
	}
	define := func(r ir.Reg) {
		t.aliasOps++
		t.defs[r+1]++
		t.alias.del(r)
	}
	rewrite := func(r *ir.Reg) { *r = resolve(*r) }
	for _, blk := range f.Blocks {
		t.alias.reset()
		for idx := range blk.Instrs {
			in := &blk.Instrs[idx]
			operands(in, rewrite) // rewrite operands first
			if in.Op == ir.OpMov {
				define(in.Dst)
				if in.A != in.Dst {
					t.alias.set(in.Dst, aliasEntry{in.A, t.defs[in.A+1]})
				}
				continue
			}
			if in.Dst != ir.NoReg {
				define(in.Dst)
			}
		}
		if blk.Term.Kind == ir.TermBranch {
			blk.Term.Cond = resolve(blk.Term.Cond)
		}
		if blk.Term.Kind == ir.TermReturn && blk.Term.Val != ir.NoReg {
			blk.Term.Val = resolve(blk.Term.Val)
		}
	}
	return replaced
}

// operands calls visit on every register operand in reads, once per read.
func operands(in *ir.Instr, visit func(*ir.Reg)) {
	if usesA(in.Op) {
		visit(&in.A)
	}
	if usesB(in.Op) {
		visit(&in.B)
	}
	for i := range in.Args {
		visit(&in.Args[i])
	}
	if in.Region != ir.NoReg {
		visit(&in.Region)
	}
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

// deadCode removes pure instructions whose destination is never read, and
// then those whose destination only removed instructions read, until none
// is left: the fixed point repeated sweeps would reach. Each register
// counts its reads; a register whose count reaches zero goes on a
// worklist, and popping it removes its pure definitions, which lowers the
// counts of what they read.
func deadCode(f *ir.Func, t *tables) int {
	t.uses = zeroed(t.uses, t.nregs)
	t.resetChains()
	count := func(r *ir.Reg) { t.uses[*r+1]++ }
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			operands(in, count)
			next := int32(-1)
			if pureOp(in.Op) && in.Dst != ir.NoReg {
				next = t.head[in.Dst+1]
				t.head[in.Dst+1] = int32(len(t.at))
			}
			t.at = append(t.at, in)
			t.next = append(t.next, next)
		}
		switch blk.Term.Kind {
		case ir.TermBranch:
			count(&blk.Term.Cond)
		case ir.TermReturn:
			if blk.Term.Val != ir.NoReg {
				count(&blk.Term.Val)
			}
		}
	}
	t.dead = zeroed(t.dead, len(t.at))
	work := t.work[:0]
	for i, h := range t.head {
		if h >= 0 && t.uses[i] == 0 {
			work = append(work, ir.Reg(i-1))
		}
	}
	removed := 0
	release := func(r *ir.Reg) {
		if t.uses[*r+1]--; t.uses[*r+1] == 0 && t.head[*r+1] >= 0 {
			work = append(work, *r)
		}
	}
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		t.dcePops++
		for p := t.head[r+1]; p >= 0; p = t.next[p] {
			t.dead[p] = true
			removed++
			operands(t.at[p], release)
		}
		t.head[r+1] = -1
	}
	t.work = work
	if removed == 0 {
		return 0
	}
	p := 0
	for _, blk := range f.Blocks {
		out := blk.Instrs[:0]
		for _, in := range blk.Instrs {
			if !t.dead[p] {
				out = append(out, in)
			}
			p++
		}
		blk.Instrs = out
	}
	return removed
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

// escapeBits records how a register escapes.
type escapeBits uint8

const (
	escHeap escapeBits = 1 << iota // stored into a heap object
	escCall                        // passed across a call boundary
	escRet                         // returned or captured
)

// AnnotateUnboxed marks NoBox on every scalar-producing instruction whose
// register never escapes to the heap, a call boundary, or a return — the
// values a realistic unboxing optimisation can rescue. Everything else stays
// boxed; the split is returned for E2's table.
func AnnotateUnboxed(f *ir.Func) BoxingStats {
	t := &tables{}
	t.fit(f)
	return annotateUnboxed(f, t)
}

func annotateUnboxed(f *ir.Func, t *tables) BoxingStats {
	// Classify the *registers* that escape, function-wide (registers are
	// reused across blocks, so this is conservative). A move's source
	// escapes wherever its destination does; the moves are chained by
	// destination in head and next, as deadCode chains definitions.
	esc := zeroed(t.esc, t.nregs)
	t.esc = esc
	t.resetChains()
	mark := func(r ir.Reg, how escapeBits) { esc[r+1] |= how }
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			switch in.Op {
			case ir.OpNewStruct, ir.OpNewUnion, ir.OpVectorLit, ir.OpNewVector:
				for _, a := range in.Args {
					mark(a, escHeap)
				}
				if in.Op == ir.OpNewVector {
					mark(in.B, escHeap) // the fill value is stored
				}
			case ir.OpSetField:
				mark(in.B, escHeap)
			case ir.OpVecSet:
				for _, a := range in.Args {
					mark(a, escHeap)
				}
			case ir.OpCall, ir.OpCallClosure, ir.OpCallExtern, ir.OpBuiltin:
				for _, a := range in.Args {
					mark(a, escCall)
				}
			case ir.OpMakeClosure:
				for _, a := range in.Args {
					mark(a, escRet) // captured: lives beyond this frame
				}
			case ir.OpSpawn:
				mark(in.A, escCall)
			case ir.OpMov:
				t.next = append(t.next, t.head[in.Dst+1])
				t.head[in.Dst+1] = int32(len(t.at))
				t.at = append(t.at, in)
			}
		}
		if blk.Term.Kind == ir.TermReturn && blk.Term.Val != ir.NoReg {
			mark(blk.Term.Val, escRet)
		}
	}
	// Propagate escape through Mov: if dst escapes, src escapes. A register
	// is pushed when its bits grow, so at most once per bit plus once.
	work := t.work[:0]
	for i, how := range esc {
		if how != 0 && t.head[i] >= 0 {
			work = append(work, ir.Reg(i-1))
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for p := t.head[d+1]; p >= 0; p = t.next[p] {
			t.escSteps++
			src := t.at[p].A
			if grown := esc[src+1] | esc[d+1]; grown != esc[src+1] {
				esc[src+1] = grown
				if t.head[src+1] >= 0 {
					work = append(work, src)
				}
			}
		}
	}
	t.work = work

	var bs BoxingStats
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if !producesScalar(in) || !scalarType(in.Type) || in.Dst == ir.NoReg {
				continue
			}
			bs.ScalarResults++
			switch how := esc[in.Dst+1]; {
			case how&escHeap != 0:
				bs.EscapeHeap++
			case how&escCall != 0:
				bs.EscapeCall++
			case how&escRet != 0:
				bs.EscapeReturn++
			default:
				bs.Unboxable++
				in.NoBox = true
			}
		}
	}
	return bs
}
