package vm

// decode.go is the pre-decode pass of the interpreter's hot path: it lowers
// each ir.Func once, at load time, into a per-function array of dinstrs —
// small structs carrying a specialized handler func plus the operands that
// handler needs, pre-extracted. The inner loop then dispatches through one
// indirect call per instruction instead of re-discriminating the immutable
// fields of ir.Instr (Op, CKind, Float, NumBits, Signed, NoBox) on every
// execution. On top of the decoded stream, fuse.go builds superinstructions
// and icache.go attaches monomorphic inline caches to field and vector
// access. docs/vm.md documents the full decode→fuse→dispatch pipeline.

import (
	"bitc/internal/ir"
)

// DispatchMode selects the interpreter's dispatch strategy. The zero value
// is the fast path; the switch interpreter is its differential-testing
// oracle and the baseline of BENCH_E1.json's dispatchSpeedup.
type DispatchMode int

// Dispatch strategies.
const (
	// DispatchFused pre-decodes into specialized handlers and fuses
	// superinstructions (the default).
	DispatchFused DispatchMode = iota
	// DispatchSwitch is the legacy per-instruction switch interpreter, kept
	// as the behavioural reference and performance baseline.
	DispatchSwitch
)

// String names the dispatch mode as it appears in run banners and listings.
func (m DispatchMode) String() string {
	if m == DispatchSwitch {
		return "switch"
	}
	return "fused"
}

// handler executes one decoded instruction (or superinstruction). Handlers
// are package-level funcs so the dispatch array is pointer-dense and the
// per-instruction work is one indirect call.
type handler func(v *VM, t *Thread, fr *Frame, d *dinstr) error

// dinstr is one decoded instruction slot. For a superinstruction, the slot
// holds component 1's operands inline, `base` holds component 1's original
// handler, and `fused` holds the remaining components; `width` is the number
// of original instructions the slot consumes, an absorbed branch included
// (for quantum and instruction-budget accounting — see VM.runFused).
type dinstr struct {
	h       handler
	base    handler // first component of a fused chain
	op      ir.Op
	width   uint8
	boxIt   bool // box the result (Boxed mode, NoBox not honoured)
	canFuse bool // specialized, non-blocking, frame-neutral: fusible
	// ctl marks a slot that can transfer control: push or pop a frame,
	// move the ip, block, yield or retry an atomic block (calls, hSlow,
	// fused branches). runFused re-fetches the frame only after one.
	ctl bool
	br  bool // the block's branch terminator is absorbed as the last component
	// elide marks a vector access whose bounds check the prover
	// discharged (Options.BoundsElide): its IC hit skips the compare.
	elide bool

	dst, a, b ir.Reg
	args      []ir.Reg
	imm       int64
	bits      int
	signed    bool

	val    Value   // prebuilt constant (OpConst)
	callee *dfunc  // direct call target (OpCall)
	ic     *icache // inline cache (field/vector access)

	// Fusion state.
	fused   []dinstr
	cond    ir.Reg // fused-in branch condition register
	to, els int    // fused-in branch targets

	label string    // decode-time classification, for listings
	src   *ir.Instr // original instruction (slow paths, diagnostics)
}

// dterm is a decoded block terminator.
type dterm struct {
	kind    ir.TermKind
	cond    ir.Reg
	to, els int
	val     ir.Reg
}

// dblock is a decoded basic block.
type dblock struct {
	code []dinstr
	term dterm
	// termFused marks the terminator as absorbed into the block's last
	// superinstruction (a fused compare+branch); the dterm is then dead but
	// kept for listings.
	termFused bool
}

// dfunc is a decoded function.
type dfunc struct {
	fn     *ir.Func
	blocks []dblock
}

// ensureDecoded lowers the module once, before the first run. Two passes:
// the dfunc shells exist before any body decodes, so OpCall sites resolve
// direct callee pointers even for forward references.
func (v *VM) ensureDecoded() {
	if v.dfuncs != nil {
		return
	}
	v.dfuncs = make([]*dfunc, len(v.mod.Funcs))
	for i, f := range v.mod.Funcs {
		v.dfuncs[i] = &dfunc{fn: f}
	}
	for i, f := range v.mod.Funcs {
		v.decodeFunc(v.dfuncs[i], f)
	}
}

func (v *VM) decodeFunc(df *dfunc, f *ir.Func) {
	df.blocks = make([]dblock, len(f.Blocks))
	for bi, b := range f.Blocks {
		code := make([]dinstr, len(b.Instrs))
		for ii := range b.Instrs {
			code[ii] = v.decodeInstr(&b.Instrs[ii])
		}
		term := dterm{kind: b.Term.Kind, cond: b.Term.Cond, to: b.Term.To, els: b.Term.Else, val: b.Term.Val}
		// Switch-mode slots are never canFuse, so fusion leaves them as is.
		df.blocks[bi] = fuseBlock(dblock{code: code, term: term})
	}
}

// constValue prebuilds an OpConst payload.
func constValue(in *ir.Instr) Value {
	switch in.CKind {
	case ir.ConstInt:
		return intVal(in.Imm)
	case ir.ConstFloat:
		return floatVal(in.FImm)
	case ir.ConstBool:
		return boolVal(in.Imm != 0)
	case ir.ConstChar:
		return charVal(in.Imm)
	case ir.ConstString:
		return strVal(in.Str)
	default:
		return unitVal()
	}
}

// decodeInstr specializes one instruction on its immutable fields:
// (Op, CKind, Float, NumBits, Signed) plus the representation mode. Ops
// without a specialized handler fall back to hSlow, which runs the legacy
// switch — behaviour is defined by exec.go either way.
func (v *VM) decodeInstr(in *ir.Instr) dinstr {
	d := dinstr{
		op: in.Op, width: 1,
		dst: in.Dst, a: in.A, b: in.B, args: in.Args,
		imm: in.Imm, bits: in.NumBits, signed: in.Signed,
		src: in,
	}
	d.boxIt = v.opts.Mode == Boxed && !(v.opts.RespectNoBox && in.NoBox)
	if v.opts.Dispatch == DispatchSwitch {
		d.h, d.label, d.ctl = hSlow, "switch", true
		return d
	}
	// Unboxed, no operand is ever boxed: the raw handlers below read and
	// write .I directly where nothing wraps either.
	unboxed := v.opts.Mode == Unboxed
	switch in.Op {
	case ir.OpConst:
		d.val = constValue(in)
		if d.boxIt && boxableKind(d.val.K) {
			d.h, d.label = hConstBox, "const.box"
		} else {
			d.boxIt = false // nothing to box: keep put() on its fast path
			d.h, d.label = hConst, "const"
		}
		d.canFuse = true
	case ir.OpMov:
		d.h, d.label, d.canFuse = hMov, "mov", true
	case ir.OpGlobalGet:
		d.h, d.label, d.canFuse = hGlobal, "global", true
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod:
		if in.Float {
			d.h, d.label, d.ctl = hSlow, "arith.f", true
			break
		}
		raw := unboxed && in.NumBits >= 64 // 64-bit results never wrap
		d.canFuse = true
		switch in.Op {
		case ir.OpAdd:
			d.h, d.label = pick(raw, hAddRaw, hAddI), "add.i"
		case ir.OpSub:
			d.h, d.label = pick(raw, hSubRaw, hSubI), "sub.i"
		case ir.OpMul:
			d.h, d.label = pick(raw, hMulRaw, hMulI), "mul.i"
		case ir.OpDiv:
			d.h, d.label = hDivI, "div.i"
		default:
			d.h, d.label = hModI, "mod.i"
		}
	case ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpShl, ir.OpShr:
		d.h, d.label, d.canFuse = hBitI, "bit.i", true
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		if in.Float {
			d.h, d.label, d.ctl = hSlow, "cmp.f", true
			break
		}
		// A signed compare needs no width: narrow values are kept
		// sign-extended in .I.
		raw := unboxed && in.Signed
		d.canFuse = true
		switch in.Op {
		case ir.OpEq:
			d.h, d.label = hEqI, "eq.i"
		case ir.OpNe:
			d.h, d.label = hNeI, "ne.i"
		case ir.OpLt:
			d.h, d.label = pick(raw, hLtRaw, hLtI), "lt.i"
		case ir.OpLe:
			d.h, d.label = hLeI, "le.i"
		case ir.OpGt:
			d.h, d.label = pick(raw, hGtRaw, hGtI), "gt.i"
		default:
			d.h, d.label = pick(raw, hGeRaw, hGeI), "ge.i"
		}
	case ir.OpNot:
		d.h, d.label = hNot, "lnot"
	case ir.OpCall:
		d.callee = v.dfuncs[in.Imm]
		d.h, d.label, d.ctl = hCall, "call", true
	case ir.OpCallClosure:
		d.h, d.label, d.ctl = hCallClosure, "callc", true
	case ir.OpGetField:
		d.ic = &icache{}
		d.h, d.label, d.canFuse = hGetField, "getfield.ic", true
	case ir.OpSetField:
		d.ic = &icache{}
		d.h, d.label = hSetField, "setfield.ic"
	case ir.OpVecRef:
		d.ic = &icache{}
		d.h, d.label, d.canFuse = hVecRef, "vecref.ic", true
		// A site the bounds prover discharged drops the fast-path bounds
		// compare. The label marks the elision for disasm; it only appears
		// when a proof set was supplied, so baseline disassembly is stable.
		if in.Pos != 0 && v.opts.BoundsElide[in.Pos] {
			d.elide, d.label = true, "vecref.ic!"
		}
	case ir.OpVecSet:
		d.ic = &icache{}
		d.h, d.label = hVecSet, "vecset.ic"
		if in.Pos != 0 && v.opts.BoundsElide[in.Pos] {
			d.elide, d.label = true, "vecset.ic!"
		}
	case ir.OpVecLen:
		d.h, d.label = hVecLen, "veclen"
	default:
		d.h, d.label, d.ctl = hSlow, "slow", true
	}
	return d
}

// pick returns the raw handler when raw holds, else the general one.
func pick(raw bool, rawH, h handler) handler {
	if raw {
		return rawH
	}
	return h
}

// boxableKind reports whether boxResult would box a value of kind k.
func boxableKind(k Kind) bool {
	return k == KInt || k == KBool || k == KChar || k == KFloat
}

// boxVal allocates a fresh box for val: the decoded-dispatch equivalent of
// boxResult once decode has already resolved mode and NoBox into d.boxIt.
func (v *VM) boxVal(val Value) Value {
	switch val.K {
	case KInt, KBool, KChar:
		val.b = &box{i: val.I}
	case KFloat:
		val.b = &box{f: val.Float()}
	default:
		return val
	}
	v.Stats.BoxAllocs++
	v.Stats.BoxBytes += 16
	if v.obs != nil {
		v.obsAlloc("box", 16)
	}
	return val
}

// put stores a freshly computed scalar, paying the boxing cost when the
// decode pass determined this instruction's result is boxed.
func (v *VM) put(d *dinstr, fr *Frame, val Value) {
	if d.boxIt {
		val = v.boxVal(val)
	}
	fr.regs[d.dst] = val
}

// ---------------------------------------------------------------------------
// Specialized handlers
// ---------------------------------------------------------------------------

// hSlow delegates to the legacy switch interpreter: the always-correct path
// for ops without a specialized handler and the whole of DispatchSwitch.
func hSlow(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	return v.exec(t, fr, d.src)
}

func hConst(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	fr.regs[d.dst] = d.val
	return nil
}

func hConstBox(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	fr.regs[d.dst] = v.boxVal(d.val)
	return nil
}

func hMov(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	fr.regs[d.dst] = fr.regs[d.a]
	return nil
}

func hGlobal(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	fr.regs[d.dst] = v.globals[d.imm]
	return nil
}

func hAddI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	r := v.loadInt(fr.regs[d.a]) + v.loadInt(fr.regs[d.b])
	v.put(d, fr, intVal(wrap(r, d.bits, d.signed)))
	return nil
}

func hSubI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	r := v.loadInt(fr.regs[d.a]) - v.loadInt(fr.regs[d.b])
	v.put(d, fr, intVal(wrap(r, d.bits, d.signed)))
	return nil
}

func hMulI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	r := v.loadInt(fr.regs[d.a]) * v.loadInt(fr.regs[d.b])
	v.put(d, fr, intVal(wrap(r, d.bits, d.signed)))
	return nil
}

// The raw handlers are the Unboxed 64-bit (add/sub/mul) and signed
// (compare) specialisations: no operand is boxed, nothing wraps and
// nothing is boxed, so they read and write .I directly. A comparison keeps
// the cmpFallback guard for strings, floats and references.

func hAddRaw(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	fr.regs[d.dst] = intVal(fr.regs[d.a].I + fr.regs[d.b].I)
	return nil
}

func hSubRaw(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	fr.regs[d.dst] = intVal(fr.regs[d.a].I - fr.regs[d.b].I)
	return nil
}

func hMulRaw(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	fr.regs[d.dst] = intVal(fr.regs[d.a].I * fr.regs[d.b].I)
	return nil
}

func hLtRaw(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	a, b := fr.regs[d.a], fr.regs[d.b]
	if cmpFallback(a, b) {
		return v.compare(t, fr, d.src)
	}
	fr.regs[d.dst] = boolVal(a.I < b.I)
	return nil
}

func hGtRaw(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	a, b := fr.regs[d.a], fr.regs[d.b]
	if cmpFallback(a, b) {
		return v.compare(t, fr, d.src)
	}
	fr.regs[d.dst] = boolVal(a.I > b.I)
	return nil
}

func hGeRaw(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	a, b := fr.regs[d.a], fr.regs[d.b]
	if cmpFallback(a, b) {
		return v.compare(t, fr, d.src)
	}
	fr.regs[d.dst] = boolVal(a.I >= b.I)
	return nil
}

func hDivI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	a, b := v.loadInt(fr.regs[d.a]), v.loadInt(fr.regs[d.b])
	if b == 0 {
		return trapf("division by zero")
	}
	var r int64
	if d.signed {
		r = a / b
	} else {
		r = int64(uint64(a) / uint64(b))
	}
	v.put(d, fr, intVal(wrap(r, d.bits, d.signed)))
	return nil
}

func hModI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	a, b := v.loadInt(fr.regs[d.a]), v.loadInt(fr.regs[d.b])
	if b == 0 {
		return trapf("modulo by zero")
	}
	var r int64
	if d.signed {
		r = a % b
	} else {
		r = int64(uint64(a) % uint64(b))
	}
	v.put(d, fr, intVal(wrap(r, d.bits, d.signed)))
	return nil
}

// hBitI covers the bitwise/shift group; the op re-switch is cold enough
// (these are rare in the corpus) that five more handlers aren't worth it.
func hBitI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	a, b := v.loadInt(fr.regs[d.a]), v.loadInt(fr.regs[d.b])
	var r int64
	switch d.op {
	case ir.OpBitAnd:
		r = a & b
	case ir.OpBitOr:
		r = a | b
	case ir.OpBitXor:
		r = a ^ b
	case ir.OpShl:
		r = a << (uint64(b) & 63)
	default: // OpShr
		if d.signed {
			r = a >> (uint64(b) & 63)
		} else {
			r = int64(uint64(a) >> (uint64(b) & 63))
		}
	}
	v.put(d, fr, intVal(wrap(r, d.bits, d.signed)))
	return nil
}

// cmpFallback mirrors exec.go's compare dispatch: strings, floats, and
// references take the dynamic path. KUnit..KChar (the kinds below KFloat)
// compare as integers, exactly like the legacy default branch.
func cmpFallback(a, b Value) bool { return a.K >= KFloat || b.K >= KFloat }

func hEqI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	a, b := fr.regs[d.a], fr.regs[d.b]
	if cmpFallback(a, b) {
		return v.compare(t, fr, d.src)
	}
	v.put(d, fr, boolVal(v.loadInt(a) == v.loadInt(b)))
	return nil
}

func hNeI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	a, b := fr.regs[d.a], fr.regs[d.b]
	if cmpFallback(a, b) {
		return v.compare(t, fr, d.src)
	}
	v.put(d, fr, boolVal(v.loadInt(a) != v.loadInt(b)))
	return nil
}

func hLtI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	a, b := fr.regs[d.a], fr.regs[d.b]
	if cmpFallback(a, b) {
		return v.compare(t, fr, d.src)
	}
	ai, bi := v.loadInt(a), v.loadInt(b)
	if d.signed {
		v.put(d, fr, boolVal(ai < bi))
	} else {
		v.put(d, fr, boolVal(uint64(ai) < uint64(bi)))
	}
	return nil
}

func hLeI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	a, b := fr.regs[d.a], fr.regs[d.b]
	if cmpFallback(a, b) {
		return v.compare(t, fr, d.src)
	}
	ai, bi := v.loadInt(a), v.loadInt(b)
	if d.signed {
		v.put(d, fr, boolVal(ai <= bi))
	} else {
		v.put(d, fr, boolVal(uint64(ai) <= uint64(bi)))
	}
	return nil
}

func hGtI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	a, b := fr.regs[d.a], fr.regs[d.b]
	if cmpFallback(a, b) {
		return v.compare(t, fr, d.src)
	}
	ai, bi := v.loadInt(a), v.loadInt(b)
	if d.signed {
		v.put(d, fr, boolVal(ai > bi))
	} else {
		v.put(d, fr, boolVal(uint64(ai) > uint64(bi)))
	}
	return nil
}

func hGeI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	a, b := fr.regs[d.a], fr.regs[d.b]
	if cmpFallback(a, b) {
		return v.compare(t, fr, d.src)
	}
	ai, bi := v.loadInt(a), v.loadInt(b)
	if d.signed {
		v.put(d, fr, boolVal(ai >= bi))
	} else {
		v.put(d, fr, boolVal(uint64(ai) >= uint64(bi)))
	}
	return nil
}

func hNot(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	v.put(d, fr, boolVal(!fr.regs[d.a].Truthy()))
	return nil
}

func hCall(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	return v.pushCall(t, d.callee, fr, d.args, nil, d.dst)
}

func hCallClosure(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	cl := fr.regs[d.a]
	if cl.K != KRef || cl.R.Kind != OClosure {
		return trapf("calling a non-function value %s", cl.String())
	}
	if err := v.checkRegion(cl.R); err != nil {
		return err
	}
	return v.pushCall(t, v.dfuncs[cl.R.Fn], fr, d.args, cl.R.Elems, d.dst)
}

func hVecLen(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	o, err := v.refOperand(fr, d.a, OVector, "vector-length")
	if err != nil {
		return err
	}
	v.put(d, fr, intVal(int64(len(o.Elems))))
	return nil
}
