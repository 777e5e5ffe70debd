package vm

import (
	"math"

	"bitc/internal/ir"
	"bitc/internal/layout"
	"bitc/internal/types"
)

// exec executes a single instruction.
func (v *VM) exec(t *Thread, fr *Frame, in *ir.Instr) error {
	switch in.Op {
	case ir.OpConst:
		var val Value
		switch in.CKind {
		case ir.ConstInt:
			val = intVal(in.Imm)
		case ir.ConstFloat:
			val = floatVal(in.FImm)
		case ir.ConstBool:
			val = boolVal(in.Imm != 0)
		case ir.ConstChar:
			val = charVal(in.Imm)
		case ir.ConstString:
			val = strVal(in.Str)
		default:
			val = unitVal()
		}
		fr.regs[in.Dst] = v.boxResult(in, val)
		return nil

	case ir.OpMov:
		fr.regs[in.Dst] = fr.regs[in.A]
		return nil

	case ir.OpGlobalGet:
		fr.regs[in.Dst] = v.globals[in.Imm]
		return nil

	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod,
		ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpShl, ir.OpShr:
		return v.arith(t, fr, in)

	case ir.OpNeg:
		if in.Float {
			fr.regs[in.Dst] = v.boxResult(in, floatVal(-v.loadFloat(fr.regs[in.A])))
			return nil
		}
		r := wrap(-v.loadInt(fr.regs[in.A]), in.NumBits, in.Signed)
		fr.regs[in.Dst] = v.boxResult(in, intVal(r))
		return nil

	case ir.OpBitNot:
		r := wrap(^v.loadInt(fr.regs[in.A]), in.NumBits, in.Signed)
		fr.regs[in.Dst] = v.boxResult(in, intVal(r))
		return nil

	case ir.OpNot:
		fr.regs[in.Dst] = v.boxResult(in, boolVal(!fr.regs[in.A].Truthy()))
		return nil

	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		return v.compare(t, fr, in)

	case ir.OpCall:
		return v.pushCall(t, v.dfuncs[in.Imm], fr, in.Args, nil, in.Dst)

	case ir.OpCallClosure:
		cl := fr.regs[in.A]
		if cl.K != KRef || cl.R.Kind != OClosure {
			return trapf("calling a non-function value %s", cl.String())
		}
		if err := v.checkRegion(cl.R); err != nil {
			return err
		}
		return v.pushCall(t, v.dfuncs[cl.R.Fn], fr, in.Args, cl.R.Elems, in.Dst)

	case ir.OpCallExtern:
		return v.callExtern(fr, in)

	case ir.OpMakeClosure:
		env := v.gatherArgs(fr, in.Args)
		o := &Object{Kind: OClosure, Fn: int(in.Imm), Elems: env, Region: -1}
		v.accountAlloc(o, 16+uint64(len(env))*8)
		fr.regs[in.Dst] = refVal(o)
		return nil

	case ir.OpBuiltin:
		return v.builtin(t, fr, in)

	case ir.OpNewStruct:
		si := v.mod.Structs[in.Str]
		o := &Object{Kind: OStruct, SDecl: si, Elems: v.gatherArgs(fr, in.Args), Region: v.regionOf(fr, in)}
		l := v.layoutOf(si)
		size := uint64(l.Size)
		if v.opts.Mode == Boxed {
			size = uint64(l.BoxedFootprint())
		}
		v.accountAlloc(o, size)
		fr.regs[in.Dst] = refVal(o)
		return nil

	case ir.OpGetField:
		o, err := v.refOperand(fr, in.A, OStruct, "field access")
		if err != nil {
			return err
		}
		if int(in.Imm) >= len(o.Elems) {
			return trapf("struct %s has no field index %d", o.SDecl.Name, in.Imm)
		}
		v.Stats.FieldReads++
		var val Value
		if t.txn != nil {
			val = t.txn.fp.read(o, int(in.Imm))
		} else {
			val = o.Elems[in.Imm]
		}
		fr.regs[in.Dst] = val
		return nil

	case ir.OpSetField:
		o, err := v.refOperand(fr, in.A, OStruct, "field write")
		if err != nil {
			return err
		}
		if int(in.Imm) >= len(o.Elems) {
			return trapf("struct %s has no field index %d", o.SDecl.Name, in.Imm)
		}
		v.Stats.FieldWrites++
		if t.txn != nil {
			t.txn.fp.write(o, int(in.Imm), fr.regs[in.B])
		} else {
			o.Elems[in.Imm] = fr.regs[in.B]
			o.Version++
		}
		return nil

	case ir.OpNewUnion:
		ui := v.mod.Unions[in.Str]
		o := &Object{Kind: OUnion, UDecl: ui, Tag: int(in.Imm), Elems: v.gatherArgs(fr, in.Args), Region: v.regionOf(fr, in)}
		ul, err := layout.OfUnion(ui, v.layoutModeFor())
		size := uint64(24)
		if err == nil {
			size = uint64(ul.Size)
		}
		v.accountAlloc(o, size)
		fr.regs[in.Dst] = refVal(o)
		return nil

	case ir.OpUnionTag:
		o, err := v.refOperand(fr, in.A, OUnion, "union tag")
		if err != nil {
			return err
		}
		fr.regs[in.Dst] = intVal(int64(o.Tag))
		return nil

	case ir.OpUnionField:
		o, err := v.refOperand(fr, in.A, OUnion, "union payload")
		if err != nil {
			return err
		}
		if int(in.Imm) >= len(o.Elems) {
			return trapf("union %s arm %s has no field %d", o.UDecl.Name, o.UDecl.Arms[o.Tag].Name, in.Imm)
		}
		fr.regs[in.Dst] = o.Elems[in.Imm]
		return nil

	case ir.OpNewVector:
		n := v.loadInt(fr.regs[in.A])
		if n < 0 {
			return trapf("make-vector with negative length %d", n)
		}
		fill := fr.regs[in.B]
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = fill
		}
		o := &Object{Kind: OVector, Elems: elems, Region: v.regionOf(fr, in)}
		v.accountAlloc(o, 16+uint64(n)*v.elemSize(in.Type))
		fr.regs[in.Dst] = refVal(o)
		return nil

	case ir.OpVectorLit:
		elems := v.gatherArgs(fr, in.Args)
		o := &Object{Kind: OVector, Elems: elems, Region: v.regionOf(fr, in)}
		v.accountAlloc(o, 16+uint64(len(elems))*v.elemSize(in.Type))
		fr.regs[in.Dst] = refVal(o)
		return nil

	case ir.OpVecRef:
		o, err := v.refOperand(fr, in.A, OVector, "vector-ref")
		if err != nil {
			return err
		}
		i := v.loadInt(fr.regs[in.B])
		if i < 0 || i >= int64(len(o.Elems)) {
			return trapf("vector index %d out of range 0..%d", i, len(o.Elems)-1)
		}
		v.Stats.VecOps++
		if t.txn != nil {
			fr.regs[in.Dst] = t.txn.fp.read(o, int(i))
		} else {
			fr.regs[in.Dst] = o.Elems[i]
		}
		return nil

	case ir.OpVecSet:
		o, err := v.refOperand(fr, in.A, OVector, "vector-set!")
		if err != nil {
			return err
		}
		i := v.loadInt(fr.regs[in.B])
		if i < 0 || i >= int64(len(o.Elems)) {
			return trapf("vector index %d out of range 0..%d", i, len(o.Elems)-1)
		}
		v.Stats.VecOps++
		if t.txn != nil {
			t.txn.fp.write(o, int(i), fr.regs[in.Args[0]])
		} else {
			o.Elems[i] = fr.regs[in.Args[0]]
			o.Version++
		}
		return nil

	case ir.OpVecLen:
		o, err := v.refOperand(fr, in.A, OVector, "vector-length")
		if err != nil {
			return err
		}
		fr.regs[in.Dst] = v.boxResult(in, intVal(int64(len(o.Elems))))
		return nil

	case ir.OpAssert:
		if !fr.regs[in.A].Truthy() {
			return trapf("%s", in.Str)
		}
		return nil

	case ir.OpCast:
		fr.regs[in.Dst] = v.boxResult(in, v.castValue(fr.regs[in.A], in.Type))
		return nil

	case ir.OpRegionEnter:
		id := len(v.regionsAlive)
		v.regionsAlive = append(v.regionsAlive, true)
		v.regionCount = append(v.regionCount, 0)
		if v.obs != nil {
			v.obs.Region(t.obs, true, int64(id))
		}
		fr.regs[in.Dst] = intVal(int64(id))
		return nil

	case ir.OpRegionExit:
		id := v.loadInt(fr.regs[in.A])
		if id < 0 || id >= int64(len(v.regionsAlive)) || !v.regionsAlive[id] {
			return trapf("exiting an invalid region")
		}
		v.regionsAlive[id] = false
		if v.obs != nil {
			v.obs.Region(t.obs, false, id)
		}
		return nil

	case ir.OpSpawn:
		if t.txn != nil {
			// A retried transaction would spawn the thread again; like
			// send/recv, thread creation is an unbufferable effect.
			return trapf("spawn inside atomic is not allowed")
		}
		cl := fr.regs[in.A]
		if cl.K != KRef || cl.R.Kind != OClosure {
			return trapf("spawn needs a closure")
		}
		nt := v.spawnThread(v.dfuncs[cl.R.Fn], nil, cl.R.Elems)
		if v.obs != nil {
			v.obs.Spawn(t.ID, nt.ID, v.mod.Funcs[cl.R.Fn].Name)
		}
		fr.regs[in.Dst] = intVal(nt.ID)
		return nil

	case ir.OpAtomicBegin:
		return v.atomicBegin(t, fr)

	case ir.OpAtomicEnd:
		return v.atomicEnd(t)

	case ir.OpLockAcquire:
		return v.lockAcquire(t, fr, in.Str)

	case ir.OpLockRelease:
		return v.lockRelease(t, in.Str)

	default:
		// fr.ip already advanced past this instruction; report the index it
		// was fetched from so the trap pinpoints the decoded slot.
		return trapf("unimplemented opcode %s in %s at b%d:%d",
			in.Op, fr.fn.fn.Name, fr.block, fr.ip-1)
	}
}

func (v *VM) gatherArgs(fr *Frame, regs []ir.Reg) []Value {
	if len(regs) == 0 {
		return nil
	}
	args := make([]Value, len(regs))
	for i, r := range regs {
		args[i] = fr.regs[r]
	}
	return args
}

// regionOf resolves the allocation region of an instruction.
func (v *VM) regionOf(fr *Frame, in *ir.Instr) int {
	if in.Region == ir.NoReg {
		return -1
	}
	return int(v.loadInt(fr.regs[in.Region]))
}

func (v *VM) accountAlloc(o *Object, bytes uint64) {
	v.Stats.Allocs++
	v.Stats.HeapBytes += bytes
	if o.Region >= 0 {
		v.Stats.RegionAllocs++
		if o.Region < len(v.regionCount) {
			v.regionCount[o.Region]++
		}
	}
	if v.obs != nil {
		v.obsAlloc(allocKindName(o.Kind), bytes)
	}
}

// allocKindName names an allocation site class for trace events.
func allocKindName(k ObjKind) string {
	switch k {
	case OStruct:
		return "struct"
	case OUnion:
		return "union"
	case OVector:
		return "vector"
	case OClosure:
		return "closure"
	case OChan:
		return "chan"
	default:
		return "object"
	}
}

func (v *VM) layoutModeFor() layout.Mode {
	if v.opts.Mode == Boxed {
		return layout.Boxed
	}
	return layout.Natural
}

func (v *VM) elemSize(t *types.Type) uint64 {
	if t == nil {
		return 8
	}
	t = types.Prune(t)
	if t.Kind == types.KVector {
		return uint64(layout.SizeOf(t.Elem, v.layoutModeFor()))
	}
	return 8
}

// refOperand fetches a KRef operand of the expected object kind, enforcing
// region liveness.
func (v *VM) refOperand(fr *Frame, r ir.Reg, kind ObjKind, what string) (*Object, error) {
	val := fr.regs[r]
	if val.K != KRef || val.R == nil {
		return nil, trapf("%s on non-reference value %s", what, val.String())
	}
	if val.R.Kind != kind {
		return nil, trapf("%s on wrong object kind", what)
	}
	if err := v.checkRegion(val.R); err != nil {
		return nil, err
	}
	return val.R, nil
}

func (v *VM) checkRegion(o *Object) error {
	if o.Region >= 0 && (o.Region >= len(v.regionsAlive) || !v.regionsAlive[o.Region]) {
		return trapf("use of region-allocated object after its region exited")
	}
	return nil
}

func (v *VM) arith(t *Thread, fr *Frame, in *ir.Instr) error {
	if in.Float {
		a, b := v.loadFloat(fr.regs[in.A]), v.loadFloat(fr.regs[in.B])
		var r float64
		switch in.Op {
		case ir.OpAdd:
			r = a + b
		case ir.OpSub:
			r = a - b
		case ir.OpMul:
			r = a * b
		case ir.OpDiv:
			r = a / b
		case ir.OpMod:
			r = math.Mod(a, b)
		default:
			return trapf("float %s not supported", in.Op)
		}
		fr.regs[in.Dst] = v.boxResult(in, floatVal(r))
		return nil
	}
	a, b := v.loadInt(fr.regs[in.A]), v.loadInt(fr.regs[in.B])
	var r int64
	switch in.Op {
	case ir.OpAdd:
		r = a + b
	case ir.OpSub:
		r = a - b
	case ir.OpMul:
		r = a * b
	case ir.OpDiv:
		if b == 0 {
			return trapf("division by zero")
		}
		if !in.Signed {
			r = int64(uint64(a) / uint64(b))
		} else {
			r = a / b
		}
	case ir.OpMod:
		if b == 0 {
			return trapf("modulo by zero")
		}
		if !in.Signed {
			r = int64(uint64(a) % uint64(b))
		} else {
			r = a % b
		}
	case ir.OpBitAnd:
		r = a & b
	case ir.OpBitOr:
		r = a | b
	case ir.OpBitXor:
		r = a ^ b
	case ir.OpShl:
		r = a << (uint64(b) & 63)
	case ir.OpShr:
		if in.Signed {
			r = a >> (uint64(b) & 63)
		} else {
			r = int64(uint64(a) >> (uint64(b) & 63))
		}
	}
	fr.regs[in.Dst] = v.boxResult(in, intVal(wrap(r, in.NumBits, in.Signed)))
	return nil
}

func (v *VM) compare(t *Thread, fr *Frame, in *ir.Instr) error {
	a, b := fr.regs[in.A], fr.regs[in.B]
	var res bool
	switch {
	case a.K == KString || b.K == KString:
		as, bs := a.Str(), b.Str()
		switch in.Op {
		case ir.OpEq:
			res = as == bs
		case ir.OpNe:
			res = as != bs
		case ir.OpLt:
			res = as < bs
		case ir.OpLe:
			res = as <= bs
		case ir.OpGt:
			res = as > bs
		case ir.OpGe:
			res = as >= bs
		}
	case in.Float || a.K == KFloat || b.K == KFloat:
		af, bf := v.loadFloat(a), v.loadFloat(b)
		switch in.Op {
		case ir.OpEq:
			res = af == bf
		case ir.OpNe:
			res = af != bf
		case ir.OpLt:
			res = af < bf
		case ir.OpLe:
			res = af <= bf
		case ir.OpGt:
			res = af > bf
		case ir.OpGe:
			res = af >= bf
		}
	case a.K == KRef || b.K == KRef:
		switch in.Op {
		case ir.OpEq:
			res = a.R == b.R
		case ir.OpNe:
			res = a.R != b.R
		default:
			return trapf("ordered comparison on references")
		}
	default:
		ai, bi := v.loadInt(a), v.loadInt(b)
		if !in.Signed {
			au, bu := uint64(ai), uint64(bi)
			switch in.Op {
			case ir.OpEq:
				res = au == bu
			case ir.OpNe:
				res = au != bu
			case ir.OpLt:
				res = au < bu
			case ir.OpLe:
				res = au <= bu
			case ir.OpGt:
				res = au > bu
			case ir.OpGe:
				res = au >= bu
			}
		} else {
			switch in.Op {
			case ir.OpEq:
				res = ai == bi
			case ir.OpNe:
				res = ai != bi
			case ir.OpLt:
				res = ai < bi
			case ir.OpLe:
				res = ai <= bi
			case ir.OpGt:
				res = ai > bi
			case ir.OpGe:
				res = ai >= bi
			}
		}
	}
	fr.regs[in.Dst] = v.boxResult(in, boolVal(res))
	return nil
}

func (v *VM) castValue(val Value, target *types.Type) Value {
	tt := types.Prune(target)
	switch tt.Kind {
	case types.KInt:
		var x int64
		switch val.K {
		case KFloat:
			x = int64(v.loadFloat(val))
		default:
			x = v.loadInt(val)
		}
		return intVal(wrap(x, tt.Bits, tt.Signed))
	case types.KFloat:
		if val.K == KFloat {
			return floatVal(v.loadFloat(val))
		}
		return floatVal(float64(v.loadInt(val)))
	case types.KChar:
		return charVal(v.loadInt(val) & 0x10FFFF)
	default:
		return val
	}
}

// externShadow models the call-transition work a real FFI pays beyond
// argument marshalling: saving and restoring the callee-saved register file,
// switching stacks, and re-establishing the runtime's invariants on return.
// Without this the simulated boundary would be cheaper than a native call,
// which no real system exhibits; transitionPasses is calibrated so the
// boundary costs a small multiple of an interpreted call, matching the
// cgo/JNI-style transitions the legacy problem is about. The buffer lives on
// the VM (see VM.externShadow) so independent VMs — e.g. the per-shard
// machines of internal/serve — can cross the boundary in parallel.
const transitionPasses = 8

// callExtern crosses the simulated C ABI: scalar arguments are marshalled
// into a flat byte buffer (paying per-byte work), the transition saves and
// restores the simulated register file, the host function runs, and the
// result is unmarshalled. This is the mechanism cost experiment E4 measures.
func (v *VM) callExtern(fr *Frame, in *ir.Instr) error {
	ext := v.mod.Externs[in.Imm]
	impl, ok := v.Externs[ext.CSymbol]
	if !ok {
		return trapf("external symbol %q is not registered with the VM", ext.CSymbol)
	}
	// Transition prologue: spill the register window and scrub the shadow
	// stack area, once per pass of the calibrated transition cost.
	spill := len(fr.regs)
	if spill > len(v.externShadow) {
		spill = len(v.externShadow)
	}
	for pass := 0; pass < transitionPasses; pass++ {
		for i := 0; i < spill; i++ {
			v.externShadow[i] = uint64(fr.regs[i].I) ^ uint64(i+pass)
		}
		for i := spill; i < len(v.externShadow); i++ {
			v.externShadow[i] = v.externShadow[i]*2862933555777941757 + uint64(i)
		}
	}
	args := make([]int64, len(in.Args))
	// Marshal: copy each argument through a byte buffer, as a real FFI
	// boundary copies through the foreign stack/registers.
	var buf [8]byte
	for i, r := range in.Args {
		val := fr.regs[r]
		var x int64
		if val.K == KFloat {
			x = int64(math.Float64bits(v.loadFloat(val)))
		} else {
			x = v.loadInt(val)
		}
		for b := 0; b < 8; b++ {
			buf[b] = byte(x >> (8 * b))
		}
		var y int64
		for b := 0; b < 8; b++ {
			y |= int64(buf[b]) << (8 * b)
		}
		args[i] = y
		v.Stats.MarshalledBytes += 8
	}
	v.Stats.ExternCalls++
	res := impl(args)
	// Transition epilogue: reload the register window (checksummed so the
	// work cannot be optimised out).
	var guard uint64
	for pass := 0; pass < transitionPasses; pass++ {
		for i := 0; i < len(v.externShadow); i++ {
			guard ^= v.externShadow[i] + uint64(pass)
		}
	}
	if guard == 0xDEADBEEFDEADBEEF {
		return trapf("impossible shadow state") // never taken; keeps guard live
	}
	rt := types.Prune(ext.Result)
	switch rt.Kind {
	case types.KFloat:
		fr.regs[in.Dst] = v.boxResult(in, floatVal(math.Float64frombits(uint64(res))))
	case types.KUnit:
		fr.regs[in.Dst] = unitVal()
	case types.KBool:
		fr.regs[in.Dst] = v.boxResult(in, boolVal(res != 0))
	case types.KInt:
		// Reduce the host's result to the declared width, as a C return
		// of that type would be: a value must fit its type.
		fr.regs[in.Dst] = v.boxResult(in, intVal(wrap(res, rt.Bits, rt.Signed)))
	default:
		fr.regs[in.Dst] = v.boxResult(in, intVal(wrap(res, 64, true)))
	}
	v.Stats.MarshalledBytes += 8
	return nil
}
