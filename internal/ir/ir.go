// Package ir defines bitc's typed intermediate representation: a
// register-based, basic-block IR that the compiler lowers the AST into, the
// optimiser transforms, the verifier generates verification conditions from,
// and the VM executes.
package ir

import (
	"fmt"
	"strings"

	"bitc/internal/types"
)

// Reg is a virtual register index within a function frame.
type Reg int

// NoReg marks "no destination" (e.g. calls evaluated for effect).
const NoReg Reg = -1

// Op enumerates instruction opcodes.
type Op int

// Instruction opcodes.
const (
	OpConst Op = iota // Dst = Const (payload in Imm/FImm/Str)
	OpMov             // Dst = A

	// Arithmetic and logic. IntOp semantics are width/signedness-aware via
	// the NumBits/Signed/Float fields.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpBitAnd
	OpBitOr
	OpBitXor
	OpBitNot
	OpShl
	OpShr
	OpEq // Dst = A == B (any comparable)
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpNot

	// Calls.
	OpCall        // Dst = Funcs[Imm](Args...)
	OpCallClosure // Dst = A(Args...) where A is a closure value
	OpCallExtern  // Dst = Externs[Imm](Args...) across the simulated C ABI
	OpBuiltin     // Dst = builtin[Str](Args...)
	OpMakeClosure // Dst = closure(Funcs[Imm], captures Args...)

	// Aggregates.
	OpNewStruct  // Dst = new Str-named struct with field values Args...
	OpGetField   // Dst = A.field[Imm]
	OpSetField   // A.field[Imm] = B
	OpNewUnion   // Dst = union Str, tag Imm, payload Args...
	OpUnionTag   // Dst = tag(A)
	OpUnionField // Dst = payload field Imm of A
	OpNewVector  // Dst = vector of length A filled with B
	OpVectorLit  // Dst = vector of Args...
	OpVecRef     // Dst = A[B]
	OpVecSet     // A[B] = C (C passed as Args[0])
	OpVecLen     // Dst = length(A)

	// Checks.
	OpAssert // trap if A is false (Str carries the message)
	OpCast   // Dst = A converted to Type

	// Regions.
	OpRegionEnter // Dst = fresh region handle
	OpRegionExit  // exit region A

	// Concurrency.
	OpSpawn       // Dst = thread id running closure A
	OpAtomicBegin // begin STM transaction
	OpAtomicEnd   // commit STM transaction
	OpLockAcquire // acquire named lock Str
	OpLockRelease // release named lock Str

	// Globals.
	OpGlobalGet // Dst = Globals[Imm]
)

var opNames = map[Op]string{
	OpConst: "const", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpNeg: "neg", OpBitAnd: "and", OpBitOr: "or", OpBitXor: "xor",
	OpBitNot: "not", OpShl: "shl", OpShr: "shr",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpNot:  "lnot",
	OpCall: "call", OpCallClosure: "callc", OpCallExtern: "callx",
	OpBuiltin: "builtin", OpMakeClosure: "closure",
	OpNewStruct: "newstruct", OpGetField: "getfield", OpSetField: "setfield",
	OpNewUnion: "newunion", OpUnionTag: "uniontag", OpUnionField: "unionfield",
	OpNewVector: "newvec", OpVectorLit: "veclit", OpVecRef: "vecref",
	OpVecSet: "vecset", OpVecLen: "veclen",
	OpAssert: "assert", OpCast: "cast",
	OpRegionEnter: "regenter", OpRegionExit: "regexit",
	OpSpawn: "spawn", OpAtomicBegin: "atomic.begin", OpAtomicEnd: "atomic.end",
	OpLockAcquire: "lock", OpLockRelease: "unlock",
	OpGlobalGet: "globalget",
}

// String returns the opcode's assembler mnemonic (e.g. "add", "vecref"), or
// "op(N)" for an out-of-range value.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// FuseClass classifies an opcode for the VM's superinstruction fuser
// (internal/vm/fuse.go). It is the stable fusion-eligibility contract
// between the IR and the decoded-dispatch layer: fusion patterns are
// expressed over these classes, so adding an opcode forces an explicit
// fusibility decision here instead of an implicit one inside the VM.
type FuseClass int

// Fusion classes. Only instructions that cannot block, push or pop a frame,
// or transfer control may carry a class other than FuseNone: the fuser
// relies on a fused component either completing or trapping.
const (
	// FuseNone never participates in fusion (calls, effects, control,
	// allocation, concurrency).
	FuseNone FuseClass = iota
	// FuseConst materialises a constant into a register (OpConst).
	FuseConst
	// FuseArith is pure two-operand arithmetic/logic writing a register
	// (add/sub/mul/div/mod, bitwise, shifts). Division and modulo may trap
	// on zero, which fusion preserves.
	FuseArith
	// FuseCmp is a pure comparison producing a boolean (eq/ne/lt/le/gt/ge).
	FuseCmp
	// FuseLoad reads memory or a register into a register with no side
	// effect on success (mov, globalget, getfield, vecref); it may trap.
	FuseLoad
)

// FuseClass returns o's fusion class.
func (o Op) FuseClass() FuseClass {
	switch o {
	case OpConst:
		return FuseConst
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpBitAnd, OpBitOr, OpBitXor, OpShl, OpShr:
		return FuseArith
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return FuseCmp
	case OpMov, OpGlobalGet, OpGetField, OpVecRef:
		return FuseLoad
	default:
		return FuseNone
	}
}

// ConstKind discriminates OpConst payloads.
type ConstKind int

// Constant kinds.
const (
	ConstInt    ConstKind = iota // Imm
	ConstFloat                   // FImm
	ConstBool                    // Imm 0/1
	ConstChar                    // Imm
	ConstString                  // Str
	ConstUnit
)

// Instr is one IR instruction. Fields are used per-opcode as documented on
// the Op constants.
type Instr struct {
	Op   Op
	Dst  Reg
	A, B Reg
	Args []Reg

	Imm   int64
	FImm  float64
	Str   string
	CKind ConstKind

	// Numeric typing for arithmetic ops.
	NumBits int
	Signed  bool
	Float   bool

	// Type for OpCast (target) and allocation ops; also records the value
	// type for unboxing analysis.
	Type *types.Type

	// NoBox is set by the unboxing optimisation: this instruction's result
	// provably never needs a heap box even under the uniform representation.
	NoBox bool

	// Region is the register holding the region handle allocation ops should
	// place their object in; NoReg means the garbage-collected heap.
	Region Reg

	// Pos identifies the source expression this instruction was compiled
	// from, as source span start + 1 (0 = no position). The compiler stamps
	// it only on user-written vector accesses, where it keys the bounds
	// prover's elision set (analysis.BoundsProofSet.Elidable); compiler-
	// synthesised accesses (letrec cells, capture boxes) stay unstamped and
	// are never elided.
	Pos int
}

// TermKind discriminates block terminators.
type TermKind int

// Terminator kinds.
const (
	TermJump TermKind = iota
	TermBranch
	TermReturn
)

// Terminator ends a basic block.
type Terminator struct {
	Kind TermKind
	Cond Reg // Branch
	To   int // Jump target / Branch then-target
	Else int // Branch else-target
	Val  Reg // Return value
}

// Block is a basic block: straight-line instructions plus one terminator.
type Block struct {
	ID     int
	Instrs []Instr
	Term   Terminator
}

// Func is one compiled function.
type Func struct {
	Name      string
	NumParams int
	NumRegs   int
	Blocks    []*Block
	Result    *types.Type
	Params    []*types.Type

	// CaptureRegs lists, in capture order, the registers that receive the
	// closure environment when this (lifted) function is invoked through
	// OpCallClosure or OpSpawn.
	CaptureRegs []Reg
}

// NewBlock appends a fresh block to f.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Global is a module-level constant initialised at load time by running its
// initialiser function.
type Global struct {
	Name string
	Init int // function index computing the value
	Type *types.Type
}

// Extern is a foreign function made available through the simulated C ABI.
type Extern struct {
	Name    string
	CSymbol string
	Params  []*types.Type
	Result  *types.Type
}

// Module is a complete compiled program.
type Module struct {
	Funcs   []*Func
	FuncIdx map[string]int
	Globals []*Global
	Externs []*Extern
	Structs map[string]*types.StructInfo
	Unions  map[string]*types.UnionInfo

	// Entry is the index of the main function, or -1.
	Entry int
}

// FuncByName returns the named function, or nil.
func (m *Module) FuncByName(name string) *Func {
	if i, ok := m.FuncIdx[name]; ok {
		return m.Funcs[i]
	}
	return nil
}

// ---------------------------------------------------------------------------
// Printing (for bitc dump-ir and debugging)
// ---------------------------------------------------------------------------

// String renders the whole module.
func (m *Module) String() string {
	var b strings.Builder
	for _, f := range m.Funcs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders one function.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s (params=%d regs=%d)\n", f.Name, f.NumParams, f.NumRegs)
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "b%d:\n", blk.ID)
		for _, in := range blk.Instrs {
			b.WriteString("  ")
			b.WriteString(in.String())
			b.WriteByte('\n')
		}
		b.WriteString("  ")
		b.WriteString(blk.Term.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders one instruction.
func (in Instr) String() string {
	var b strings.Builder
	if in.Dst != NoReg {
		fmt.Fprintf(&b, "r%d = ", in.Dst)
	}
	b.WriteString(in.Op.String())
	if in.NoBox {
		b.WriteString("!")
	}
	switch in.Op {
	case OpConst:
		switch in.CKind {
		case ConstInt:
			fmt.Fprintf(&b, " %d", in.Imm)
		case ConstFloat:
			fmt.Fprintf(&b, " %g", in.FImm)
		case ConstBool:
			fmt.Fprintf(&b, " %v", in.Imm != 0)
		case ConstChar:
			fmt.Fprintf(&b, " #\\%c", rune(in.Imm))
		case ConstString:
			fmt.Fprintf(&b, " %q", in.Str)
		case ConstUnit:
			b.WriteString(" ()")
		}
	case OpMov, OpNeg, OpNot, OpBitNot, OpUnionTag, OpVecLen, OpRegionExit, OpSpawn:
		fmt.Fprintf(&b, " r%d", in.A)
	case OpCast:
		fmt.Fprintf(&b, " r%d to %s", in.A, in.Type)
	case OpGetField, OpUnionField:
		fmt.Fprintf(&b, " r%d.%d", in.A, in.Imm)
	case OpSetField:
		fmt.Fprintf(&b, " r%d.%d = r%d", in.A, in.Imm, in.B)
	case OpVecRef:
		fmt.Fprintf(&b, " r%d[r%d]", in.A, in.B)
	case OpVecSet:
		fmt.Fprintf(&b, " r%d[r%d] = r%d", in.A, in.B, in.Args[0])
	case OpNewVector:
		fmt.Fprintf(&b, " len=r%d fill=r%d", in.A, in.B)
	case OpAssert:
		fmt.Fprintf(&b, " r%d %q", in.A, in.Str)
	case OpCall, OpCallExtern, OpMakeClosure:
		fmt.Fprintf(&b, " #%d", in.Imm)
		writeRegs(&b, in.Args)
	case OpBuiltin:
		fmt.Fprintf(&b, " %s", in.Str)
		writeRegs(&b, in.Args)
	case OpCallClosure:
		fmt.Fprintf(&b, " r%d", in.A)
		writeRegs(&b, in.Args)
	case OpNewStruct, OpNewUnion, OpVectorLit:
		fmt.Fprintf(&b, " %s", in.Str)
		if in.Op == OpNewUnion {
			fmt.Fprintf(&b, " tag=%d", in.Imm)
		}
		writeRegs(&b, in.Args)
	case OpLockAcquire, OpLockRelease:
		fmt.Fprintf(&b, " %s", in.Str)
	default:
		if in.A != 0 || in.B != 0 {
			fmt.Fprintf(&b, " r%d r%d", in.A, in.B)
		}
	}
	return b.String()
}

func writeRegs(b *strings.Builder, regs []Reg) {
	b.WriteString(" (")
	for i, r := range regs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, "r%d", r)
	}
	b.WriteByte(')')
}

// String renders a terminator.
func (t Terminator) String() string {
	switch t.Kind {
	case TermJump:
		return fmt.Sprintf("jmp b%d", t.To)
	case TermBranch:
		return fmt.Sprintf("br r%d b%d b%d", t.Cond, t.To, t.Else)
	case TermReturn:
		if t.Val == NoReg {
			return "ret"
		}
		return fmt.Sprintf("ret r%d", t.Val)
	default:
		return "?"
	}
}
