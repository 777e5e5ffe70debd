// Package compiler lowers the type-checked AST into the register IR in
// internal/ir: functions become basic-block graphs, lambdas are
// closure-converted into lifted functions, pattern matches become tag
// switches, and contracts can optionally be emitted as runtime checks.
package compiler

import (
	"fmt"

	"bitc/internal/ast"
	"bitc/internal/ir"
	"bitc/internal/source"
	"bitc/internal/types"
)

// Options controls code generation.
type Options struct {
	// EmitContracts compiles :requires/:ensures into runtime assertions.
	EmitContracts bool
}

// Compile lowers a checked program to an IR module. The diagnostics carry
// compile-stage errors (e.g. capturing a mutable binding).
func Compile(prog *ast.Program, info *types.Info, opts Options) (*ir.Module, *source.Diagnostics) {
	c := compile(prog, info, opts)
	return c.mod, c.diags
}

func compile(prog *ast.Program, info *types.Info, opts Options) *moduleCompiler {
	diags := source.NewDiagnostics(prog.File)
	nfuncs := len(info.FuncDecls) + len(info.GlobalDecls)
	c := &moduleCompiler{
		info:  info,
		opts:  opts,
		diags: diags,
		mod: &ir.Module{
			Funcs:   make([]*ir.Func, 0, nfuncs),
			FuncIdx: make(map[string]int, nfuncs),
			Structs: info.Structs,
			Unions:  info.Unions,
			Entry:   -1,
		},
		globalIdx: make(map[string]int, len(info.GlobalDecls)),
		externIdx: map[string]int{},
		slots:     make([]binding, 1), // 0 is no binding number
	}
	c.run(prog)
	return c
}

type moduleCompiler struct {
	info      *types.Info
	opts      Options
	diags     *source.Diagnostics
	mod       *ir.Module
	globalIdx map[string]int
	externIdx map[string]int

	// frames holds one scratch frame per lambda nesting depth: a function
	// compiler at depth d lives in frames[d], and the next function at
	// that depth reuses the compiler and the instruction chunk. A lambda's
	// compiler runs to completion inside its parent's, so no two live
	// compilers share a frame.
	frames []*frame
	// slots maps the binding numbers of the definition being compiled to
	// their bindings. An entry left from an earlier definition carries that
	// definition's def, so a use whose binder was never compiled (the
	// compiler rejected it) is reported instead of read.
	slots []binding
	// def numbers the top-level definition being compiled, from 1.
	def int
	// Operand lists, blocks and functions' block lists are carved from
	// these chunks.
	args      chunk[ir.Reg]
	blocks    chunk[ir.Block]
	blockPtrs chunk[*ir.Block]
	// reads counts slot-table reads; the linear-cost test reads it.
	reads int
}

func (m *moduleCompiler) run(prog *ast.Program) {
	// Externs first (their indices are referenced by calls).
	for _, ex := range m.info.Externals {
		ft := types.Prune(m.info.Funcs[ex.Name].Type)
		m.externIdx[ex.Name] = len(m.mod.Externs)
		m.mod.Externs = append(m.mod.Externs, &ir.Extern{
			Name: ex.Name, CSymbol: ex.CSymbol,
			Params: ft.Params, Result: ft.Result,
		})
	}
	// Reserve function indices so calls can be emitted in any order.
	funcs := make([]ir.Func, len(m.info.FuncDecls))
	for i, d := range m.info.FuncDecls {
		m.mod.FuncIdx[d.Name] = len(m.mod.Funcs)
		sch := m.info.Funcs[d.Name]
		ft := types.Prune(sch.Type)
		funcs[i] = ir.Func{
			Name: d.Name, NumParams: len(d.Params),
			Params: ft.Params, Result: ft.Result,
		}
		m.mod.Funcs = append(m.mod.Funcs, &funcs[i])
	}
	// Globals: each gets an initialiser function.
	for _, g := range m.info.GlobalDecls {
		idx := len(m.mod.Globals)
		m.globalIdx[g.Name] = idx
		initName := fmt.Sprintf("%s$init", g.Name)
		fidx := len(m.mod.Funcs)
		m.mod.FuncIdx[initName] = fidx
		f := &ir.Func{Name: initName, Result: m.info.Globals[g.Name]}
		m.mod.Funcs = append(m.mod.Funcs, f)
		fc := m.newFuncCompiler(f, nil)
		r := fc.expr(g.Init)
		fc.cur.Term = ir.Terminator{Kind: ir.TermReturn, Val: r}
		fc.finish()
		m.mod.Globals = append(m.mod.Globals, &ir.Global{
			Name: g.Name, Init: fidx, Type: m.info.Globals[g.Name],
		})
	}
	// Function bodies.
	for _, d := range m.info.FuncDecls {
		m.compileFunc(d)
	}
	if i, ok := m.mod.FuncIdx["main"]; ok {
		m.mod.Entry = i
	}
}

func (m *moduleCompiler) compileFunc(d *ast.DefineFunc) {
	f := m.mod.Funcs[m.mod.FuncIdx[d.Name]]
	fc := m.newFuncCompiler(f, nil)
	for i, p := range d.Params {
		fc.bind(p.Bind, ir.Reg(i), false)
	}
	fc.nextReg = len(d.Params)

	if m.opts.EmitContracts {
		for _, req := range d.Contract.Requires {
			r := fc.expr(req)
			fc.emit(ir.Instr{Op: ir.OpAssert, A: r, Str: fmt.Sprintf("%s: requires %s", d.Name, ast.Print(req))})
		}
	}

	var result ir.Reg = ir.NoReg
	for _, e := range d.Body {
		result = fc.expr(e)
	}

	if m.opts.EmitContracts && len(d.Contract.Ensures) > 0 {
		fc.bind(d.ResultBind, result, false)
		for _, ens := range d.Contract.Ensures {
			r := fc.expr(ens)
			fc.emit(ir.Instr{Op: ir.OpAssert, A: r, Str: fmt.Sprintf("%s: ensures %s", d.Name, ast.Print(ens))})
		}
	}

	fc.cur.Term = ir.Terminator{Kind: ir.TermReturn, Val: result}
	fc.finish()
}

// ---------------------------------------------------------------------------
// Function-level compilation
// ---------------------------------------------------------------------------

type binding struct {
	reg     ir.Reg
	mutable bool
	// cell marks a letrec binding: reg holds a one-element vector used as an
	// indirection cell, so mutually recursive closures see each other's
	// final values and captures stay correct.
	cell bool
	// depth is the lambda nesting depth of the function that declares the
	// binding; a use at a greater depth captures it.
	depth int
	// def is the moduleCompiler.def that declared the binding.
	def int
}

// frame is the scratch state of one function compiler. Its instructions
// go into code, a chunk shared by every function compiled at the frame's
// depth: each block's instructions are one contiguous run of the chunk, so
// a block is one slice of it rather than a slice grown an append at a time.
// That needs the compiler to fill one block at a time and never return to
// a block it has left, which it does: a block becomes current once, right
// after the code that branches or jumps to it.
type frame struct {
	fc     funcCompiler
	code   []ir.Instr
	open   *ir.Block   // the block whose run ends code, or nil
	start  int         // where open's run begins in code
	blocks []*ir.Block // the function's blocks so far
	vals   []ir.Reg    // a plain let's init values, until they are bound
}

// chunkInstrs is the size a frame's instruction chunk grows to; a block
// that outgrows one gets a chunk twice its size.
const chunkInstrs = 1024

// seal hands the open block its run of the chunk. The run's capacity ends
// where it does, so an append to the block copies it out.
func (fr *frame) seal() {
	if fr.open != nil && len(fr.code) > fr.start {
		fr.open.Instrs = fr.code[fr.start:len(fr.code):len(fr.code)]
	}
	fr.open = nil
}

type funcCompiler struct {
	m       *moduleCompiler
	f       *ir.Func
	cur     *ir.Block
	fr      *frame
	depth   int
	nextReg int

	// Closure-conversion state: parent is the lexically enclosing function
	// compiler; captures records the binding numbers of the outer bindings
	// this function pulls in, in order. Capture i arrives in the register
	// f.CaptureRegs[i]. capBinds is nil until the first capture.
	parent   *funcCompiler
	captures []int32
	capBinds map[int32]binding

	region ir.Reg // current alloc-in region target, or NoReg
}

func (m *moduleCompiler) newFuncCompiler(f *ir.Func, parent *funcCompiler) *funcCompiler {
	depth := 0
	if parent != nil {
		depth = parent.depth + 1
	} else {
		m.def++
	}
	if depth == len(m.frames) {
		m.frames = append(m.frames, &frame{})
	}
	fr := m.frames[depth]
	fc := &fr.fc
	*fc = funcCompiler{m: m, f: f, parent: parent, fr: fr, depth: depth, region: ir.NoReg}
	fc.cur = fc.newBlock()
	return fc
}

// newBlock appends a fresh block to the function, carved from the module's
// block chunk.
func (fc *funcCompiler) newBlock() *ir.Block {
	fr := fc.fr
	b := &fc.m.blocks.take(1)[0]
	b.ID = len(fr.blocks)
	fr.blocks = append(fr.blocks, b)
	return b
}

// finish records the register count and hands the last block its
// instructions.
func (fc *funcCompiler) finish() {
	fr := fc.fr
	fc.f.NumRegs = fc.nextReg
	fr.seal()
	fc.f.Blocks = fc.m.blockPtrs.take(len(fr.blocks))
	copy(fc.f.Blocks, fr.blocks)
	clear(fr.blocks)
	fr.blocks = fr.blocks[:0]
}

// slot returns the binding with binding number n, and whether this
// definition declared it in this function or an enclosing one.
func (fc *funcCompiler) slot(n int32) (binding, bool) {
	fc.m.reads++
	if int(n) >= len(fc.m.slots) {
		return binding{}, false
	}
	b := fc.m.slots[n]
	return b, b.def == fc.m.def && b.depth <= fc.depth
}

// setSlot declares binding number n in this function.
func (fc *funcCompiler) setSlot(n int32, b binding) {
	for int(n) >= len(fc.m.slots) {
		fc.m.slots = append(fc.m.slots, binding{})
	}
	b.depth = fc.depth
	b.def = fc.m.def
	fc.m.slots[n] = b
}

func (fc *funcCompiler) bind(n int32, r ir.Reg, mutable bool) {
	fc.setSlot(n, binding{reg: r, mutable: mutable})
}

// local returns the binding with binding number n as this function sees
// it: its own, or the capture of an enclosing function's. span and name
// place the error for a mutable capture.
func (fc *funcCompiler) local(n int32, span source.Span, name string) binding {
	b, ok := fc.slot(n)
	if !ok {
		// Only a binder the compiler rejected leaves its uses unbound.
		fc.errf(span, "internal: %s has no binding", name)
		return binding{reg: fc.constUnit(), depth: fc.depth}
	}
	if b.depth == fc.depth {
		return b
	}
	return fc.capture(n, span, name)
}

func (fc *funcCompiler) newReg() ir.Reg {
	r := ir.Reg(fc.nextReg)
	fc.nextReg++
	return r
}

// chunk hands out slices of a larger allocation. Each new allocation is
// twice the last, up to chunkMax elements, so a small program allocates
// little and a large one allocates rarely.
type chunk[T any] struct {
	free []T
	size int
}

const chunkMax = 512

// take returns n fresh elements, or nil for n = 0. The slice's capacity
// is n, so an append copies it out instead of writing into a neighbour.
func (c *chunk[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if len(c.free) < n {
		c.size = min(max(2*c.size, 8), chunkMax)
		c.free = make([]T, max(n, c.size))
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}

// regs1 returns a one-register operand list holding r.
func (fc *funcCompiler) regs1(r ir.Reg) []ir.Reg {
	rs := fc.m.args.take(1)
	rs[0] = r
	return rs
}

// emit appends an instruction. Allocating opcodes must set Region explicitly
// (fc.region or ir.NoReg); non-allocating opcodes never consult it.
func (fc *funcCompiler) emit(in ir.Instr) {
	fr := fc.fr
	if fc.cur != fr.open {
		fr.seal()
		fr.open, fr.start = fc.cur, len(fr.code)
	}
	if len(fr.code) == cap(fr.code) {
		// Move the open block's run to a fresh chunk; the runs already
		// handed out stay where they are.
		n := len(fr.code) - fr.start
		c := make([]ir.Instr, n, max(2*n, min(2*cap(fr.code), chunkInstrs), 16))
		copy(c, fr.code[fr.start:])
		fr.code, fr.start = c, 0
	}
	fr.code = append(fr.code, in)
}

func (fc *funcCompiler) errf(span source.Span, format string, args ...any) {
	fc.m.diags.Errorf(span, format, args...)
}

// constInt emits an integer constant.
func (fc *funcCompiler) constInt(v int64) ir.Reg {
	r := fc.newReg()
	fc.emit(ir.Instr{Op: ir.OpConst, Dst: r, CKind: ir.ConstInt, Imm: v})
	return r
}

func (fc *funcCompiler) constUnit() ir.Reg {
	r := fc.newReg()
	fc.emit(ir.Instr{Op: ir.OpConst, Dst: r, CKind: ir.ConstUnit})
	return r
}

// numInfo extracts width/signedness for arithmetic from an operand type.
func numInfo(t *types.Type) (bits int, signed, float bool) {
	t = types.Prune(t)
	switch t.Kind {
	case types.KInt:
		return t.Bits, t.Signed, false
	case types.KFloat:
		return 64, true, true
	case types.KChar:
		return 32, false, false
	default:
		return 64, true, false
	}
}

var arithOps = map[string]ir.Op{
	"+": ir.OpAdd, "-": ir.OpSub, "*": ir.OpMul, "/": ir.OpDiv, "mod": ir.OpMod,
	"bitand": ir.OpBitAnd, "bitor": ir.OpBitOr, "bitxor": ir.OpBitXor,
	"shl": ir.OpShl, "shr": ir.OpShr,
}

var cmpOps = map[string]ir.Op{
	"=": ir.OpEq, "!=": ir.OpNe, "<": ir.OpLt, "<=": ir.OpLe, ">": ir.OpGt, ">=": ir.OpGe,
}

// expr compiles e, returning the register holding its value.
func (fc *funcCompiler) expr(e ast.Expr) ir.Reg {
	switch e := e.(type) {
	case *ast.IntLit:
		r := fc.newReg()
		fc.emit(ir.Instr{Op: ir.OpConst, Dst: r, CKind: ir.ConstInt, Imm: e.Value, Type: fc.m.info.TypeOf(e)})
		return r
	case *ast.FloatLit:
		r := fc.newReg()
		fc.emit(ir.Instr{Op: ir.OpConst, Dst: r, CKind: ir.ConstFloat, FImm: e.Value})
		return r
	case *ast.BoolLit:
		r := fc.newReg()
		v := int64(0)
		if e.Value {
			v = 1
		}
		fc.emit(ir.Instr{Op: ir.OpConst, Dst: r, CKind: ir.ConstBool, Imm: v})
		return r
	case *ast.CharLit:
		r := fc.newReg()
		fc.emit(ir.Instr{Op: ir.OpConst, Dst: r, CKind: ir.ConstChar, Imm: int64(e.Value)})
		return r
	case *ast.StringLit:
		r := fc.newReg()
		fc.emit(ir.Instr{Op: ir.OpConst, Dst: r, CKind: ir.ConstString, Str: e.Value})
		return r
	case *ast.UnitLit:
		return fc.constUnit()
	case *ast.VarRef:
		return fc.varRef(e)
	case *ast.Call:
		return fc.call(e)
	case *ast.If:
		return fc.ifExpr(e)
	case *ast.Let:
		return fc.letExpr(e)
	case *ast.Lambda:
		return fc.lambda(e, nil)
	case *ast.Begin:
		return fc.body(e.Body)
	case *ast.Set:
		n := fc.m.info.Target(e)
		if n == 0 {
			return fc.constUnit() // checker already reported
		}
		// Assignment to a captured letrec cell is fine; a plain mutable
		// capture is rejected by capture().
		b := fc.local(n, e.Span(), e.Name)
		v := fc.expr(e.Value)
		if b.cell {
			zero := fc.constInt(0)
			fc.emit(ir.Instr{Op: ir.OpVecSet, A: b.reg, B: zero, Args: fc.regs1(v)})
		} else {
			fc.emit(ir.Instr{Op: ir.OpMov, Dst: b.reg, A: v})
		}
		return fc.constUnit()
	case *ast.While:
		return fc.whileExpr(e)
	case *ast.DoTimes:
		return fc.doTimes(e)
	case *ast.MakeStruct:
		return fc.makeStruct(e)
	case *ast.FieldRef:
		obj := fc.expr(e.Expr)
		si := fc.structInfoOf(e.Expr)
		r := fc.newReg()
		idx := 0
		if si != nil {
			idx = si.FieldIndex(e.Name)
		}
		fc.emit(ir.Instr{Op: ir.OpGetField, Dst: r, A: obj, Imm: int64(idx), Str: e.Name, Type: fc.m.info.TypeOf(e)})
		return r
	case *ast.FieldSet:
		obj := fc.expr(e.Expr)
		val := fc.expr(e.Value)
		si := fc.structInfoOf(e.Expr)
		idx := 0
		if si != nil {
			idx = si.FieldIndex(e.Name)
		}
		fc.emit(ir.Instr{Op: ir.OpSetField, A: obj, B: val, Imm: int64(idx), Str: e.Name})
		return fc.constUnit()
	case *ast.MakeUnion:
		cu := fc.m.info.CtorOf[e.Ctor]
		return fc.newUnion(cu, e.Args)
	case *ast.Case:
		return fc.caseExpr(e)
	case *ast.Assert:
		r := fc.expr(e.Cond)
		fc.emit(ir.Instr{Op: ir.OpAssert, A: r, Str: "assertion failed: " + ast.Print(e.Cond)})
		return fc.constUnit()
	case *ast.Cast:
		v := fc.expr(e.Expr)
		r := fc.newReg()
		fc.emit(ir.Instr{Op: ir.OpCast, Dst: r, A: v, Type: fc.m.info.TypeOf(e)})
		return r
	case *ast.WithRegion:
		return fc.withRegion(e)
	case *ast.AllocIn:
		saved := fc.region
		// A region of an enclosing function is not this one's to allocate in.
		if b, ok := fc.slot(fc.m.info.Region(e)); ok && b.depth == fc.depth {
			fc.region = b.reg
		}
		r := fc.expr(e.Expr)
		fc.region = saved
		return r
	case *ast.Atomic:
		fc.emit(ir.Instr{Op: ir.OpAtomicBegin})
		r := fc.body(e.Body)
		fc.emit(ir.Instr{Op: ir.OpAtomicEnd})
		return r
	case *ast.Spawn:
		thunk := fc.lambda(&ast.Lambda{SpanV: e.SpanV, Body: []ast.Expr{e.Expr}}, nil)
		r := fc.newReg()
		fc.emit(ir.Instr{Op: ir.OpSpawn, Dst: r, A: thunk})
		return r
	case *ast.WithLock:
		fc.emit(ir.Instr{Op: ir.OpLockAcquire, Str: e.Lock})
		r := fc.body(e.Body)
		fc.emit(ir.Instr{Op: ir.OpLockRelease, Str: e.Lock})
		return r
	default:
		fc.errf(e.Span(), "internal: cannot compile %T", e)
		return fc.constUnit()
	}
}

func (fc *funcCompiler) body(body []ast.Expr) ir.Reg {
	r := ir.NoReg
	for _, e := range body {
		r = fc.expr(e)
	}
	if r == ir.NoReg {
		r = fc.constUnit()
	}
	return r
}

// structInfoOf returns the struct declaration of a field-access target.
func (fc *funcCompiler) structInfoOf(e ast.Expr) *types.StructInfo {
	t := types.Prune(fc.m.info.TypeOf(e))
	if t.Kind == types.KStruct {
		return t.SDecl
	}
	return nil
}

// loadBinding materialises a binding's current value: plain bindings live in
// their register, cell bindings load through their indirection vector.
func (fc *funcCompiler) loadBinding(b binding) ir.Reg {
	if !b.cell {
		return b.reg
	}
	zero := fc.constInt(0)
	r := fc.newReg()
	fc.emit(ir.Instr{Op: ir.OpVecRef, Dst: r, A: b.reg, B: zero})
	return r
}

// varRef loads what a name resolves to: a local (its own or a capture), a
// global, a function, a nullary constructor.
func (fc *funcCompiler) varRef(e *ast.VarRef) ir.Reg {
	sym := fc.m.info.Use(e)
	if sym == nil {
		fc.errf(e.Span(), "internal: unresolved name %s", e.Name)
		return fc.constUnit()
	}
	if sym.Bind != 0 {
		return fc.loadBinding(fc.local(sym.Bind, e.Span(), e.Name))
	}
	switch sym.Kind {
	case types.SymGlobal:
		r := fc.newReg()
		fc.emit(ir.Instr{Op: ir.OpGlobalGet, Dst: r, Imm: int64(fc.m.globalIdx[e.Name])})
		return r
	case types.SymFunc:
		// First-class reference to a top-level function: zero-capture closure.
		r := fc.newReg()
		fc.emit(ir.Instr{Op: ir.OpMakeClosure, Dst: r, Imm: int64(fc.m.mod.FuncIdx[e.Name])})
		return r
	case types.SymCtor:
		if cu := fc.m.info.CtorOf[e.Name]; len(cu.Arm.Fields) == 0 {
			return fc.newUnion(cu, nil)
		}
	case types.SymBuiltin:
		fc.errf(e.Span(), "builtin %s cannot be used as a value; wrap it in a lambda", e.Name)
		return fc.constUnit()
	}
	fc.errf(e.Span(), "internal: unresolved name %s", e.Name)
	return fc.constUnit()
}

// capture returns this function's capture of binding number n, declared
// in an enclosing function, adding it to the capture list (and, through
// intermediate lambdas, to theirs) on first use.
func (fc *funcCompiler) capture(n int32, span source.Span, name string) binding {
	if b, ok := fc.capBinds[n]; ok {
		return b
	}
	p := fc.parent
	if b := fc.m.slots[n]; b.depth < p.depth {
		// The parent itself captures it from further out.
		return fc.addCapture(n, p.capture(n, span, name).cell)
	} else if b.mutable && !b.cell {
		fc.errf(span, "cannot capture mutable binding %s in a closure; pass it explicitly or use a struct field", name)
	}
	return fc.addCapture(n, fc.m.slots[n].cell)
}

// addCapture assigns a fresh register to receive capture slot len(captures)
// of this function's closure environment at call time.
func (fc *funcCompiler) addCapture(n int32, cell bool) binding {
	fc.captures = append(fc.captures, n)
	r := fc.newReg()
	b := binding{reg: r, cell: cell, depth: fc.depth}
	if fc.capBinds == nil {
		fc.capBinds = map[int32]binding{}
	}
	fc.capBinds[n] = b
	fc.f.CaptureRegs = append(fc.f.CaptureRegs, r)
	return b
}

// lambda closure-converts a lambda into a lifted function plus OpMakeClosure.
// nameHint names the lifted function for readable IR.
func (fc *funcCompiler) lambda(e *ast.Lambda, nameHint *string) ir.Reg {
	name := fmt.Sprintf("lambda$%d", len(fc.m.mod.Funcs))
	if nameHint != nil {
		name = *nameHint
	}
	fidx := len(fc.m.mod.Funcs)
	f := &ir.Func{Name: name, NumParams: len(e.Params)}
	fc.m.mod.Funcs = append(fc.m.mod.Funcs, f)
	fc.m.mod.FuncIdx[name] = fidx

	sub := fc.m.newFuncCompiler(f, fc)
	for i, p := range e.Params {
		sub.bind(p.Bind, ir.Reg(i), false)
	}
	sub.nextReg = len(e.Params)
	r := sub.body(e.Body)
	sub.cur.Term = ir.Terminator{Kind: ir.TermReturn, Val: r}
	sub.finish()

	// Captured values are passed at closure-creation time, in capture order.
	// Cell bindings pass the cell itself, so mutation and late letrec
	// initialisation stay visible.
	args := fc.m.args.take(len(sub.captures))
	for i, n := range sub.captures {
		args[i] = fc.local(n, e.Span(), "").reg
	}
	dst := fc.newReg()
	fc.emit(ir.Instr{Op: ir.OpMakeClosure, Dst: dst, Imm: int64(fidx), Args: args})
	return dst
}

func (fc *funcCompiler) call(e *ast.Call) ir.Reg {
	if v, ok := e.Fn.(*ast.VarRef); ok {
		if sym := fc.m.info.Use(v); sym == nil || sym.Bind == 0 {
			op := fc.m.info.Builtin(v)
			switch op {
			case "and":
				return fc.shortCircuit(e.Args, true)
			case "or":
				return fc.shortCircuit(e.Args, false)
			case "vector":
				args := fc.evalArgs(e.Args)
				r := fc.newReg()
				fc.emit(ir.Instr{Op: ir.OpVectorLit, Dst: r, Args: args, Type: fc.m.info.TypeOf(e), Region: fc.region})
				return r
			case "not":
				a := fc.expr(e.Args[0])
				r := fc.newReg()
				fc.emit(ir.Instr{Op: ir.OpNot, Dst: r, A: a})
				return r
			case "neg":
				a := fc.expr(e.Args[0])
				r := fc.newReg()
				bits, signed, fl := numInfo(fc.m.info.TypeOf(e.Args[0]))
				fc.emit(ir.Instr{Op: ir.OpNeg, Dst: r, A: a, NumBits: bits, Signed: signed, Float: fl})
				return r
			case "bitnot":
				a := fc.expr(e.Args[0])
				r := fc.newReg()
				bits, signed, _ := numInfo(fc.m.info.TypeOf(e.Args[0]))
				fc.emit(ir.Instr{Op: ir.OpBitNot, Dst: r, A: a, NumBits: bits, Signed: signed})
				return r
			case "make-vector":
				n := fc.expr(e.Args[0])
				fill := fc.expr(e.Args[1])
				r := fc.newReg()
				fc.emit(ir.Instr{Op: ir.OpNewVector, Dst: r, A: n, B: fill, Type: fc.m.info.TypeOf(e), Region: fc.region})
				return r
			case "vector-ref":
				vec, idx := fc.expr(e.Args[0]), fc.expr(e.Args[1])
				r := fc.newReg()
				fc.emit(ir.Instr{Op: ir.OpVecRef, Dst: r, A: vec, B: idx, Type: fc.m.info.TypeOf(e), Pos: int(e.Span().Start) + 1})
				return r
			case "vector-set!":
				vec, idx, val := fc.expr(e.Args[0]), fc.expr(e.Args[1]), fc.expr(e.Args[2])
				fc.emit(ir.Instr{Op: ir.OpVecSet, A: vec, B: idx, Args: fc.regs1(val), Pos: int(e.Span().Start) + 1})
				return fc.constUnit()
			case "vector-length":
				vec := fc.expr(e.Args[0])
				r := fc.newReg()
				fc.emit(ir.Instr{Op: ir.OpVecLen, Dst: r, A: vec})
				return r
			}
			if op, ok := arithOps[op]; ok && len(e.Args) == 2 {
				a, b := fc.expr(e.Args[0]), fc.expr(e.Args[1])
				r := fc.newReg()
				bits, signed, fl := numInfo(fc.m.info.TypeOf(e.Args[0]))
				fc.emit(ir.Instr{Op: op, Dst: r, A: a, B: b, NumBits: bits, Signed: signed, Float: fl, Type: fc.m.info.TypeOf(e)})
				return r
			}
			if op, ok := cmpOps[op]; ok && len(e.Args) == 2 {
				a, b := fc.expr(e.Args[0]), fc.expr(e.Args[1])
				r := fc.newReg()
				bits, signed, fl := numInfo(fc.m.info.TypeOf(e.Args[0]))
				fc.emit(ir.Instr{Op: op, Dst: r, A: a, B: b, NumBits: bits, Signed: signed, Float: fl})
				return r
			}
			switch {
			case sym == nil:
			case sym.Kind == types.SymCtor:
				return fc.newUnion(fc.m.info.CtorOf[v.Name], e.Args)
			case sym.Kind == types.SymFunc:
				// Direct call to a top-level function.
				args := fc.evalArgs(e.Args)
				r := fc.newReg()
				fc.emit(ir.Instr{Op: ir.OpCall, Dst: r, Imm: int64(fc.m.mod.FuncIdx[v.Name]), Args: args, Type: fc.m.info.TypeOf(e)})
				return r
			case sym.Kind == types.SymExternal:
				args := fc.evalArgs(e.Args)
				r := fc.newReg()
				fc.emit(ir.Instr{Op: ir.OpCallExtern, Dst: r, Imm: int64(fc.m.externIdx[v.Name]), Args: args, Type: fc.m.info.TypeOf(e)})
				return r
			case op != "":
				// Remaining builtins (strings, channels, IO, floats...).
				args := fc.evalArgs(e.Args)
				r := fc.newReg()
				fc.emit(ir.Instr{Op: ir.OpBuiltin, Dst: r, Str: op, Args: args, Type: fc.m.info.TypeOf(e), Region: fc.region})
				return r
			}
		}
	}
	// Indirect call through a closure value.
	fn := fc.expr(e.Fn)
	args := fc.evalArgs(e.Args)
	r := fc.newReg()
	fc.emit(ir.Instr{Op: ir.OpCallClosure, Dst: r, A: fn, Args: args, Type: fc.m.info.TypeOf(e)})
	return r
}

// isLocal reports whether sym is a let-bound value or a parameter.
func (fc *funcCompiler) evalArgs(args []ast.Expr) []ir.Reg {
	regs := fc.m.args.take(len(args))
	for i, a := range args {
		regs[i] = fc.expr(a)
	}
	return regs
}

func (fc *funcCompiler) newUnion(cu *types.CtorUse, args []ast.Expr) ir.Reg {
	regs := fc.evalArgs(args)
	r := fc.newReg()
	fc.emit(ir.Instr{
		Op: ir.OpNewUnion, Dst: r, Str: cu.Union.Name, Imm: int64(cu.Arm.Tag),
		Args: regs, Type: types.Union(cu.Union), Region: fc.region,
	})
	return r
}

// shortCircuit lowers and/or chains to branches.
func (fc *funcCompiler) shortCircuit(args []ast.Expr, isAnd bool) ir.Reg {
	result := fc.newReg()
	done := fc.newBlock()
	for i, a := range args {
		v := fc.expr(a)
		fc.emit(ir.Instr{Op: ir.OpMov, Dst: result, A: v})
		if i == len(args)-1 {
			fc.cur.Term = ir.Terminator{Kind: ir.TermJump, To: done.ID}
			break
		}
		next := fc.newBlock()
		if isAnd {
			// false -> done (result already false), true -> continue
			fc.cur.Term = ir.Terminator{Kind: ir.TermBranch, Cond: v, To: next.ID, Else: done.ID}
		} else {
			fc.cur.Term = ir.Terminator{Kind: ir.TermBranch, Cond: v, To: done.ID, Else: next.ID}
		}
		fc.cur = next
	}
	fc.cur = done
	return result
}

func (fc *funcCompiler) ifExpr(e *ast.If) ir.Reg {
	cond := fc.expr(e.Cond)
	thenBlk := fc.newBlock()
	elseBlk := fc.newBlock()
	joinBlk := fc.newBlock()
	result := fc.newReg()

	fc.cur.Term = ir.Terminator{Kind: ir.TermBranch, Cond: cond, To: thenBlk.ID, Else: elseBlk.ID}

	fc.cur = thenBlk
	tr := fc.expr(e.Then)
	fc.emit(ir.Instr{Op: ir.OpMov, Dst: result, A: tr})
	fc.cur.Term = ir.Terminator{Kind: ir.TermJump, To: joinBlk.ID}

	fc.cur = elseBlk
	var er ir.Reg
	if e.Else != nil {
		er = fc.expr(e.Else)
	} else {
		er = fc.constUnit()
	}
	fc.emit(ir.Instr{Op: ir.OpMov, Dst: result, A: er})
	fc.cur.Term = ir.Terminator{Kind: ir.TermJump, To: joinBlk.ID}

	fc.cur = joinBlk
	return result
}

func (fc *funcCompiler) letExpr(e *ast.Let) ir.Reg {
	switch e.Kind {
	case ast.LetRec:
		// Each binding gets an indirection cell so that closures created by
		// earlier initialisers see later bindings' final values.
		cells := make([]ir.Reg, len(e.Bindings))
		for i, b := range e.Bindings {
			u := fc.constUnit()
			cells[i] = fc.newReg()
			fc.emit(ir.Instr{Op: ir.OpVectorLit, Dst: cells[i], Args: fc.regs1(u), Region: ir.NoReg})
			fc.setSlot(b.Bind, binding{reg: cells[i], mutable: b.Mutable, cell: true})
		}
		for i, b := range e.Bindings {
			v := fc.expr(b.Init)
			zero := fc.constInt(0)
			fc.emit(ir.Instr{Op: ir.OpVecSet, A: cells[i], B: zero, Args: fc.regs1(v)})
		}
	default: // plain let and let* both evaluate inits in order; for let*
		// each binding is bound as it is compiled, for plain let after
		// every init.
		if e.Kind == ast.LetSeq {
			for _, b := range e.Bindings {
				v := fc.expr(b.Init)
				r := fc.newReg()
				fc.emit(ir.Instr{Op: ir.OpMov, Dst: r, A: v})
				fc.bind(b.Bind, r, b.Mutable)
			}
		} else {
			// The init values wait on the frame's stack: an init's own
			// lets push above them and pop before the next one lands.
			base := len(fc.fr.vals)
			for _, b := range e.Bindings {
				v := fc.expr(b.Init)
				fc.fr.vals = append(fc.fr.vals, v)
			}
			for i, b := range e.Bindings {
				r := fc.newReg()
				fc.emit(ir.Instr{Op: ir.OpMov, Dst: r, A: fc.fr.vals[base+i]})
				fc.bind(b.Bind, r, b.Mutable)
			}
			fc.fr.vals = fc.fr.vals[:base]
		}
	}
	return fc.body(e.Body)
}

func (fc *funcCompiler) whileExpr(e *ast.While) ir.Reg {
	condBlk := fc.newBlock()
	bodyBlk := fc.newBlock()
	doneBlk := fc.newBlock()

	fc.cur.Term = ir.Terminator{Kind: ir.TermJump, To: condBlk.ID}
	fc.cur = condBlk
	if fc.m.opts.EmitContracts {
		// Loop invariants become runtime assertions at every loop head.
		for _, inv := range e.Invariants {
			r := fc.expr(inv)
			fc.emit(ir.Instr{Op: ir.OpAssert, A: r, Str: "loop invariant: " + ast.Print(inv)})
		}
	}
	c := fc.expr(e.Cond)
	fc.cur.Term = ir.Terminator{Kind: ir.TermBranch, Cond: c, To: bodyBlk.ID, Else: doneBlk.ID}

	fc.cur = bodyBlk
	fc.body(e.Body)
	fc.cur.Term = ir.Terminator{Kind: ir.TermJump, To: condBlk.ID}

	fc.cur = doneBlk
	return fc.constUnit()
}

func (fc *funcCompiler) doTimes(e *ast.DoTimes) ir.Reg {
	count := fc.expr(e.Count)
	i := fc.newReg()
	fc.emit(ir.Instr{Op: ir.OpConst, Dst: i, CKind: ir.ConstInt, Imm: 0})

	condBlk := fc.newBlock()
	bodyBlk := fc.newBlock()
	doneBlk := fc.newBlock()

	bits, signed, _ := numInfo(fc.m.info.TypeOf(e.Count))

	fc.cur.Term = ir.Terminator{Kind: ir.TermJump, To: condBlk.ID}
	fc.cur = condBlk
	c := fc.newReg()
	fc.emit(ir.Instr{Op: ir.OpLt, Dst: c, A: i, B: count, NumBits: bits, Signed: signed})
	fc.cur.Term = ir.Terminator{Kind: ir.TermBranch, Cond: c, To: bodyBlk.ID, Else: doneBlk.ID}

	fc.cur = bodyBlk
	fc.bind(e.Bind, i, false)
	fc.body(e.Body)
	one := fc.constInt(1)
	fc.emit(ir.Instr{Op: ir.OpAdd, Dst: i, A: i, B: one, NumBits: bits, Signed: signed})
	fc.cur.Term = ir.Terminator{Kind: ir.TermJump, To: condBlk.ID}

	fc.cur = doneBlk
	return fc.constUnit()
}

func (fc *funcCompiler) makeStruct(e *ast.MakeStruct) ir.Reg {
	si := fc.m.info.Structs[e.Name]
	// Evaluate field initialisers in declaration order.
	regs := fc.m.args.take(len(si.Fields))
	for i, f := range si.Fields {
		if init := fieldInit(e, f.Name); init != nil {
			regs[i] = fc.expr(init)
		} else {
			regs[i] = fc.constUnit() // checker already reported the omission
		}
	}
	r := fc.newReg()
	fc.emit(ir.Instr{Op: ir.OpNewStruct, Dst: r, Str: e.Name, Args: regs, Type: fc.m.info.TypeOf(e), Region: fc.region})
	return r
}

// fieldInit returns the initialiser e gives field name, the last one when
// it names the field twice, or nil.
func fieldInit(e *ast.MakeStruct, name string) ast.Expr {
	for i := len(e.Fields) - 1; i >= 0; i-- {
		if e.Fields[i].Name == name {
			return e.Fields[i].Value
		}
	}
	return nil
}

func (fc *funcCompiler) withRegion(e *ast.WithRegion) ir.Reg {
	rreg := fc.newReg()
	fc.emit(ir.Instr{Op: ir.OpRegionEnter, Dst: rreg})
	fc.bind(e.Bind, rreg, false)
	r := fc.body(e.Body)
	// Preserve the result outside the region before exiting it: copy to a
	// fresh register (the VM checks region liveness on access, not on copy).
	out := fc.newReg()
	fc.emit(ir.Instr{Op: ir.OpMov, Dst: out, A: r})
	fc.emit(ir.Instr{Op: ir.OpRegionExit, A: rreg})
	return out
}

func (fc *funcCompiler) caseExpr(e *ast.Case) ir.Reg {
	scrut := fc.expr(e.Scrut)
	scrutT := types.Prune(fc.m.info.TypeOf(e.Scrut))
	result := fc.newReg()
	joinBlk := fc.newBlock()

	var tag ir.Reg = ir.NoReg
	if scrutT.Kind == types.KUnion {
		tag = fc.newReg()
		fc.emit(ir.Instr{Op: ir.OpUnionTag, Dst: tag, A: scrut})
	}

	for ci, cl := range e.Clauses {
		last := ci == len(e.Clauses)-1
		bodyBlk := fc.newBlock()
		var nextBlk *ir.Block
		if !last {
			nextBlk = fc.newBlock()
		}
		fail := joinBlk.ID // exhaustive per checker; failing last test falls to join
		if nextBlk != nil {
			fail = nextBlk.ID
		}

		switch p := cl.Pattern.(type) {
		case *ast.PatWildcard:
			fc.cur.Term = ir.Terminator{Kind: ir.TermJump, To: bodyBlk.ID}
		case *ast.PatVar:
			fc.cur.Term = ir.Terminator{Kind: ir.TermJump, To: bodyBlk.ID}
			fc.cur = bodyBlk
			fc.bind(p.Bind, scrut, false)
			r := fc.body(cl.Body)
			fc.emit(ir.Instr{Op: ir.OpMov, Dst: result, A: r})
			fc.cur.Term = ir.Terminator{Kind: ir.TermJump, To: joinBlk.ID}
			if nextBlk != nil {
				fc.cur = nextBlk
			} else {
				fc.cur = joinBlk
				return result
			}
			continue
		case *ast.PatLit:
			lit := fc.expr(p.Lit)
			c := fc.newReg()
			bits, signed, fl := numInfo(scrutT)
			fc.emit(ir.Instr{Op: ir.OpEq, Dst: c, A: scrut, B: lit, NumBits: bits, Signed: signed, Float: fl})
			fc.cur.Term = ir.Terminator{Kind: ir.TermBranch, Cond: c, To: bodyBlk.ID, Else: fail}
		case *ast.PatCtor:
			cu := fc.m.info.PatCtors[p]
			if cu == nil {
				fc.cur.Term = ir.Terminator{Kind: ir.TermJump, To: bodyBlk.ID}
				break
			}
			want := fc.constInt(int64(cu.Arm.Tag))
			c := fc.newReg()
			fc.emit(ir.Instr{Op: ir.OpEq, Dst: c, A: tag, B: want, NumBits: 64, Signed: true})
			fc.cur.Term = ir.Terminator{Kind: ir.TermBranch, Cond: c, To: bodyBlk.ID, Else: fail}
		}

		fc.cur = bodyBlk
		// Bind constructor sub-patterns.
		if p, ok := cl.Pattern.(*ast.PatCtor); ok {
			if cu := fc.m.info.PatCtors[p]; cu != nil {
				for i, sub := range p.Args {
					fc.bindSubPattern(sub, scrut, i, cu)
				}
			}
		}
		r := fc.body(cl.Body)
		fc.emit(ir.Instr{Op: ir.OpMov, Dst: result, A: r})
		fc.cur.Term = ir.Terminator{Kind: ir.TermJump, To: joinBlk.ID}

		if nextBlk != nil {
			fc.cur = nextBlk
		}
	}
	fc.cur.Term = ir.Terminator{Kind: ir.TermJump, To: joinBlk.ID}
	fc.cur = joinBlk
	return result
}

// bindSubPattern extracts union payload field i and binds/tests sub.
// Nested constructor patterns are restricted to variables and wildcards by
// the depth-1 matching the surface language supports in practice; literals
// compile to an assert-like refutation into the same body (checker warns).
func (fc *funcCompiler) bindSubPattern(sub ast.Pattern, scrut ir.Reg, i int, cu *types.CtorUse) {
	switch sp := sub.(type) {
	case *ast.PatWildcard:
		// nothing
	case *ast.PatVar:
		r := fc.newReg()
		fc.emit(ir.Instr{Op: ir.OpUnionField, Dst: r, A: scrut, Imm: int64(i), Type: cu.Arm.Fields[i].Type})
		fc.bind(sp.Bind, r, false)
	default:
		fc.errf(sub.Span(), "nested patterns beyond variables and _ are not supported; bind and match again")
		// Bind its variables anyway, so the clause body still compiles.
		fc.bindPatternVars(sub, fc.constUnit())
	}
}

// bindPatternVars binds every variable in p to r.
func (fc *funcCompiler) bindPatternVars(p ast.Pattern, r ir.Reg) {
	switch p := p.(type) {
	case *ast.PatVar:
		fc.bind(p.Bind, r, false)
	case *ast.PatCtor:
		for _, a := range p.Args {
			fc.bindPatternVars(a, r)
		}
	}
}
