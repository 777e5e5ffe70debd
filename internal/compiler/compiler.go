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
	diags := source.NewDiagnostics(prog.File)
	c := &moduleCompiler{
		info:  info,
		opts:  opts,
		diags: diags,
		mod: &ir.Module{
			FuncIdx: map[string]int{},
			Structs: info.Structs,
			Unions:  info.Unions,
			Entry:   -1,
		},
		globalIdx: map[string]int{},
		externIdx: map[string]int{},
	}
	c.run(prog)
	return c.mod, diags
}

type moduleCompiler struct {
	info      *types.Info
	opts      Options
	diags     *source.Diagnostics
	mod       *ir.Module
	globalIdx map[string]int
	externIdx map[string]int
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
	for _, d := range m.info.FuncDecls {
		m.mod.FuncIdx[d.Name] = len(m.mod.Funcs)
		sch := m.info.Funcs[d.Name]
		ft := types.Prune(sch.Type)
		m.mod.Funcs = append(m.mod.Funcs, &ir.Func{
			Name: d.Name, NumParams: len(d.Params),
			Params: ft.Params, Result: ft.Result,
		})
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
		fc.bind(p.Name, ir.Reg(i), false)
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
		fc.bind("%result", result, false)
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
}

type scope struct {
	parent *scope
	names  map[string]binding
}

func (s *scope) lookup(name string) (binding, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if b, ok := sc.names[name]; ok {
			return b, true
		}
	}
	return binding{}, false
}

type funcCompiler struct {
	m       *moduleCompiler
	f       *ir.Func
	cur     *ir.Block
	sc      *scope
	nextReg int

	// Closure-conversion state: parent is the lexically enclosing function
	// compiler; captures records outer names this function pulls in, in
	// order. Capture i arrives in the register f.CaptureRegs[i].
	parent   *funcCompiler
	captures []string
	capBinds map[string]binding

	region ir.Reg // current alloc-in region target, or NoReg
}

func (m *moduleCompiler) newFuncCompiler(f *ir.Func, parent *funcCompiler) *funcCompiler {
	fc := &funcCompiler{
		m: m, f: f, parent: parent,
		sc:       &scope{names: map[string]binding{}},
		capBinds: map[string]binding{},
		region:   ir.NoReg,
	}
	fc.cur = f.NewBlock()
	return fc
}

func (fc *funcCompiler) finish() {
	fc.f.NumRegs = fc.nextReg
}

func (fc *funcCompiler) bind(name string, r ir.Reg, mutable bool) {
	fc.sc.names[name] = binding{reg: r, mutable: mutable}
}

func (fc *funcCompiler) pushScope() { fc.sc = &scope{parent: fc.sc, names: map[string]binding{}} }
func (fc *funcCompiler) popScope()  { fc.sc = fc.sc.parent }

func (fc *funcCompiler) newReg() ir.Reg {
	r := ir.Reg(fc.nextReg)
	fc.nextReg++
	return r
}

// emit appends an instruction. Allocating opcodes must set Region explicitly
// (fc.region or ir.NoReg); non-allocating opcodes never consult it.
func (fc *funcCompiler) emit(in ir.Instr) {
	fc.cur.Instrs = append(fc.cur.Instrs, in)
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
		fc.pushScope()
		r := fc.body(e.Body)
		fc.popScope()
		return r
	case *ast.Set:
		b, ok := fc.sc.lookup(e.Name)
		if !ok && fc.parent != nil {
			// Assignment to a captured letrec cell is fine; a plain mutable
			// capture was already rejected by capture().
			b, ok = fc.capture(&ast.VarRef{SpanV: e.SpanV, Name: e.Name})
		}
		if !ok {
			return fc.constUnit() // checker already reported
		}
		v := fc.expr(e.Value)
		if b.cell {
			zero := fc.constInt(0)
			fc.emit(ir.Instr{Op: ir.OpVecSet, A: b.reg, B: zero, Args: []ir.Reg{v}})
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
		b, ok := fc.sc.lookup("region " + e.Region)
		saved := fc.region
		if ok {
			fc.region = b.reg
		}
		r := fc.expr(e.Expr)
		fc.region = saved
		return r
	case *ast.Atomic:
		fc.emit(ir.Instr{Op: ir.OpAtomicBegin})
		fc.pushScope()
		r := fc.body(e.Body)
		fc.popScope()
		fc.emit(ir.Instr{Op: ir.OpAtomicEnd})
		return r
	case *ast.Spawn:
		thunk := fc.lambda(&ast.Lambda{SpanV: e.SpanV, Body: []ast.Expr{e.Expr}}, nil)
		r := fc.newReg()
		fc.emit(ir.Instr{Op: ir.OpSpawn, Dst: r, A: thunk})
		return r
	case *ast.WithLock:
		fc.emit(ir.Instr{Op: ir.OpLockAcquire, Str: e.Lock})
		fc.pushScope()
		r := fc.body(e.Body)
		fc.popScope()
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

// varRef resolves a name: local scope, enclosing function (capture), global,
// function, nullary constructor.
func (fc *funcCompiler) varRef(e *ast.VarRef) ir.Reg {
	if b, ok := fc.sc.lookup(e.Name); ok {
		return fc.loadBinding(b)
	}
	// Capture from an enclosing function?
	if fc.parent != nil {
		if b, ok := fc.capture(e); ok {
			return fc.loadBinding(b)
		}
	}
	if gi, ok := fc.m.globalIdx[e.Name]; ok {
		r := fc.newReg()
		fc.emit(ir.Instr{Op: ir.OpGlobalGet, Dst: r, Imm: int64(gi)})
		return r
	}
	if fi, ok := fc.m.mod.FuncIdx[e.Name]; ok {
		// First-class reference to a top-level function: zero-capture closure.
		r := fc.newReg()
		fc.emit(ir.Instr{Op: ir.OpMakeClosure, Dst: r, Imm: int64(fi)})
		return r
	}
	if cu, ok := fc.m.info.CtorOf[e.Name]; ok && len(cu.Arm.Fields) == 0 {
		return fc.newUnion(cu, nil)
	}
	if sym := fc.m.info.Uses[e]; sym != nil && sym.Kind == types.SymBuiltin {
		fc.errf(e.Span(), "builtin %s cannot be used as a value; wrap it in a lambda", e.Name)
		return fc.constUnit()
	}
	fc.errf(e.Span(), "internal: unresolved name %s", e.Name)
	return fc.constUnit()
}

// capture resolves e.Name in enclosing functions, adding it to this
// function's capture list. Returns false if no enclosing binding exists.
func (fc *funcCompiler) capture(e *ast.VarRef) (binding, bool) {
	if b, ok := fc.capBinds[e.Name]; ok {
		return b, true
	}
	// Walk outwards looking for a binding (transitively capturing through
	// intermediate lambdas).
	p := fc.parent
	if p == nil {
		return binding{}, false
	}
	b, ok := p.sc.lookup(e.Name)
	if !ok {
		// Maybe the parent itself needs to capture it from further out.
		if p.parent != nil {
			if pb, ok := p.capture(e); ok {
				return fc.addCapture(e.Name, pb.cell), true
			}
		}
		return binding{}, false
	}
	if b.mutable && !b.cell {
		fc.errf(e.Span(), "cannot capture mutable binding %s in a closure; pass it explicitly or use a struct field", e.Name)
	}
	return fc.addCapture(e.Name, b.cell), true
}

// addCapture assigns a fresh register to receive capture slot len(captures)
// of this function's closure environment at call time.
func (fc *funcCompiler) addCapture(name string, cell bool) binding {
	fc.captures = append(fc.captures, name)
	r := fc.newReg()
	b := binding{reg: r, cell: cell}
	fc.capBinds[name] = b
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
		sub.bind(p.Name, ir.Reg(i), false)
	}
	sub.nextReg = len(e.Params)
	r := sub.body(e.Body)
	sub.cur.Term = ir.Terminator{Kind: ir.TermReturn, Val: r}
	sub.finish()

	// Captured values are passed at closure-creation time, in capture order.
	// Cell bindings pass the cell itself, so mutation and late letrec
	// initialisation stay visible.
	args := make([]ir.Reg, 0, len(sub.captures))
	for _, name := range sub.captures {
		if b, ok := fc.sc.lookup(name); ok {
			args = append(args, b.reg)
		} else if b, ok := fc.capBinds[name]; ok {
			args = append(args, b.reg)
		} else if b, ok := fc.capture(&ast.VarRef{Name: name}); ok {
			args = append(args, b.reg)
		} else {
			fc.errf(e.Span(), "internal: lost capture %s", name)
			args = append(args, fc.constUnit())
		}
	}
	dst := fc.newReg()
	fc.emit(ir.Instr{Op: ir.OpMakeClosure, Dst: dst, Imm: int64(fidx), Args: args})
	return dst
}

func (fc *funcCompiler) call(e *ast.Call) ir.Reg {
	if v, ok := e.Fn.(*ast.VarRef); ok {
		// Locally-bound name shadows specials.
		if _, bound := fc.sc.lookup(v.Name); !bound {
			switch v.Name {
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
				fc.emit(ir.Instr{Op: ir.OpVecSet, A: vec, B: idx, Args: []ir.Reg{val}, Pos: int(e.Span().Start) + 1})
				return fc.constUnit()
			case "vector-length":
				vec := fc.expr(e.Args[0])
				r := fc.newReg()
				fc.emit(ir.Instr{Op: ir.OpVecLen, Dst: r, A: vec})
				return r
			}
			if op, ok := arithOps[v.Name]; ok && len(e.Args) == 2 {
				a, b := fc.expr(e.Args[0]), fc.expr(e.Args[1])
				r := fc.newReg()
				bits, signed, fl := numInfo(fc.m.info.TypeOf(e.Args[0]))
				fc.emit(ir.Instr{Op: op, Dst: r, A: a, B: b, NumBits: bits, Signed: signed, Float: fl, Type: fc.m.info.TypeOf(e)})
				return r
			}
			if op, ok := cmpOps[v.Name]; ok && len(e.Args) == 2 {
				a, b := fc.expr(e.Args[0]), fc.expr(e.Args[1])
				r := fc.newReg()
				bits, signed, fl := numInfo(fc.m.info.TypeOf(e.Args[0]))
				fc.emit(ir.Instr{Op: op, Dst: r, A: a, B: b, NumBits: bits, Signed: signed, Float: fl})
				return r
			}
			// Constructor call.
			if cu, ok := fc.m.info.CtorOf[v.Name]; ok {
				return fc.newUnion(cu, e.Args)
			}
			// Direct call to a top-level function.
			if fi, ok := fc.m.mod.FuncIdx[v.Name]; ok {
				args := fc.evalArgs(e.Args)
				r := fc.newReg()
				fc.emit(ir.Instr{Op: ir.OpCall, Dst: r, Imm: int64(fi), Args: args, Type: fc.m.info.TypeOf(e)})
				return r
			}
			// Extern call.
			if xi, ok := fc.m.externIdx[v.Name]; ok {
				args := fc.evalArgs(e.Args)
				r := fc.newReg()
				fc.emit(ir.Instr{Op: ir.OpCallExtern, Dst: r, Imm: int64(xi), Args: args, Type: fc.m.info.TypeOf(e)})
				return r
			}
			// Remaining builtins (strings, channels, IO, floats...).
			if sym := fc.m.info.Uses[v]; sym != nil && sym.Kind == types.SymBuiltin {
				args := fc.evalArgs(e.Args)
				r := fc.newReg()
				fc.emit(ir.Instr{Op: ir.OpBuiltin, Dst: r, Str: v.Name, Args: args, Type: fc.m.info.TypeOf(e), Region: fc.region})
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

func (fc *funcCompiler) evalArgs(args []ast.Expr) []ir.Reg {
	regs := make([]ir.Reg, len(args))
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
	done := fc.f.NewBlock()
	for i, a := range args {
		v := fc.expr(a)
		fc.emit(ir.Instr{Op: ir.OpMov, Dst: result, A: v})
		if i == len(args)-1 {
			fc.cur.Term = ir.Terminator{Kind: ir.TermJump, To: done.ID}
			break
		}
		next := fc.f.NewBlock()
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
	thenBlk := fc.f.NewBlock()
	elseBlk := fc.f.NewBlock()
	joinBlk := fc.f.NewBlock()
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
	fc.pushScope()
	switch e.Kind {
	case ast.LetRec:
		// Each binding gets an indirection cell so that closures created by
		// earlier initialisers see later bindings' final values.
		cells := make([]ir.Reg, len(e.Bindings))
		for i, b := range e.Bindings {
			u := fc.constUnit()
			cells[i] = fc.newReg()
			fc.emit(ir.Instr{Op: ir.OpVectorLit, Dst: cells[i], Args: []ir.Reg{u}, Region: ir.NoReg})
			fc.sc.names[b.Name] = binding{reg: cells[i], mutable: b.Mutable, cell: true}
		}
		for i, b := range e.Bindings {
			v := fc.expr(b.Init)
			zero := fc.constInt(0)
			fc.emit(ir.Instr{Op: ir.OpVecSet, A: cells[i], B: zero, Args: []ir.Reg{v}})
		}
	default: // plain let and let* both evaluate inits in order; plain-let
		// shadowing subtleties were already validated by the checker's
		// scoping, and bindings are introduced as they are compiled for
		// let*; for plain let we compile inits first, then bind.
		if e.Kind == ast.LetSeq {
			for _, b := range e.Bindings {
				v := fc.expr(b.Init)
				r := fc.newReg()
				fc.emit(ir.Instr{Op: ir.OpMov, Dst: r, A: v})
				fc.bind(b.Name, r, b.Mutable)
			}
		} else {
			vals := make([]ir.Reg, len(e.Bindings))
			for i, b := range e.Bindings {
				vals[i] = fc.expr(b.Init)
			}
			for i, b := range e.Bindings {
				r := fc.newReg()
				fc.emit(ir.Instr{Op: ir.OpMov, Dst: r, A: vals[i]})
				fc.bind(b.Name, r, b.Mutable)
			}
		}
	}
	r := fc.body(e.Body)
	fc.popScope()
	return r
}

func (fc *funcCompiler) whileExpr(e *ast.While) ir.Reg {
	condBlk := fc.f.NewBlock()
	bodyBlk := fc.f.NewBlock()
	doneBlk := fc.f.NewBlock()

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
	fc.pushScope()
	fc.body(e.Body)
	fc.popScope()
	fc.cur.Term = ir.Terminator{Kind: ir.TermJump, To: condBlk.ID}

	fc.cur = doneBlk
	return fc.constUnit()
}

func (fc *funcCompiler) doTimes(e *ast.DoTimes) ir.Reg {
	count := fc.expr(e.Count)
	i := fc.newReg()
	fc.emit(ir.Instr{Op: ir.OpConst, Dst: i, CKind: ir.ConstInt, Imm: 0})

	condBlk := fc.f.NewBlock()
	bodyBlk := fc.f.NewBlock()
	doneBlk := fc.f.NewBlock()

	bits, signed, _ := numInfo(fc.m.info.TypeOf(e.Count))

	fc.cur.Term = ir.Terminator{Kind: ir.TermJump, To: condBlk.ID}
	fc.cur = condBlk
	c := fc.newReg()
	fc.emit(ir.Instr{Op: ir.OpLt, Dst: c, A: i, B: count, NumBits: bits, Signed: signed})
	fc.cur.Term = ir.Terminator{Kind: ir.TermBranch, Cond: c, To: bodyBlk.ID, Else: doneBlk.ID}

	fc.cur = bodyBlk
	fc.pushScope()
	fc.bind(e.Var, i, false)
	fc.body(e.Body)
	fc.popScope()
	one := fc.constInt(1)
	fc.emit(ir.Instr{Op: ir.OpAdd, Dst: i, A: i, B: one, NumBits: bits, Signed: signed})
	fc.cur.Term = ir.Terminator{Kind: ir.TermJump, To: condBlk.ID}

	fc.cur = doneBlk
	return fc.constUnit()
}

func (fc *funcCompiler) makeStruct(e *ast.MakeStruct) ir.Reg {
	si := fc.m.info.Structs[e.Name]
	// Evaluate field initialisers in declaration order.
	regs := make([]ir.Reg, len(si.Fields))
	byName := map[string]ast.Expr{}
	for _, f := range e.Fields {
		byName[f.Name] = f.Value
	}
	for i, f := range si.Fields {
		if init, ok := byName[f.Name]; ok {
			regs[i] = fc.expr(init)
		} else {
			regs[i] = fc.constUnit() // checker already reported the omission
		}
	}
	r := fc.newReg()
	fc.emit(ir.Instr{Op: ir.OpNewStruct, Dst: r, Str: e.Name, Args: regs, Type: types.Struct(si), Region: fc.region})
	return r
}

func (fc *funcCompiler) withRegion(e *ast.WithRegion) ir.Reg {
	rreg := fc.newReg()
	fc.emit(ir.Instr{Op: ir.OpRegionEnter, Dst: rreg})
	fc.pushScope()
	fc.bind("region "+e.Name, rreg, false)
	r := fc.body(e.Body)
	fc.popScope()
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
	joinBlk := fc.f.NewBlock()

	var tag ir.Reg = ir.NoReg
	if scrutT.Kind == types.KUnion {
		tag = fc.newReg()
		fc.emit(ir.Instr{Op: ir.OpUnionTag, Dst: tag, A: scrut})
	}

	for ci, cl := range e.Clauses {
		last := ci == len(e.Clauses)-1
		bodyBlk := fc.f.NewBlock()
		var nextBlk *ir.Block
		if !last {
			nextBlk = fc.f.NewBlock()
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
			fc.pushScope()
			fc.bind(p.Name, scrut, false)
			r := fc.body(cl.Body)
			fc.popScope()
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
		fc.pushScope()
		// Bind constructor sub-patterns.
		if p, ok := cl.Pattern.(*ast.PatCtor); ok {
			if cu := fc.m.info.PatCtors[p]; cu != nil {
				for i, sub := range p.Args {
					fc.bindSubPattern(sub, scrut, i, cu)
				}
			}
		}
		r := fc.body(cl.Body)
		fc.popScope()
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
		fc.bind(sp.Name, r, false)
	default:
		fc.errf(sub.Span(), "nested patterns beyond variables and _ are not supported; bind and match again")
	}
}
