package vm_test

// value_test.go pins the register-sized value representation: vm.Value's
// layout, allocation-free calls, and the rule that a string value is never
// mistaken for a reference although both reach a heap Object through R.

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"bitc/internal/bench"
	"bitc/internal/core"
	"bitc/internal/ir"
	"bitc/internal/opt"
	"bitc/internal/vm"
)

// TestValueLayout pins vm.Value at four fields and 32 bytes. The Go
// compiler's SSA pass decomposes a struct into registers only when it has
// at most four fields and fits in four words; past either limit every copy
// of a Value — each register read, frame slot and vector element — goes
// through memory. A five-field, 40-byte variant (one more int64) ran the
// unboxed E1 kernels 1.1-1.4x slower than this layout on a 2-vCPU x86-64
// host, slower in 7 of 8 alternating pairs, so the limit is a cliff, not a
// guideline.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(vm.Value{}); got != 32 {
		t.Errorf("unsafe.Sizeof(vm.Value{}) = %d, want 32", got)
	}
	if n := reflect.TypeOf(vm.Value{}).NumField(); n > 4 {
		t.Errorf("vm.Value has %d fields, want at most 4", n)
	}
}

// TestCallsAllocateNothing runs the unboxed fib kernel on a fresh VM per
// run. fib(16) makes 18x the calls of fib(10) and recurses 6 levels deeper,
// yet both must allocate the same number of Go objects: arguments are
// copied straight into pooled frames, and frames and register files come
// in chunks deeper than either descent. The boxed run checks that a box is
// still accounted at 16 bytes.
func TestCallsAllocateNothing(t *testing.T) {
	src, ok := bench.KernelSource("fib")
	if !ok {
		t.Fatal("no fib kernel")
	}
	load := func(mode vm.RepMode) *core.Program {
		prog, err := core.Load("fib", src, core.Config{Optimize: opt.O2, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	prog := load(vm.Unboxed)
	allocs := func(n int64) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, _, err := prog.RunFunc("entry", vm.IntValue(n)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a10, a16 := allocs(10), allocs(16); a10 != a16 {
		t.Errorf("fib(10) allocates %v objects per run, fib(16) %v: calls must allocate nothing", a10, a16)
	}
	_, machine, err := load(vm.Boxed).RunFunc("entry", vm.IntValue(10))
	if err != nil {
		t.Fatal(err)
	}
	if s := machine.Stats; s.BoxAllocs == 0 || s.BoxBytes != 16*s.BoxAllocs {
		t.Errorf("boxAllocs = %d, boxBytes = %d: want 16 bytes per box", s.BoxAllocs, s.BoxBytes)
	}
}

// TestStringIsNotRef hands a string where a reference is due, at every
// kind of reference operand check, under both dispatch strategies. A
// KString value carries an OString object in R, so any check that looked
// at R alone would let it through; each must trap instead.
func TestStringIsNotRef(t *testing.T) {
	cases := []struct {
		name string
		in   ir.Instr
		want string
	}{
		{"field", ir.Instr{Op: ir.OpGetField, Dst: 1, A: 0}, "field access on non-reference value str"},
		{"set-field", ir.Instr{Op: ir.OpSetField, A: 0, B: 0}, "field write on non-reference value str"},
		{"vector-ref", ir.Instr{Op: ir.OpVecRef, Dst: 1, A: 0, B: 0}, "vector-ref on non-reference value str"},
		{"vector-length", ir.Instr{Op: ir.OpVecLen, Dst: 1, A: 0}, "vector-length on non-reference value str"},
		{"union-tag", ir.Instr{Op: ir.OpUnionTag, Dst: 1, A: 0}, "union tag on non-reference value str"},
		{"call", ir.Instr{Op: ir.OpCallClosure, Dst: 1, A: 0}, "calling a non-function value str"},
		{"spawn", ir.Instr{Op: ir.OpSpawn, Dst: 1, A: 0}, "spawn needs a closure"},
		{"send", ir.Instr{Op: ir.OpBuiltin, Str: "send", Dst: 1, Args: []ir.Reg{0, 0}}, "channel operation on non-channel"},
	}
	for _, c := range cases {
		for _, d := range dispatchModes {
			f := &ir.Func{Name: "f", NumRegs: 2}
			b := f.NewBlock()
			b.Instrs = []ir.Instr{{Op: ir.OpConst, CKind: ir.ConstString, Str: "str", Dst: 0}, c.in}
			b.Term = ir.Terminator{Kind: ir.TermReturn, Val: ir.NoReg}
			mod := &ir.Module{Funcs: []*ir.Func{f}, FuncIdx: map[string]int{"f": 0}, Entry: -1}
			_, err := vm.New(mod, vm.Options{Dispatch: d}).RunFunc("f")
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s/%v: err = %v, want trap %q", c.name, d, err, c.want)
			}
		}
	}
}
