package vm

import (
	"fmt"
	"io"
	"unsafe"

	"bitc/internal/ir"
	"bitc/internal/layout"
	"bitc/internal/obs"
	"bitc/internal/types"
)

// RepMode selects the value representation the machine simulates.
type RepMode int

// Representation modes.
const (
	// Unboxed: scalars are immediate machine words; aggregates use their
	// declared (natural/packed) layout. This is the BitC/C story.
	Unboxed RepMode = iota
	// Boxed: the uniform representation — every scalar result is allocated
	// in a heap box and operands are read through their boxes.
	Boxed
)

// String names the representation mode as it appears in run banners and
// experiment tables.
func (m RepMode) String() string {
	if m == Boxed {
		return "boxed"
	}
	return "unboxed"
}

// Options configures a VM instance.
type Options struct {
	Mode     RepMode
	Seed     uint64 // scheduler PRNG seed (deterministic interleavings)
	Quantum  int    // instructions between preemption points (default 64)
	MaxSteps uint64 // 0 = unlimited; otherwise trap after this many instructions
	Stdout   io.Writer
	// Dispatch selects the interpreter strategy; the zero value
	// (DispatchFused) is the production hot path. See decode.go.
	Dispatch DispatchMode
	// RespectNoBox honours the optimiser's NoBox annotations in Boxed mode
	// (experiment E2 runs with and without it).
	RespectNoBox bool
	// Observer attaches a runtime observability recorder (tracing and
	// per-opcode/per-function profiling). nil disables every hook at the
	// cost of one predictable branch per hook site; see NewRecorder and
	// BenchmarkVMObsOverhead.
	Observer *obs.Recorder
	// BoundsElide marks vector-access instructions (by ir.Instr.Pos) whose
	// bounds check the static prover discharged; the pre-decode pass selects
	// check-free IC fast paths for them. A proof covers every execution of
	// the site, so elision is observation-free: values, traps, and counters
	// are identical with the map nil. Produced by analysis.BoundsProofs.
	BoundsElide map[int]bool
}

// HeapBudget bounds one allocation request in bytes of host memory: a
// make-vector, make-chan (its capacity, in vector elements) or
// string-append asking for more traps with "heap budget exhausted" before
// anything is allocated, instead of the host dying out of memory. 1 GiB is
// far above any vector, channel or string the repository's programs and
// benchmark workloads build. It is not a live-heap limit, and boxes (a
// fixed 16 bytes) are never checked.
const HeapBudget = 1 << 30

// heapBudget is the budget the VM checks: HeapBudget, lowered only by tests.
var heapBudget uint64 = HeapBudget

// valueBytes is the host size of one vector element.
const valueBytes = uint64(unsafe.Sizeof(Value{}))

// Stats is the VM's instrumentation, the raw material of the benchmark tables.
type Stats struct {
	Instrs          uint64
	Calls           uint64
	Allocs          uint64 // aggregate objects allocated
	HeapBytes       uint64 // layout-accounted bytes of aggregates
	BoxAllocs       uint64 // scalar boxes allocated (Boxed mode)
	BoxBytes        uint64
	BoxReads        uint64
	FieldReads      uint64
	FieldWrites     uint64
	VecOps          uint64
	Switches        uint64 // thread context switches
	TxCommits       uint64
	TxAborts        uint64
	ExternCalls     uint64 // boundary crossings: the fixed per-crossing unit
	MarshalledBytes uint64 // 8 per extern argument and per result
	// ExternSpilledRegs is the caller's register window summed over
	// crossings: what a real cgo/JNI transition saves and restores.
	ExternSpilledRegs uint64
	RegionAllocs      uint64
	ICHits            uint64 // inline-cache fast-path executions (see icache.go)
	ICMisses          uint64 // inline-cache slow-path executions
}

// ThreadState tracks scheduling.
type ThreadState int

// Thread states.
const (
	TRunnable ThreadState = iota
	TBlockedSend
	TBlockedRecv
	TBlockedLock
	TBlockedJoin
	TDone
)

// Frame is one activation record. block/ip address the decoded code
// (fn.blocks) — after fusion a slot may cover several source instructions,
// and every resumption point (STM rollback, blocked-thread wake) is a slot
// boundary in the same decoded index domain. Under DispatchSwitch, ip
// instead indexes the raw ir.Instr stream.
type Frame struct {
	fn    *dfunc
	regs  []Value
	block int
	ip    int
	dst   ir.Reg // caller register receiving the return value

	// prof caches the function's profile counters so the per-instruction
	// observability hook is two field increments, not a map lookup. nil
	// when no observer is attached.
	prof *obs.FuncProf
}

// Thread is a green thread.
type Thread struct {
	ID     int64
	frames []*Frame
	state  ThreadState
	result Value

	waitChan     *ChanState
	waitVal      Value
	waitLock     string
	waitTid      int64
	waitDstFrame *Frame
	waitDst      ir.Reg

	// yielded requests an immediate reschedule at the next quantum check.
	yielded bool

	txn *txn

	// obs is the thread's observability state (nil when not observing).
	obs *obs.ThreadObs
}

type lockState struct {
	owner   *Thread
	waiters []*Thread
}

// ExternFunc is a host-registered "C" function for the simulated FFI. args
// is the VM's marshalling scratch: it is valid only for the duration of the
// call, and is overwritten by the next extern call, so an implementation
// that keeps the arguments (or re-enters the VM) must copy them first.
type ExternFunc func(args []int64) int64

// VM executes one module.
type VM struct {
	mod  *ir.Module
	opts Options

	// dfuncs is the decoded module: one pre-specialized (and, under
	// DispatchFused, superinstruction-fused) body per ir.Func, built once by
	// ensureDecoded before the first run. See decode.go.
	dfuncs []*dfunc

	globals  []Value
	threads  []*Thread
	nextTid  int64
	rngState uint64

	locks map[string]*lockState

	regionsAlive []bool
	regionCount  []int // objects allocated per region

	// Externs maps C symbol names to host implementations.
	Externs map[string]ExternFunc

	// Layout caches per struct (unboxed uses the declared packing).
	layouts map[string]*layout.StructLayout

	Stats Stats

	stepsLeft uint64 // derived from MaxSteps

	// framePool recycles activation records; the interpreter is
	// single-threaded (green threads share it), so no locking is needed.
	framePool []*Frame
	// regSlab is the unused tail of the block newFrame carves register
	// files from.
	regSlab []Value
	// txnPool recycles transaction records the same way; see releaseTxn.
	txnPool []*txn

	// obs is the attached observability recorder (nil = disabled). Every
	// hook site guards on it, so the disabled path costs one branch.
	obs *obs.Recorder
	// curThread is the thread currently executing a quantum; allocation
	// hooks use it to attribute work without widening hot signatures.
	curThread *Thread
	// slotTrap is the index of the component a superinstruction trapped
	// in, when it is not the first: the fused handlers set it on their
	// error path only, and runFused's fast path reads and clears it to
	// charge exactly the components that ran.
	slotTrap int

	// externArgs is the scratch callExtern marshals arguments into, grown
	// to the widest extern call made so far (see ExternFunc).
	externArgs []int64

	// forceRetries makes the next n top-level atomic commits retry; see
	// ForceAtomicRetries (agreement-test hook, normally 0).
	forceRetries int
}

// New creates a VM for mod.
func New(mod *ir.Module, opts Options) *VM {
	if opts.Quantum <= 0 {
		opts.Quantum = 64
	}
	if opts.Stdout == nil {
		opts.Stdout = io.Discard
	}
	v := &VM{
		mod:      mod,
		opts:     opts,
		locks:    map[string]*lockState{},
		Externs:  map[string]ExternFunc{},
		layouts:  map[string]*layout.StructLayout{},
		rngState: opts.Seed*2654435761 + 1,
	}
	if opts.MaxSteps > 0 {
		v.stepsLeft = opts.MaxSteps
	} else {
		v.stepsLeft = ^uint64(0)
	}
	v.obs = opts.Observer
	return v
}

// NewRecorder creates an observability recorder with opcode names wired to
// the IR mnemonics. Pass it in Options.Observer (or core.Config.Observer),
// run the program, then use the recorder's report and trace writers.
func NewRecorder(o obs.Options) *obs.Recorder {
	if o.OpName == nil {
		o.OpName = func(op int) string { return ir.Op(op).String() }
	}
	return obs.NewRecorder(o)
}

// Mode returns the representation mode.
func (v *VM) Mode() RepMode { return v.opts.Mode }

// Quantum returns the effective preemption interval after defaulting: a
// zero-value Options gets 64, applied in exactly one place (New).
func (v *VM) Quantum() int { return v.opts.Quantum }

// Observer returns the attached observability recorder, or nil.
func (v *VM) Observer() *obs.Recorder { return v.obs }

// Global returns the current value of the named module-level global, or
// false when no such global exists or globals have not been initialised yet
// (they initialise on the first Run/RunFunc). Hosts embedding the VM — the
// serving subsystem reads each shard's account vector this way — get direct
// heap handles from it; mutating what they reach must go through a HostTxn
// (or happen while the VM is otherwise quiescent) to keep STM sound.
func (v *VM) Global(name string) (Value, bool) {
	if v.globals == nil {
		return Value{}, false
	}
	for i, g := range v.mod.Globals {
		if g.Name == name {
			return v.globals[i], true
		}
	}
	return Value{}, false
}

func (v *VM) rng() uint64 {
	// xorshift64*
	x := v.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	v.rngState = x
	return x * 2685821657736338717
}

// layoutOf returns the (cached) layout of a struct under the current mode.
func (v *VM) layoutOf(si *types.StructInfo) *layout.StructLayout {
	key := si.Name
	if l, ok := v.layouts[key]; ok {
		return l
	}
	mode := layout.Natural
	if si.Packed {
		mode = layout.Packed
	}
	if v.opts.Mode == Boxed {
		mode = layout.Boxed
	}
	l, err := layout.Of(si, mode)
	if err != nil {
		l = &layout.StructLayout{Name: si.Name, Size: 8 * len(si.Fields)}
	}
	v.layouts[key] = l
	return l
}

// Run initialises globals, then executes main (if present). Returns main's
// value.
func (v *VM) Run() (Value, error) {
	if err := v.initGlobals(); err != nil {
		return unitVal(), err
	}
	if v.mod.Entry < 0 {
		return unitVal(), nil
	}
	return v.RunFunc("main")
}

// RunFunc initialises globals if needed and invokes the named function with
// the given arguments on a fresh main thread, running the scheduler until
// completion.
func (v *VM) RunFunc(name string, args ...Value) (Value, error) {
	if v.globals == nil {
		if err := v.initGlobals(); err != nil {
			return unitVal(), err
		}
	}
	idx, ok := v.mod.FuncIdx[name]
	if !ok {
		return unitVal(), trapf("no function %s", name)
	}
	f := v.mod.Funcs[idx]
	if len(args) != f.NumParams {
		return unitVal(), trapf("%s expects %d arguments, got %d", name, f.NumParams, len(args))
	}
	main := v.spawnThread(v.dfuncs[idx], args, nil)
	if err := v.schedule(); err != nil {
		return unitVal(), err
	}
	return main.result, nil
}

func (v *VM) initGlobals() error {
	v.ensureDecoded()
	v.globals = make([]Value, len(v.mod.Globals))
	for i, g := range v.mod.Globals {
		t := v.spawnThread(v.dfuncs[g.Init], nil, nil)
		if err := v.schedule(); err != nil {
			return fmt.Errorf("initialising global %s: %w", g.Name, err)
		}
		v.globals[i] = t.result
	}
	return nil
}

func (v *VM) spawnThread(df *dfunc, args []Value, env []Value) *Thread {
	f := df.fn
	fr := &Frame{fn: df, regs: make([]Value, f.NumRegs), dst: ir.NoReg}
	copy(fr.regs, args)
	for i, r := range f.CaptureRegs {
		if i < len(env) {
			fr.regs[r] = env[i]
		}
	}
	v.nextTid++
	t := &Thread{ID: v.nextTid, frames: make([]*Frame, 1, frameChunk), state: TRunnable}
	t.frames[0] = fr
	if v.obs != nil {
		t.obs = v.obs.Thread(t.ID, f.Name)
		fr.prof = v.obs.FuncProf(f.Name)
		v.obs.Enter(t.obs, fr.prof)
	}
	v.threads = append(v.threads, t)
	return t
}

// schedule runs all threads to completion (or deadlock/trap).
func (v *VM) schedule() error {
	for {
		t := v.pickRunnable()
		if t == nil {
			// All done, or deadlock.
			for _, th := range v.threads {
				if th.state != TDone {
					return trapf("deadlock: thread %d blocked (%s) with no runnable threads",
						th.ID, stateName(th.state))
				}
			}
			v.threads = v.threads[:0]
			return nil
		}
		if err := v.runQuantum(t); err != nil {
			return err
		}
	}
}

func stateName(s ThreadState) string {
	switch s {
	case TBlockedSend:
		return "send"
	case TBlockedRecv:
		return "recv"
	case TBlockedLock:
		return "lock"
	case TBlockedJoin:
		return "join"
	default:
		return "runnable"
	}
}

// pickRunnable chooses the next thread to run: uniformly at random among
// the runnable ones, by one RNG draw indexed in thread order. It counts and
// then walks the thread list rather than collecting the candidates, so a
// quantum allocates nothing.
func (v *VM) pickRunnable() *Thread {
	n := 0
	var pick *Thread
	for _, t := range v.threads {
		if t.state == TRunnable {
			n++
			pick = t
		}
	}
	if n <= 1 {
		return pick // the only runnable thread, or nil
	}
	v.Stats.Switches++
	k := int(v.rng() % uint64(n))
	for _, t := range v.threads {
		if t.state == TRunnable {
			if k == 0 {
				pick = t
				break
			}
			k--
		}
	}
	if v.obs != nil {
		v.obs.Switch(pick.ID)
	}
	return pick
}

// runQuantum executes up to Quantum slots on t. The dispatch mode is tested
// once per quantum, not per slot; DispatchFused runs runFused.
func (v *VM) runQuantum(t *Thread) error {
	v.curThread = t
	var spanStart uint64
	if v.obs != nil {
		spanStart = v.obs.Clock()
	}
	var err error
	if v.opts.Dispatch == DispatchSwitch {
		err = v.runSwitch(t)
	} else {
		err = v.runFused(t)
	}
	if v.obs != nil {
		v.obs.RunSpan(t.obs, v.obs.Clock()-spanStart)
	}
	return err
}

// maxWidth is the widest superinstruction slot, in budget units (fuse.go's
// load+compare+branch).
const maxWidth = 3

// runFused is the fused interpreter's loop. It makes the checks runSwitch
// makes per step — thread state, yield, instruction budget — but only where
// their answer can change:
//
//   - Dispatch is block-local: the top frame, its block's code and the ip
//     live in locals. A jump, a branch or a fused branch only changes the
//     block. The frame is fetched again, with the thread-state and yield
//     checks, only after a return or a slot decode marked ctl that is not a
//     fused branch (a call or an hSlow op), the only slots that can push
//     or pop frames, block, yield or retry an atomic block.
//   - Accounting is per quantum when no observer is attached and the budget
//     cannot run out within it (stepsLeft >= Quantum+maxWidth): the loop
//     counts budget units and terminators in locals and writes the budget
//     and Stats.Instrs back once, and superinstruction handlers do no
//     per-component ticking. Otherwise the quantum takes the exact path,
//     runExact, which charges budget, Stats.Instrs and the observer per
//     component. The flag is fixed for the quantum.
//
// A superinstruction consumes its full width, so fusion can overrun a
// quantum boundary by at most width-1 instructions but never under-charges
// the scheduler. Either path charges exactly the components that ran, a
// trapping slot included.
func (v *VM) runFused(t *Thread) error {
	q := v.opts.Quantum
	exact := v.obs != nil || v.stepsLeft < uint64(q)+maxWidth
	// n counts budget units (source instructions plus terminators, fused
	// in or not) and terms the terminators, so n-terms is Stats.Instrs.
	n, terms := 0, 0
	var err error
	for n < q && err == nil {
		if t.state != TRunnable || len(t.frames) == 0 {
			break
		}
		if t.yielded {
			t.yielded = false
			break
		}
		fr := t.frames[len(t.frames)-1]
		blk := &fr.fn.blocks[fr.block]
		code, ip := blk.code, fr.ip
		for {
			if ip >= len(code) {
				n++
				terms++
				if exact {
					if err = v.useStep(); err != nil {
						break
					}
				}
				if term := &blk.term; term.inFrame() {
					fr.block, fr.ip = term.target(fr), 0
				} else {
					err = v.terminator(t, fr, term)
					break // a return: fetch the frame again
				}
			} else {
				d := &code[ip]
				ip++
				n += int(d.width)
				if d.ctl {
					fr.ip = ip
				}
				if exact {
					err = v.runExact(t, fr, d)
				} else if err = d.h(v, t, fr, d); err != nil {
					// The slot was charged whole; the trap ended it in
					// component slotTrap, so refund the components after it.
					n -= int(d.width) - 1 - v.slotTrap
					v.slotTrap = 0
				}
				if err != nil {
					fr.ip = ip
					break
				}
				if !d.ctl {
					if n >= q {
						fr.ip = ip
						break
					}
					continue
				}
				if !d.br {
					break // a call or an hSlow op: fetch the frame again
				}
				terms++
			}
			// A jump, a branch or a fused branch: same frame, new block.
			if n >= q {
				break
			}
			blk = &fr.fn.blocks[fr.block]
			code, ip = blk.code, 0
		}
	}
	if !exact {
		v.stepsLeft -= uint64(n)
		v.Stats.Instrs += uint64(n - terms)
	}
	return err
}

// runExact runs one decoded slot with per-component accounting: before each
// source instruction it checks and charges the budget, counts Stats.Instrs
// and ticks the observer, and an absorbed branch is charged budget without
// being counted, exactly as between unfused dispatches. A superinstruction
// runs its components (base, then each of fused, then the branch) one at a
// time, so a budget trap lands between the same two instructions it would
// under DispatchSwitch.
func (v *VM) runExact(t *Thread, fr *Frame, d *dinstr) error {
	if err := v.tick(t, fr, d.op); err != nil {
		return err
	}
	if d.base == nil {
		return d.h(v, t, fr, d)
	}
	if err := d.base(v, t, fr, d); err != nil {
		return err
	}
	for i := range d.fused {
		e := &d.fused[i]
		if err := v.tick(t, fr, e.op); err != nil {
			return err
		}
		if err := e.h(v, t, fr, e); err != nil {
			return err
		}
	}
	if d.br {
		if err := v.useStep(); err != nil {
			return err
		}
		branch(fr, d)
	}
	return nil
}

// runSwitch is runQuantum's DispatchSwitch loop: one step per source
// instruction or terminator.
func (v *VM) runSwitch(t *Thread) error {
	for n := 0; n < v.opts.Quantum; n++ {
		if t.state != TRunnable || len(t.frames) == 0 {
			return nil
		}
		if t.yielded {
			t.yielded = false
			return nil
		}
		if v.stepsLeft == 0 {
			return trapf("instruction budget exhausted")
		}
		v.stepsLeft--
		if err := v.step(t); err != nil {
			return err
		}
	}
	return nil
}

// step executes one source instruction or terminator of t's top frame
// under DispatchSwitch: fetch the ir.Instr and re-discriminate it in exec's
// switch, the legacy interpreter. It is the fused loop's oracle.
func (v *VM) step(t *Thread) error {
	fr := t.frames[len(t.frames)-1]
	blk := fr.fn.fn.Blocks[fr.block]
	if fr.ip >= len(blk.Instrs) {
		term := &dterm{kind: blk.Term.Kind, cond: blk.Term.Cond,
			to: blk.Term.To, els: blk.Term.Else, val: blk.Term.Val}
		return v.terminator(t, fr, term)
	}
	in := &blk.Instrs[fr.ip]
	fr.ip++
	v.Stats.Instrs++
	if v.obs != nil {
		v.obs.Tick(t.obs, fr.prof, int(in.Op))
	}
	return v.exec(t, fr, in)
}

// tick charges one source instruction on the exact path: budget,
// Stats.Instrs, and the observability clock.
func (v *VM) tick(t *Thread, fr *Frame, op ir.Op) error {
	if v.stepsLeft == 0 {
		return trapf("instruction budget exhausted")
	}
	v.stepsLeft--
	v.Stats.Instrs++
	if v.obs != nil {
		v.obs.Tick(t.obs, fr.prof, int(op))
	}
	return nil
}

// useStep charges instruction budget without ticking, on the exact path: a
// terminator's share (fused in or not), since terminators consume a
// scheduler slot but are not counted or profiled as instructions.
func (v *VM) useStep() error {
	if v.stepsLeft == 0 {
		return trapf("instruction budget exhausted")
	}
	v.stepsLeft--
	return nil
}

// inFrame reports whether the terminator stays in its frame: a jump or a
// branch, which only changes the block.
func (term *dterm) inFrame() bool {
	return term.kind == ir.TermJump || term.kind == ir.TermBranch
}

// target returns the block a jump or branch terminator goes to.
func (term *dterm) target(fr *Frame) int {
	if term.kind == ir.TermBranch && !fr.regs[term.cond].Truthy() {
		return term.els
	}
	return term.to
}

func (v *VM) terminator(t *Thread, fr *Frame, term *dterm) error {
	switch term.kind {
	case ir.TermJump, ir.TermBranch:
		fr.block, fr.ip = term.target(fr), 0
		return nil
	case ir.TermReturn:
		var result Value
		if term.val != ir.NoReg {
			result = fr.regs[term.val]
		} else {
			result = unitVal()
		}
		t.frames = t.frames[:len(t.frames)-1]
		if v.obs != nil {
			v.obs.Leave(t.obs)
		}
		if len(t.frames) == 0 {
			t.result = result
			t.state = TDone
			v.wakeJoiners(t)
			return nil
		}
		caller := t.frames[len(t.frames)-1]
		if fr.dst != ir.NoReg {
			caller.regs[fr.dst] = result
		}
		v.releaseFrame(fr)
		return nil
	default:
		return trapf("bad terminator")
	}
}

func (v *VM) wakeJoiners(done *Thread) {
	for _, th := range v.threads {
		if th.state == TBlockedJoin && th.waitTid == done.ID {
			th.state = TRunnable
		}
	}
}

const maxFrames = 10000

// frameChunk is the number of activation records, and regChunk the number
// of registers, that newFrame allocates at once when the pool runs dry: a
// fresh VM's first descent allocates once per chunk, not once per level.
// A thread's frame stack starts frameChunk deep for the same reason.
const (
	frameChunk = 32
	regChunk   = 256
)

// newFrame takes a pooled callee activation record, refilling the pool a
// chunk at a time. A record whose register file is too small gets a new one
// carved out of the VM's register slab.
func (v *VM) newFrame(df *dfunc, dst ir.Reg) *Frame {
	n := len(v.framePool)
	if n == 0 {
		if v.framePool == nil {
			v.framePool = make([]*Frame, 0, 2*frameChunk)
		}
		chunk := make([]Frame, frameChunk)
		for i := range chunk {
			v.framePool = append(v.framePool, &chunk[i])
		}
		n = frameChunk
	}
	fr := v.framePool[n-1]
	v.framePool = v.framePool[:n-1]
	if k := df.fn.NumRegs; cap(fr.regs) >= k {
		fr.regs = fr.regs[:k]
		clear(fr.regs)
	} else {
		if len(v.regSlab) < k {
			v.regSlab = make([]Value, max(k, regChunk))
		}
		fr.regs, v.regSlab = v.regSlab[:k:k], v.regSlab[k:]
	}
	fr.fn, fr.dst, fr.block, fr.ip = df, dst, 0, 0
	fr.prof = nil
	return fr
}

// releaseFrame returns an activation record to the pool.
func (v *VM) releaseFrame(fr *Frame) {
	if len(v.framePool) < 2*frameChunk {
		v.framePool = append(v.framePool, fr)
	}
}

// pushCall enters df on t, copying the arguments straight from the caller's
// registers into the pooled callee frame: a call allocates nothing once the
// frame pool is warm.
func (v *VM) pushCall(t *Thread, df *dfunc, caller *Frame, args []ir.Reg, env []Value, dst ir.Reg) error {
	if len(t.frames) >= maxFrames {
		return trapf("stack overflow: more than %d frames", maxFrames)
	}
	f := df.fn
	fr := v.newFrame(df, dst)
	for i, r := range args {
		fr.regs[i] = caller.regs[r]
	}
	for i, r := range f.CaptureRegs {
		if i < len(env) {
			fr.regs[r] = env[i]
		}
	}
	t.frames = append(t.frames, fr)
	v.Stats.Calls++
	if v.obs != nil {
		fr.prof = v.obs.FuncProf(f.Name)
		v.obs.Enter(t.obs, fr.prof)
	}
	return nil
}

// boxResult applies the uniform-representation cost to a freshly computed
// scalar: allocate its box and route the value through it.
func (v *VM) boxResult(in *ir.Instr, val Value) Value {
	if v.opts.Mode != Boxed {
		return val
	}
	if v.opts.RespectNoBox && in.NoBox {
		return val
	}
	switch val.K {
	case KInt, KBool, KChar:
		val.b = &box{i: val.I}
		v.Stats.BoxAllocs++
		v.Stats.BoxBytes += 16
	case KFloat:
		val.b = &box{f: val.Float()}
		v.Stats.BoxAllocs++
		v.Stats.BoxBytes += 16
	default:
		return val
	}
	if v.obs != nil {
		v.obsAlloc("box", 16)
	}
	return val
}

// obsAlloc charges an allocation to the currently executing function. The
// caller has already checked v.obs != nil.
func (v *VM) obsAlloc(kind string, bytes uint64) {
	t := v.curThread
	if t == nil || len(t.frames) == 0 {
		return
	}
	v.obs.Alloc(t.obs, t.frames[len(t.frames)-1].prof, kind, bytes)
}

// loadInt reads an integer operand, paying the unbox cost when it is boxed.
// The boxed read is its own function so that this one inlines.
func (v *VM) loadInt(val Value) int64 {
	if val.b != nil {
		return v.loadBoxed(val.b).i
	}
	return val.I
}

func (v *VM) loadFloat(val Value) float64 {
	if val.b != nil {
		return v.loadBoxed(val.b).f
	}
	return val.Float()
}

// loadBoxed charges one box read and returns the box. It is kept out of
// line so that loadInt and loadFloat stay within the inlining budget.
//
//go:noinline
func (v *VM) loadBoxed(b *box) *box {
	v.Stats.BoxReads++
	if v.obs != nil {
		v.obs.BoxRead()
	}
	return b
}

// wrap truncates x to the given width/signedness (two's complement).
func wrap(x int64, bits int, signed bool) int64 {
	if bits >= 64 {
		return x
	}
	mask := (uint64(1) << uint(bits)) - 1
	u := uint64(x) & mask
	if signed && u&(1<<uint(bits-1)) != 0 {
		return int64(u | ^mask)
	}
	return int64(u)
}
