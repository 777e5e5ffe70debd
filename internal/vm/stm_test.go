package vm

import (
	"strings"
	"testing"

	"bitc/internal/compiler"
	"bitc/internal/ir"
	"bitc/internal/opt"
	"bitc/internal/parser"
	"bitc/internal/types"
)

// stmLoad compiles src into a module for direct VM construction.
func stmLoad(t testing.TB, src string) *ir.Module {
	t.Helper()
	prog, diags := parser.Parse("stm_test", src)
	if err := diags.ErrOrNil(); err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, cdiags := types.Check(prog)
	if err := cdiags.ErrOrNil(); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	mod, mdiags := compiler.Compile(prog, info, compiler.Options{})
	if err := mdiags.ErrOrNil(); err != nil {
		t.Fatalf("compile: %v", err)
	}
	opt.Optimize(mod, opt.O2)
	return mod
}

// TestAtomicRetryManyWritersOneReader drives N writer threads and one
// consistency-checking reader through the same two-cell object under short
// quanta, the shape atomicRetry exists for. It asserts the three contention
// properties the serving subsystem depends on: the invariant holds, every
// increment commits exactly once, and progress is bounded — the abort count
// cannot exceed commits×(threads−1), because each abort of one transaction
// requires some other transaction's commit to have moved a version it read.
func TestAtomicRetryManyWritersOneReader(t *testing.T) {
	const writers, perWriter = 6, 40
	src := `
(defstruct pair (a int64) (b int64))
(define p pair (make pair :a 1000 :b 0))

(define (mover (n int64)) unit
  (dotimes (i n)
    (atomic
      (set-field! p a (- (field p a) 1))
      (set-field! p b (+ (field p b) 1)))))

(define (entry (writers int64) (n int64)) int64
  (let ((tids (make-vector writers 0)))
    (dotimes (w writers)
      (vector-set! tids w (spawn (mover n))))
    (let ((mutable bad 0))
      (dotimes (i (* writers n))
        (atomic
          (if (!= (+ (field p a) (field p b)) 1000)
              (set! bad (+ bad 1))
              ())))
      (dotimes (w writers)
        (join (vector-ref tids w)))
      (atomic
        (if (!= (+ (field p a) (field p b)) 1000)
            (set! bad (+ bad 1))
            ()))
      bad)))`
	mod := stmLoad(t, src)
	v := New(mod, Options{Seed: 11, Quantum: 7})
	val, err := v.RunFunc("entry", IntValue(writers), IntValue(perWriter))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if val.I != 0 {
		t.Fatalf("reader saw %d inconsistent snapshots", val.I)
	}
	// writers×perWriter mover commits + writers×perWriter reader probes + 1
	// final probe, each committing exactly once.
	wantCommits := uint64(writers*perWriter)*2 + 1
	if v.Stats.TxCommits != wantCommits {
		t.Fatalf("commits = %d, want %d", v.Stats.TxCommits, wantCommits)
	}
	if v.Stats.TxAborts == 0 {
		t.Fatalf("no aborts under %d writers at quantum 7 — contention not exercised", writers)
	}
	// Bounded-step progress: an abort requires another transaction's commit
	// between snapshot and validation, so with T concurrent transactions the
	// total abort count is bounded by commits×(T−1). A livelock would blow
	// through this long before tripping the VM's own attempt cap.
	bound := v.Stats.TxCommits * uint64(writers) // writers + reader − 1
	if v.Stats.TxAborts > bound {
		t.Fatalf("aborts = %d exceed the progress bound %d (commits=%d)",
			v.Stats.TxAborts, bound, v.Stats.TxCommits)
	}
	t.Logf("commits=%d aborts=%d (bound %d)", v.Stats.TxCommits, v.Stats.TxAborts, bound)
}

// TestNestedAtomicAbortRollsBackWholeWriteSet forces a conflict-driven retry
// of a transaction whose write set was partly filled inside a nested atomic
// block. The nested block flattens into the parent, so the rollback must
// discard both the inner and outer writes together; a partial rollback would
// either double-apply the inner write on re-execution or leak it.
func TestNestedAtomicAbortRollsBackWholeWriteSet(t *testing.T) {
	src := `
(defstruct cell (v int64) (w int64))
(define c cell (make cell :v 0 :w 0))

(define (inner) unit
  (atomic (set-field! c v (+ (field c v) 1))))

(define (bump (n int64)) unit
  (dotimes (i n)
    (atomic
      (inner)
      (yield)
      (set-field! c w (+ (field c w) 1)))))

(define (entry (n int64)) int64
  (let ((t1 (spawn (bump n)))
        (t2 (spawn (bump n))))
    (join t1) (join t2)
    (atomic (+ (field c v) (field c w)))))`
	mod := stmLoad(t, src)
	v := New(mod, Options{Seed: 5, Quantum: 3})
	const n = 50
	val, err := v.RunFunc("entry", IntValue(n))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Each of the 2n bumps increments v (inside the nested block) and w
	// (outside it) exactly once; any rollback that kept the nested write
	// while re-executing the body would push the total past 4n.
	if want := int64(4 * n); val.I != want {
		t.Fatalf("v+w = %d, want %d (nested write set not rolled back atomically)", val.I, want)
	}
	if v.Stats.TxAborts == 0 {
		t.Fatal("no aborts at quantum 3 — the rollback path was never taken")
	}
}

// TestAtomicLivelockTrap pins the bounded-retry escape hatch: a transaction
// aborted maxTxnAttempts times traps with a diagnostic instead of spinning
// forever. Exercised directly through atomicRetry on a synthetic thread.
func TestAtomicLivelockTrap(t *testing.T) {
	mod := stmLoad(t, `(define (main) int64 0)`)
	v := New(mod, Options{})
	v.ensureDecoded()
	fr := &Frame{fn: v.dfuncs[mod.Entry], regs: make([]Value, 4)}
	th := &Thread{ID: 1, frames: []*Frame{fr}}
	if err := v.atomicBegin(th, fr); err != nil {
		t.Fatal(err)
	}
	var err error
	for i := 0; i < maxTxnAttempts; i++ {
		if err = v.atomicRetry(th); err != nil {
			break
		}
	}
	if err == nil || !strings.Contains(err.Error(), "livelock") {
		t.Fatalf("err = %v, want livelock trap", err)
	}
	if v.Stats.TxAborts != maxTxnAttempts {
		t.Fatalf("aborts = %d, want %d", v.Stats.TxAborts, maxTxnAttempts)
	}
}

// hostTestVM builds a VM with one two-field struct global for HostTxn tests,
// returning the VM and the object.
func hostTestVM(t *testing.T) (*VM, *Object) {
	t.Helper()
	mod := stmLoad(t, `
(defstruct acct (bal int64) (seq int64))
(define a acct (make acct :bal 100 :seq 0))
(define (touch) int64 (atomic (set-field! a bal (+ (field a bal) 1)) (field a bal)))
(define (main) int64 0)`)
	v := New(mod, Options{})
	if _, err := v.RunFunc("main"); err != nil {
		t.Fatal(err)
	}
	g, ok := v.Global("a")
	if !ok || g.K != KRef {
		t.Fatalf("global a not reachable: %v %v", g, ok)
	}
	return v, g.R
}

// TestHostTxnPrepareCommit covers the happy 2PC participant path: buffered
// reads/writes, prepare locking, commit applying and unlocking.
func TestHostTxnPrepareCommit(t *testing.T) {
	v, o := hostTestVM(t)
	tx := v.HostBegin()
	bal := tx.Read(o, 0)
	if bal.I != 100 {
		t.Fatalf("read bal = %d, want 100", bal.I)
	}
	tx.Write(o, 0, IntValue(bal.I-30))
	if got := tx.Read(o, 0); got.I != 70 {
		t.Fatalf("read-own-write = %d, want 70", got.I)
	}
	if o.Elems[0].I != 100 {
		t.Fatal("write applied before commit")
	}
	if !tx.Prepare() {
		t.Fatal("prepare failed on an uncontended object")
	}
	if !o.Prepared {
		t.Fatal("prepare did not lock the object")
	}
	ver := o.Version
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if o.Elems[0].I != 70 || o.Version != ver+1 || o.Prepared {
		t.Fatalf("after commit: bal=%d ver=%d→%d prepared=%v", o.Elems[0].I, ver, o.Version, o.Prepared)
	}
	if v.Stats.TxCommits != 1 {
		t.Fatalf("host commit not counted: %d", v.Stats.TxCommits)
	}
}

// TestHostTxnConflicts covers the failure paths: prepare-vs-prepare
// conflicts, version invalidation, abort unlocking, and the misuse guard on
// commit-without-prepare.
func TestHostTxnConflicts(t *testing.T) {
	v, o := hostTestVM(t)

	tx1 := v.HostBegin()
	tx1.Write(o, 0, IntValue(1))
	if !tx1.Prepare() {
		t.Fatal("tx1 prepare failed")
	}
	tx2 := v.HostBegin()
	tx2.Write(o, 0, IntValue(2))
	if tx2.Prepare() {
		t.Fatal("tx2 prepared over tx1's lock")
	}
	if v.Stats.TxAborts != 1 {
		t.Fatalf("failed prepare not counted as abort: %d", v.Stats.TxAborts)
	}
	tx1.Abort()
	if o.Prepared {
		t.Fatal("abort left the object locked")
	}
	if o.Elems[0].I != 100 {
		t.Fatal("abort applied a write")
	}

	// Version invalidation: a write between Read and Prepare fails the
	// prepare (the VM bumped the version via its own committed atomic).
	tx3 := v.HostBegin()
	tx3.Read(o, 0)
	if _, err := v.RunFunc("touch"); err != nil {
		t.Fatal(err)
	}
	tx3.Write(o, 0, IntValue(3))
	if tx3.Prepare() {
		t.Fatal("prepare validated a stale read")
	}

	if err := v.HostBegin().Commit(); err == nil {
		t.Fatal("commit without prepare did not error")
	}
}

// TestAtomicRetriesOverPreparedObject proves the integration invariant the
// serving subsystem's two-phase commit rests on: an in-VM transaction that
// would write a host-prepared object aborts and retries, and commits only
// after the coordinator releases the lock — so a prepared transaction can
// never be invalidated between prepare and commit.
func TestAtomicRetriesOverPreparedObject(t *testing.T) {
	v, o := hostTestVM(t)
	tx := v.HostBegin()
	cur := tx.Read(o, 0)
	tx.Write(o, 0, IntValue(cur.I+1000))
	if !tx.Prepare() {
		t.Fatal("prepare failed")
	}
	// With the object prepared, the in-VM atomic must trip its bounded
	// retry rather than commit over the lock.
	if _, err := v.RunFunc("touch"); err == nil || !strings.Contains(err.Error(), "livelock") {
		t.Fatalf("atomic over a prepared object: err = %v, want bounded-retry trap", err)
	}
	if o.Elems[0].I != 100 {
		t.Fatalf("prepared object mutated by an aborted atomic: bal=%d", o.Elems[0].I)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit after interference: %v", err)
	}
	if o.Elems[0].I != 1100 {
		t.Fatalf("bal = %d, want 1100", o.Elems[0].I)
	}
	// Once released, the VM-level transaction goes straight through.
	val, err := v.RunFunc("touch")
	if err != nil {
		t.Fatal(err)
	}
	if val.I != 1101 {
		t.Fatalf("post-release touch = %d, want 1101", val.I)
	}
}

// TestForceAtomicRetries pins the agreement-test hook: each budgeted forced
// retry rolls the transaction back through the normal atomicRetry path (the
// write set is discarded, the body re-runs), the commit that finally lands
// applies exactly once, and the budget is consumed — a second run of the
// same VM does not retry again.
func TestForceAtomicRetries(t *testing.T) {
	src := `
(defstruct cell (v int64))
(define c cell (make cell :v 0))

(define (entry (n int64)) int64
  (atomic
    (set-field! c v (+ (field c v) n)))
  (field c v))`
	mod := stmLoad(t, src)
	v := New(mod, Options{Seed: 1})
	v.ForceAtomicRetries(3)
	val, err := v.RunFunc("entry", IntValue(5))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if val.I != 5 {
		t.Fatalf("forced retries leaked writes: final value %d, want 5", val.I)
	}
	if v.Stats.TxAborts != 3 {
		t.Fatalf("aborts = %d, want 3 (one per budgeted retry)", v.Stats.TxAborts)
	}
	if v.Stats.TxCommits != 1 {
		t.Fatalf("commits = %d, want exactly 1", v.Stats.TxCommits)
	}
	// Budget spent: the same VM commits first try now.
	if _, err := v.RunFunc("entry", IntValue(1)); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if v.Stats.TxAborts != 3 {
		t.Fatalf("aborts grew to %d after the budget was spent", v.Stats.TxAborts)
	}
}

// transferSrc is the serve shard's transfer transaction: an atomic that
// reads the accounts vector and two accounts and writes both accounts —
// three objects touched, two slots written. transfers runs n of them.
const transferSrc = `
(defstruct account (bal int64))
(define accounts (vector account) (make-vector 2 (make account :bal 0)))

(define (init) unit
  (dotimes (i 2)
    (vector-set! accounts i (make account :bal 1000))))

(define (transfer (fi int64) (ti int64) (am int64)) unit
  (atomic
    (let ((fa (vector-ref accounts fi))
          (ta (vector-ref accounts ti)))
      (set-field! fa bal (- (field fa bal) am))
      (set-field! ta bal (+ (field ta bal) am)))))

(define (transfers (n int64)) int64
  (dotimes (i n)
    (transfer 0 1 1))
  (field (vector-ref accounts 0) bal))`

// TestAtomicCommitAllocatesNothing pins the pooled transaction records: once
// the VM is warm, a committed transfer allocates nothing under either
// dispatch mode, and neither does a retry, which reuses its record, its
// logs and its snapshot. Allocation per transaction is the difference
// between runs of many and of few transactions, so the fixed per-call cost
// of RunFunc cancels out.
func TestAtomicCommitAllocatesNothing(t *testing.T) {
	mod := stmLoad(t, transferSrc)
	for _, d := range []struct {
		name string
		mode DispatchMode
	}{{"fused", DispatchFused}, {"switch", DispatchSwitch}} {
		t.Run(d.name, func(t *testing.T) {
			v := New(mod, Options{Seed: 1, Dispatch: d.mode})
			if _, err := v.RunFunc("init"); err != nil {
				t.Fatal(err)
			}
			allocs := func(n int64, retries int) float64 {
				return testing.AllocsPerRun(5, func() {
					v.ForceAtomicRetries(retries)
					if _, err := v.RunFunc("transfers", IntValue(n)); err != nil {
						t.Fatal(err)
					}
				})
			}
			allocs(100, 10) // warm the pools and the logs
			const n = 1000
			base := allocs(1, 0)
			if extra := allocs(1+n, 0) - base; extra != 0 {
				t.Errorf("%d committed transactions allocated %v times (%.3f per transaction), want 0",
					n, extra, extra/n)
			}
			if extra := allocs(1, n/2) - base; extra != 0 {
				t.Errorf("%d forced retries allocated %v times, want 0", n/2, extra)
			}
		})
	}
}

// fillSrc's fills runs n transactions that each fill a 1000-slot vector:
// one object read, 1000 slots written. Its init, like transferSrc's, sets
// up the heap.
const fillSrc = `
(define v (vector int64) (make-vector 1000 0))

(define (init) unit ())

(define (fills (n int64)) unit
  (dotimes (k n)
    (atomic
      (dotimes (i 1000)
        (vector-set! v i k)))))`

// BenchmarkSTMCommit times one committed atomic transaction per op: small
// is the serve transfer (three objects touched, two slots written), large a
// 1000-slot fill, whose write log runs on the index map. One RunFunc runs
// all b.N transactions, so its fixed cost spreads over them.
func BenchmarkSTMCommit(b *testing.B) {
	for _, c := range []struct{ name, src, run string }{
		{"small", transferSrc, "transfers"},
		{"large", fillSrc, "fills"},
	} {
		b.Run(c.name, func(b *testing.B) {
			v := New(stmLoad(b, c.src), Options{Seed: 1})
			if _, err := v.RunFunc("init"); err != nil {
				b.Fatal(err)
			}
			if _, err := v.RunFunc(c.run, IntValue(1)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := v.RunFunc(c.run, IntValue(int64(b.N))); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestHostTxnAllocs pins the cost of opening a 2PC participant: a whole
// HostBegin, Read, Write, Prepare, Commit cycle on one object allocates the
// handle and nothing else.
func TestHostTxnAllocs(t *testing.T) {
	v, o := hostTestVM(t)
	allocs := testing.AllocsPerRun(100, func() {
		tx := v.HostBegin()
		bal := tx.Read(o, 0)
		tx.Write(o, 0, IntValue(bal.I+1))
		if !tx.Prepare() {
			t.Fatal("prepare failed on an uncontended object")
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("a host transaction allocated %v times, want at most 1", allocs)
	}
}

// TestTxnRecordReuseLeavesNoStaleState runs a small transaction after each
// of: a large commit (its record is dropped, being past the pooling cap), a
// large commit whose first attempt aborts, indexed commits (past the index
// threshold but under the cap, so their records are pooled with the index
// dropped), and small commits (their records are pooled). Between the two a non-transactional store changes the probed
// cell. The read-only probe must return that value, commit first try (a
// kept read version would never validate), and leave the cell as it was (a
// kept buffered write would be applied again at its commit).
func TestTxnRecordReuseLeavesNoStaleState(t *testing.T) {
	mod := stmLoad(t, `
(defstruct cell (v int64))
(define cells (vector cell) (make-vector 200 (make cell :v 0)))

(define (init) unit
  (dotimes (i 200)
    (vector-set! cells i (make cell :v 0))))

(define (fill (n int64) (x int64)) unit
  (atomic
    (dotimes (i n)
      (set-field! (vector-ref cells i) v x))))

(define (poke (x int64)) unit
  (set-field! (vector-ref cells 0) v x))

(define (peek) int64 (field (vector-ref cells 0) v))

(define (probe) int64
  (atomic (field (vector-ref cells 0) v)))

(define (main) int64 0)`)
	v := New(mod, Options{Seed: 1})
	call := func(fn string, args ...Value) int64 {
		t.Helper()
		val, err := v.RunFunc(fn, args...)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		return val.I
	}
	call("init")
	cases := []struct {
		name    string
		n       int64
		retries int
	}{
		{"large commit", 200, 0},
		{"large abort then commit", 200, 1},
		{"indexed commit", 3 * fpIndexAt, 0},
		{"indexed abort then commit", 3 * fpIndexAt, 1},
		{"small commit", 2, 0},
		{"small abort then commit", 2, 1},
		{"small commit again", 2, 0},
	}
	for i, c := range cases {
		v.ForceAtomicRetries(c.retries)
		call("fill", IntValue(c.n), IntValue(int64(100+i)))
		want := int64(1000 * (i + 1))
		call("poke", IntValue(want))
		aborts := v.Stats.TxAborts
		if got := call("probe"); got != want {
			t.Fatalf("after %s: probe read %d, want %d", c.name, got, want)
		}
		if v.Stats.TxAborts != aborts {
			t.Fatalf("after %s: probe aborted %d times (stale read version)", c.name, v.Stats.TxAborts-aborts)
		}
		if got := call("peek"); got != want {
			t.Fatalf("after %s: cell holds %d after a read-only probe, want %d (stale buffered write)", c.name, got, want)
		}
		for _, tx := range v.txnPool {
			if len(tx.fp.reads) != 0 || len(tx.fp.writes) != 0 {
				t.Fatalf("after %s: pooled record holds %d reads, %d writes", c.name, len(tx.fp.reads), len(tx.fp.writes))
			}
			if tx.fp.readAt != nil || tx.fp.writeAt != nil {
				t.Fatalf("after %s: pooled record kept its index maps", c.name)
			}
			if tx.fp.large() {
				t.Fatalf("after %s: pooled record holds logs of capacity %d, %d, past the cap %d",
					c.name, cap(tx.fp.reads), cap(tx.fp.writes), maxPooledFootprint)
			}
			for _, tc := range tx.fp.reads[:cap(tx.fp.reads)] {
				if tc.o != nil {
					t.Fatalf("after %s: pooled record's read log pins an object", c.name)
				}
			}
			for _, w := range tx.fp.writes[:cap(tx.fp.writes)] {
				if w.o != nil {
					t.Fatalf("after %s: pooled record's write log pins an object", c.name)
				}
			}
		}
	}
}

// fpModel is the reference TestFootprintModel holds the footprint to: the
// read and write sets as plain maps keyed by object number, over a twin
// heap.
type fpModel struct {
	heap   []*Object
	reads  map[int]modelTouch
	writes map[[2]int]Value
}

type modelTouch struct {
	ver     uint64
	written bool
}

func (m *fpModel) read(o, i int) Value {
	if tc, seen := m.reads[o]; !seen {
		m.reads[o] = modelTouch{ver: m.heap[o].Version}
	} else if tc.written {
		if val, ok := m.writes[[2]int{o, i}]; ok {
			return val
		}
	}
	return m.heap[o].Elems[i]
}

func (m *fpModel) write(o, i int, val Value) {
	tc, seen := m.reads[o]
	if !seen {
		tc.ver = m.heap[o].Version
	}
	tc.written = true
	m.reads[o] = tc
	m.writes[[2]int{o, i}] = val
}

func (m *fpModel) valid() bool {
	for o, tc := range m.reads {
		if m.heap[o].Version != tc.ver {
			return false
		}
	}
	return true
}

func (m *fpModel) writesPrepared() bool {
	for o, tc := range m.reads {
		if tc.written && m.heap[o].Prepared {
			return true
		}
	}
	return false
}

func (m *fpModel) apply() {
	for s, val := range m.writes {
		m.heap[s[0]].Elems[s[1]] = val
	}
	for o, tc := range m.reads {
		if tc.written {
			m.heap[o].Version++
		}
	}
}

func (m *fpModel) setPrepared(p bool) {
	for o := range m.reads {
		m.heap[o].Prepared = p
	}
}

func (m *fpModel) reset() {
	clear(m.reads)
	clear(m.writes)
}

// fpHarness runs every operation on a footprint over one heap and on the
// model over its twin, and checks that results, heaps and sets agree.
type fpHarness struct {
	t    *testing.T
	f    footprint
	m    fpModel
	heap []*Object       // the footprint's heap
	num  map[*Object]int // object → its number in both heaps
}

func newFPHarness(t *testing.T, objs, slots int) *fpHarness {
	h := &fpHarness{t: t, num: map[*Object]int{}}
	h.m = fpModel{reads: map[int]modelTouch{}, writes: map[[2]int]Value{}}
	for o := 0; o < objs; o++ {
		a := &Object{Kind: OVector, Elems: make([]Value, slots)}
		b := &Object{Kind: OVector, Elems: make([]Value, slots)}
		for i := range a.Elems {
			a.Elems[i] = IntValue(int64(100*o + i))
			b.Elems[i] = a.Elems[i]
		}
		h.heap = append(h.heap, a)
		h.m.heap = append(h.m.heap, b)
		h.num[a] = o
	}
	return h
}

func (h *fpHarness) read(o, i int) Value {
	h.t.Helper()
	got, want := h.f.read(h.heap[o], i), h.m.read(o, i)
	if got != want {
		h.t.Fatalf("read(%d, %d) = %v, model %v", o, i, got, want)
	}
	return got
}

func (h *fpHarness) write(o, i int, val Value) {
	h.f.write(h.heap[o], i, val)
	h.m.write(o, i, val)
}

func (h *fpHarness) valid() bool {
	h.t.Helper()
	got, want := h.f.valid(), h.m.valid()
	if got != want {
		h.t.Fatalf("valid() = %v, model %v", got, want)
	}
	return got
}

func (h *fpHarness) writesPrepared() bool {
	h.t.Helper()
	got, want := h.f.writesPrepared(), h.m.writesPrepared()
	if got != want {
		h.t.Fatalf("writesPrepared() = %v, model %v", got, want)
	}
	return got
}

// apply commits both sides and checks that each written object's version
// moved exactly once and every other object's not at all.
func (h *fpHarness) apply() {
	h.t.Helper()
	before := make([]uint64, len(h.heap))
	for o, obj := range h.heap {
		before[o] = obj.Version
	}
	h.f.apply()
	h.m.apply()
	for o, obj := range h.heap {
		want := before[o]
		if h.m.reads[o].written {
			want++
		}
		if obj.Version != want {
			h.t.Fatalf("apply moved object %d's version %d → %d, want %d", o, before[o], obj.Version, want)
		}
	}
}

func (h *fpHarness) setPrepared(p bool) {
	h.f.setPrepared(p)
	h.m.setPrepared(p)
}

func (h *fpHarness) reset() {
	h.f.reset()
	h.m.reset()
}

// commitElsewhere is another transaction's commit to object o: a slot
// changes and the version moves.
func (h *fpHarness) commitElsewhere(o, i int, val Value) {
	for _, obj := range []*Object{h.heap[o], h.m.heap[o]} {
		obj.Elems[i] = val
		obj.Version++
	}
}

func (h *fpHarness) togglePrepared(o int) {
	h.heap[o].Prepared = !h.heap[o].Prepared
	h.m.heap[o].Prepared = h.heap[o].Prepared
}

// check compares the two heaps, the logs with the model's sets, and the
// index maps with the log lengths.
func (h *fpHarness) check() {
	h.t.Helper()
	for o, a := range h.heap {
		b := h.m.heap[o]
		if a.Version != b.Version || a.Prepared != b.Prepared {
			h.t.Fatalf("object %d: version %d prepared %v, model %d %v", o, a.Version, a.Prepared, b.Version, b.Prepared)
		}
		for i := range a.Elems {
			if a.Elems[i] != b.Elems[i] {
				h.t.Fatalf("object %d slot %d = %v, model %v", o, i, a.Elems[i], b.Elems[i])
			}
		}
	}
	f := &h.f
	if len(f.reads) != len(h.m.reads) || len(f.writes) != len(h.m.writes) {
		h.t.Fatalf("logs hold %d reads, %d writes; model %d, %d", len(f.reads), len(f.writes), len(h.m.reads), len(h.m.writes))
	}
	for _, tc := range f.reads {
		if mt, ok := h.m.reads[h.num[tc.o]]; !ok || mt != (modelTouch{tc.ver, tc.written}) {
			h.t.Fatalf("read log has object %d at %+v, model %+v (present %v)", h.num[tc.o], tc, mt, ok)
		}
	}
	for _, w := range f.writes {
		if val, ok := h.m.writes[[2]int{h.num[w.o], w.i}]; !ok || val != w.val {
			h.t.Fatalf("write log has slot (%d, %d) = %v, model %v (present %v)", h.num[w.o], w.i, w.val, val, ok)
		}
	}
	if (f.readAt != nil) != (len(f.reads) > fpIndexAt) || (f.writeAt != nil) != (len(f.writes) > fpIndexAt) {
		h.t.Fatalf("index maps present %v, %v at log lengths %d, %d (threshold %d)",
			f.readAt != nil, f.writeAt != nil, len(f.reads), len(f.writes), fpIndexAt)
	}
}

// TestFootprintModel drives the first-touch logs and a map-based model of
// the read and write sets through the same operations, with logs below, at
// and past the index threshold. Scripted cases pin the cases a log can get
// wrong; random sequences cover their interleavings.
func TestFootprintModel(t *testing.T) {
	// Every script runs after pad filler writes to other objects, which
	// take both logs below, to and past the threshold first.
	scripts := []struct {
		name string
		run  func(h *fpHarness)
	}{
		{"read after write, same and other slot", func(h *fpHarness) {
			h.write(0, 1, IntValue(7))
			if got := h.read(0, 1); got.I != 7 {
				t.Fatalf("read own write = %d, want 7", got.I)
			}
			if got := h.read(0, 2); got.I != 2 {
				t.Fatalf("unwritten slot of a written object = %d, want the heap's 2", got.I)
			}
			h.apply()
		}},
		{"overwrite one slot twice", func(h *fpHarness) {
			h.read(1, 0)
			h.write(1, 0, IntValue(5))
			h.write(1, 0, IntValue(6))
			if got := h.read(1, 0); got.I != 6 {
				t.Fatalf("read after two writes = %d, want 6", got.I)
			}
			h.apply()
			if got := h.heap[1].Elems[0].I; got != 6 {
				t.Fatalf("applied %d, want the second write 6", got)
			}
		}},
		{"blind write validates", func(h *fpHarness) {
			h.write(2, 3, IntValue(9))
			if !h.valid() {
				t.Fatal("fresh blind write does not validate")
			}
			h.commitElsewhere(2, 0, IntValue(-1))
			if h.valid() {
				t.Fatal("blind write validated over another commit to its object")
			}
		}},
		{"version moved between touch and commit", func(h *fpHarness) {
			h.read(3, 0)
			h.write(0, 0, IntValue(1))
			h.commitElsewhere(3, 1, IntValue(-2))
			if h.valid() {
				t.Fatal("read validated after its object's version moved")
			}
		}},
		{"prepared object in the write set", func(h *fpHarness) {
			h.read(1, 1)
			h.togglePrepared(1)
			if h.writesPrepared() {
				t.Fatal("a read-only touch of a prepared object counts as a write")
			}
			h.write(1, 1, IntValue(3))
			if !h.writesPrepared() {
				t.Fatal("a write to a prepared object went unnoticed")
			}
			h.togglePrepared(1)
			h.setPrepared(true)
			h.check()
			h.setPrepared(false)
		}},
		{"one version bump per written object", func(h *fpHarness) {
			for i := 0; i < 4; i++ {
				h.write(0, i, IntValue(int64(i)))
				h.write(2, i, IntValue(int64(-i)))
			}
			h.read(3, 0)
			h.apply()
		}},
	}
	const slots = 4
	for _, pad := range []int{0, fpIndexAt - 4, fpIndexAt - 3, fpIndexAt, 3 * fpIndexAt} {
		for _, sc := range scripts {
			h := newFPHarness(t, 4+pad, slots)
			for k := 0; k < pad; k++ {
				h.write(4+k, k%slots, IntValue(int64(k)))
			}
			sc.run(h)
			h.check()
			h.reset()
			h.check()
		}
	}

	// Random sequences. objs×slots bounds the logs, so the shapes keep
	// both below the threshold, put the write log alone past it, and put
	// both past it.
	shapes := []struct{ objs, slots int }{
		{3, 2}, {fpIndexAt, 1}, {fpIndexAt + 1, 1}, {1, 3 * fpIndexAt}, {4, fpIndexAt}, {3 * fpIndexAt, 3},
	}
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 20; seed++ {
			h := newFPHarness(t, sh.objs, sh.slots)
			rng := seed*0x9e3779b97f4a7c15 + uint64(sh.objs)
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for step := 0; step < 600; step++ {
				o, i, val := next(sh.objs), next(sh.slots), IntValue(int64(next(1000)))
				switch op := next(100); {
				case op < 40:
					h.read(o, i)
				case op < 75:
					h.write(o, i, val)
				case op < 82:
					h.commitElsewhere(o, i, val)
				case op < 86:
					h.togglePrepared(o)
				case op < 90:
					h.valid()
				case op < 94:
					h.writesPrepared()
				case op < 96:
					h.setPrepared(true)
					h.check()
					h.setPrepared(false)
				case op < 98:
					h.apply()
					h.check()
					h.reset()
				default:
					h.reset()
				}
				h.check()
			}
		}
	}
}
