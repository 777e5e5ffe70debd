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
func stmLoad(t *testing.T, src string) *ir.Module {
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

// TestAtomicCommitAllocatesNothing pins the pooled transaction records: once
// the VM is warm, a committed atomic allocates nothing, and neither does a
// retry, which reuses its record and snapshot. Allocation per transaction is
// the difference between runs of many and of few transactions, so the
// fixed per-call cost of RunFunc cancels out.
func TestAtomicCommitAllocatesNothing(t *testing.T) {
	mod := stmLoad(t, `
(defstruct cell (v int64) (w int64))
(define c cell (make cell :v 0 :w 0))

(define (entry (n int64)) int64
  (dotimes (i n)
    (atomic
      (set-field! c v (+ (field c v) 1))
      (set-field! c w (field c v))))
  (field c v))`)
	v := New(mod, Options{Seed: 1})
	allocs := func(n int64, retries int) float64 {
		return testing.AllocsPerRun(5, func() {
			v.ForceAtomicRetries(retries)
			if _, err := v.RunFunc("entry", IntValue(n)); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs(100, 10) // warm the pools and the maps
	const n = 1000
	base := allocs(1, 0)
	if extra := allocs(1+n, 0) - base; extra != 0 {
		t.Errorf("%d committed transactions allocated %v times (%.3f per transaction), want 0",
			n, extra, extra/n)
	}
	if extra := allocs(1, n/2) - base; extra != 0 {
		t.Errorf("%d forced retries allocated %v times, want 0", n/2, extra)
	}
}

// TestTxnRecordReuseLeavesNoStaleState runs a small transaction after each
// of: a large commit (its record is dropped, being past the pooling cap), a
// large commit whose first attempt aborts, and small commits (their records
// are pooled). Between the two a non-transactional store changes the probed
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
		}
	}
}
