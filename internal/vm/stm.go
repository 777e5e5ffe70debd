package vm

// footprint is a transaction's read and write sets, shared by the in-VM
// atomic form (txn) and the host-coordinated two-phase participant
// (HostTxn). Reads record each object's version at first touch; writes are
// buffered per (object, slot) and reach the heap only when apply runs.
type footprint struct {
	// reads holds every touched object — written objects included, so
	// writes validate too (no blind-write races).
	reads map[*Object]touch
	// writes is the write buffer, one entry per written slot.
	writes map[slot]Value
}

// touch is one read-set entry.
type touch struct {
	ver     uint64 // o.Version at first touch
	written bool   // some slot of o is in the write buffer
}

// slot names one element of one heap object.
type slot struct {
	o *Object
	i int
}

func newFootprint() footprint {
	return footprint{reads: map[*Object]touch{}, writes: map[slot]Value{}}
}

// maxPooledFootprint caps the read and write sets a reusable footprint may
// have held. Go maps never shrink and clear costs their capacity, so a
// footprint that grew past the cap gets fresh maps instead of being cleared:
// one huge transaction must not make every later small one pay for it.
const maxPooledFootprint = 64

// large reports whether the footprint grew past maxPooledFootprint.
func (f *footprint) large() bool {
	return len(f.reads) > maxPooledFootprint || len(f.writes) > maxPooledFootprint
}

// reset empties the footprint for reuse, keeping the maps' storage unless
// the footprint is large.
func (f *footprint) reset() {
	if f.large() {
		*f = newFootprint()
		return
	}
	clear(f.reads)
	clear(f.writes)
}

// read returns the transactional view of o.Elems[i].
func (f *footprint) read(o *Object, i int) Value {
	if tc, seen := f.reads[o]; !seen {
		f.reads[o] = touch{ver: o.Version}
	} else if tc.written {
		if val, ok := f.writes[slot{o, i}]; ok {
			return val
		}
	}
	return o.Elems[i]
}

// write buffers a transactional store to o.Elems[i].
func (f *footprint) write(o *Object, i int, val Value) {
	tc, seen := f.reads[o]
	if !seen {
		tc.ver = o.Version
	}
	if !tc.written {
		tc.written = true
		f.reads[o] = tc
	}
	f.writes[slot{o, i}] = val
}

// valid reports whether no touched object's version moved since first
// touch.
func (f *footprint) valid() bool {
	for o, tc := range f.reads {
		if o.Version != tc.ver {
			return false
		}
	}
	return true
}

// writesPrepared reports whether the footprint writes an object a host
// transaction holds prepared.
func (f *footprint) writesPrepared() bool {
	for o, tc := range f.reads {
		if tc.written && o.Prepared {
			return true
		}
	}
	return false
}

// apply stores the buffered writes and bumps each written object's version
// once. Map iteration order cannot change the outcome: every write-buffer
// key is a distinct slot, and each written object is bumped exactly once.
func (f *footprint) apply() {
	for s, val := range f.writes {
		s.o.Elems[s.i] = val
	}
	for o, tc := range f.reads {
		if tc.written {
			o.Version++
		}
	}
}

// setPrepared sets or clears the prepare lock on every touched object.
func (f *footprint) setPrepared(p bool) {
	for o := range f.reads {
		o.Prepared = p
	}
}

// txn is an optimistic software transaction (the atomic form). Reads record
// the version of each object at first touch; writes are buffered. At commit,
// if any read object's version moved, the transaction rolls back to its
// snapshot and re-executes — the composable alternative to locks argued for
// by Harris et al. and discussed by the paper's challenge 4.
//
// Records are recycled through VM.txnPool, so a committed transaction
// allocates nothing once the pool is warm.
type txn struct {
	fp footprint

	// Rollback snapshot. regs is never written after atomicBegin fills it,
	// so every retry of the transaction restores from the same buffer.
	frameDepth int
	block, ip  int
	regs       []Value
	depth      int // nesting depth (flattened)
	attempts   int
}

const maxTxnAttempts = 1000

// maxPooledTxns bounds VM.txnPool; one record per concurrently open
// transaction is all the pool ever needs.
const maxPooledTxns = 64

func (v *VM) atomicBegin(t *Thread, fr *Frame) error {
	if t.txn != nil {
		t.txn.depth++
		return nil
	}
	var tx *txn
	if n := len(v.txnPool); n > 0 {
		tx = v.txnPool[n-1]
		v.txnPool = v.txnPool[:n-1]
	} else {
		tx = &txn{fp: newFootprint()}
	}
	tx.frameDepth = len(t.frames)
	tx.block = fr.block
	tx.ip = fr.ip - 1 // re-execute the OpAtomicBegin on retry
	tx.regs = append(tx.regs[:0], fr.regs...)
	tx.depth = 1
	tx.attempts = 1
	t.txn = tx
	return nil
}

// releaseTxn returns a committed transaction's record to the pool, emptied
// so that it pins no heap objects. A record whose footprint grew past the
// cap is dropped instead.
func (v *VM) releaseTxn(tx *txn) {
	if tx.fp.large() || len(v.txnPool) >= maxPooledTxns {
		return
	}
	tx.fp.reset()
	clear(tx.regs)
	v.txnPool = append(v.txnPool, tx)
}

// ForceAtomicRetries makes the next n top-level atomic commits abort and
// retry as if their read sets had been invalidated. It exists for the
// static/dynamic agreement tests: a program the atomicity analyzer flags for
// an irreversible effect inside an atomic region (BITC-ATOM002) must
// observably re-execute that effect under a forced retry, while its fixed
// twin — the effect hoisted out of the transaction — must not.
func (v *VM) ForceAtomicRetries(n int) { v.forceRetries = n }

func (v *VM) atomicEnd(t *Thread) error {
	tx := t.txn
	if tx == nil {
		return trapf("atomic.end outside a transaction")
	}
	tx.depth--
	if tx.depth > 0 {
		return nil
	}
	// Test hook: simulate a conflicting commit without a second thread.
	if v.forceRetries > 0 {
		v.forceRetries--
		return v.atomicRetry(t)
	}
	// A host-prepared object in the write set forces a retry: a prepared
	// two-phase transaction has already validated against current versions,
	// and its commit must not be invalidated from under the coordinator.
	// (Read-only overlap is fine — the reader serialises before the host
	// commit, and version validation below catches anything later.)
	if tx.fp.writesPrepared() || !tx.fp.valid() {
		return v.atomicRetry(t)
	}
	tx.fp.apply()
	t.txn = nil
	v.releaseTxn(tx)
	v.Stats.TxCommits++
	if v.obs != nil {
		v.obs.Tx(t.obs, true)
	}
	return nil
}

// atomicRetry rolls the thread back to the transaction snapshot and restarts
// the transaction in the same record with an empty footprint.
func (v *VM) atomicRetry(t *Thread) error {
	tx := t.txn
	v.Stats.TxAborts++
	if v.obs != nil {
		v.obs.Tx(t.obs, false)
	}
	if tx.attempts >= maxTxnAttempts {
		return trapf("transaction aborted %d times; giving up (livelock?)", tx.attempts)
	}
	// Unwind any frames pushed inside the transaction and restore registers.
	if v.obs != nil { // keep the profiler's shadow stack in sync
		for i := len(t.frames); i > tx.frameDepth; i-- {
			v.obs.Leave(t.obs)
		}
	}
	t.frames = t.frames[:tx.frameDepth]
	fr := t.frames[len(t.frames)-1]
	copy(fr.regs, tx.regs)
	fr.block, fr.ip = tx.block, tx.ip+1 // resume just after OpAtomicBegin

	tx.fp.reset()
	tx.depth = 1
	tx.attempts++
	return nil
}

// ---------------------------------------------------------------------------
// Host transactions (two-phase commit participants)
// ---------------------------------------------------------------------------

// HostTxn is a host-coordinated optimistic transaction over one VM's heap:
// the shard-local participant of a transaction spanning several VMs (the
// cross-shard transfers of internal/serve). It keeps the same footprint as
// the in-VM atomic form — versions recorded at first touch, writes buffered
// — and differs only in that commit is split into Prepare (validate the
// footprint and lock it) and Commit (apply, bump versions, unlock), so a
// coordinator can run two-phase commit across participants with Abort as
// the rollback path. Unlike txn records, a HostTxn is never pooled: the
// caller holds its handle.
//
// Protocol guarantees, given the usage contract below:
//
//   - after Prepare returns true, Commit cannot fail: every touched object
//     is version-validated and flagged Prepared, in-VM transactions that
//     would write a prepared object abort and retry (see atomicEnd), and a
//     concurrent HostTxn touching it fails its own Prepare instead;
//   - Abort releases the locks without applying anything, so a coordinator
//     can back out of a partially prepared transaction.
//
// Usage contract: a HostTxn's methods must not run concurrently with the
// VM's own execution or with another HostTxn on the same VM — the VM is
// single-threaded and the host must provide that exclusion (internal/serve
// holds a per-shard mutex and never overlaps 2PC with batch execution).
type HostTxn struct {
	vm    *VM
	fp    footprint
	state hostTxnState
}

// hostTxnState tracks the prepare/commit/abort lifecycle.
type hostTxnState int

const (
	hostActive hostTxnState = iota
	hostPrepared
	hostDone
)

// HostBegin opens a host transaction on this VM's heap.
func (v *VM) HostBegin() *HostTxn {
	return &HostTxn{vm: v, fp: newFootprint()}
}

// Read returns the transactional view of o.Elems[i], recording o's version
// at first touch.
func (tx *HostTxn) Read(o *Object, i int) Value { return tx.fp.read(o, i) }

// Write buffers a transactional store to o.Elems[i].
func (tx *HostTxn) Write(o *Object, i int, val Value) { tx.fp.write(o, i, val) }

// Prepare validates the transaction's whole footprint (reads and writes)
// and locks it. It returns false — leaving nothing locked, and counting a
// VM-level abort — when any touched object is already prepared by another
// host transaction or has moved past the recorded version; the coordinator
// then aborts the other participants and retries later.
func (tx *HostTxn) Prepare() bool {
	if tx.state != hostActive {
		return false
	}
	for o, tc := range tx.fp.reads {
		if o.Prepared || o.Version != tc.ver {
			tx.state = hostDone
			tx.vm.Stats.TxAborts++
			return false
		}
	}
	tx.fp.setPrepared(true)
	tx.state = hostPrepared
	return true
}

// Commit applies the buffered writes, bumps the written objects' versions,
// and releases the prepare locks. Calling it on a transaction that is not
// prepared — or whose validation was somehow invalidated, which the usage
// contract makes impossible — is a protocol violation and returns an error.
func (tx *HostTxn) Commit() error {
	if tx.state != hostPrepared {
		return trapf("host transaction commit without a successful prepare")
	}
	if !tx.fp.valid() {
		return trapf("host transaction invalidated between prepare and commit (protocol violation)")
	}
	tx.fp.apply()
	tx.fp.setPrepared(false)
	tx.state = hostDone
	tx.vm.Stats.TxCommits++
	return nil
}

// Abort releases the prepare locks (if held) without applying anything. It
// is safe to call in any state; aborting a prepared transaction counts a
// VM-level abort.
func (tx *HostTxn) Abort() {
	if tx.state == hostPrepared {
		tx.fp.setPrepared(false)
		tx.vm.Stats.TxAborts++
	}
	tx.state = hostDone
}

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

func (v *VM) lockAcquire(t *Thread, fr *Frame, name string) error {
	if t.txn != nil {
		return trapf("lock acquisition inside atomic is not allowed")
	}
	ls := v.locks[name]
	if ls == nil {
		ls = &lockState{}
		v.locks[name] = ls
	}
	if ls.owner == nil {
		ls.owner = t
		if v.obs != nil {
			v.obs.Lock(t.obs, true, name)
		}
		return nil
	}
	if ls.owner == t {
		return trapf("deadlock: thread %d re-acquiring lock %s it already holds", t.ID, name)
	}
	// Block: when released, the unlocker hands the lock over and re-runs us
	// from the instruction after this one.
	t.state = TBlockedLock
	t.waitLock = name
	ls.waiters = append(ls.waiters, t)
	return nil
}

func (v *VM) lockRelease(t *Thread, name string) error {
	ls := v.locks[name]
	if ls == nil || ls.owner != t {
		return trapf("thread %d releasing lock %s it does not hold", t.ID, name)
	}
	if v.obs != nil {
		v.obs.Lock(t.obs, false, name)
	}
	if len(ls.waiters) > 0 {
		next := ls.waiters[0]
		ls.waiters = ls.waiters[1:]
		ls.owner = next
		next.state = TRunnable
		if v.obs != nil {
			v.obs.Lock(next.obs, true, name)
		}
	} else {
		ls.owner = nil
	}
	return nil
}
