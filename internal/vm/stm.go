package vm

// footprint is a transaction's read and write sets, shared by the in-VM
// atomic form (txn) and the host-coordinated two-phase participant
// (HostTxn). Both are logs in first-touch order: reads record each object's
// version at first touch, and writes are buffered per (object, slot) and
// reach the heap only when apply runs. A transfer touches a handful of
// objects, so lookups scan the logs; a log that grows past fpIndexAt
// entries gets an index map, built once and dropped by reset, so that a
// large transaction stays linear (the small read/write-set logs of TL2,
// Dice, Shalev and Shavit, DISC 2006).
type footprint struct {
	// reads holds every touched object — written objects included, so
	// writes validate too (no blind-write races).
	reads []touch
	// writes is the write buffer, one entry per written slot.
	writes []write
	// readAt and writeAt map an object or a slot to its log position once
	// that log is past fpIndexAt entries; nil before.
	readAt  map[*Object]int
	writeAt map[slot]int
}

// touch is one read-set entry.
type touch struct {
	o       *Object
	ver     uint64 // o.Version at first touch
	written bool   // some slot of o is in the write buffer
}

// write is one write-buffer entry.
type write struct {
	slot
	val Value
}

// slot names one element of one heap object.
type slot struct {
	o *Object
	i int
}

// fpIndexAt is the log length past which lookups go through an index map
// instead of a linear scan.
const fpIndexAt = 16

// maxPooledFootprint caps the log capacity a pooled transaction record may
// keep: one huge transaction must not leave every later small one holding
// its storage.
const maxPooledFootprint = 64

// large reports whether the footprint's logs grew past maxPooledFootprint.
func (f *footprint) large() bool {
	return cap(f.reads) > maxPooledFootprint || cap(f.writes) > maxPooledFootprint
}

// reset empties the footprint for reuse. It keeps the logs' storage,
// zeroed so that it pins no heap objects, and drops the index maps.
func (f *footprint) reset() {
	clear(f.reads)
	clear(f.writes)
	f.reads, f.writes = f.reads[:0], f.writes[:0]
	f.readAt, f.writeAt = nil, nil
}

// findRead returns o's position in the read log, or -1.
func (f *footprint) findRead(o *Object) int {
	if f.readAt != nil {
		if j, ok := f.readAt[o]; ok {
			return j
		}
		return -1
	}
	for j := range f.reads {
		if f.reads[j].o == o {
			return j
		}
	}
	return -1
}

// findWrite returns s's position in the write log, or -1.
func (f *footprint) findWrite(s slot) int {
	if f.writeAt != nil {
		if j, ok := f.writeAt[s]; ok {
			return j
		}
		return -1
	}
	for j := range f.writes {
		if f.writes[j].slot == s {
			return j
		}
	}
	return -1
}

// addRead logs o's first touch.
func (f *footprint) addRead(o *Object, written bool) {
	f.reads = append(f.reads, touch{o: o, ver: o.Version, written: written})
	if n := len(f.reads); f.readAt != nil {
		f.readAt[o] = n - 1
	} else if n > fpIndexAt {
		f.readAt = make(map[*Object]int, 2*n)
		for j, tc := range f.reads {
			f.readAt[tc.o] = j
		}
	}
}

// addWrite logs the first store to s.
func (f *footprint) addWrite(s slot, val Value) {
	f.writes = append(f.writes, write{s, val})
	if n := len(f.writes); f.writeAt != nil {
		f.writeAt[s] = n - 1
	} else if n > fpIndexAt {
		f.writeAt = make(map[slot]int, 2*n)
		for j, w := range f.writes {
			f.writeAt[w.slot] = j
		}
	}
}

// read returns the transactional view of o.Elems[i].
func (f *footprint) read(o *Object, i int) Value {
	if j := f.findRead(o); j < 0 {
		f.addRead(o, false)
	} else if f.reads[j].written {
		if k := f.findWrite(slot{o, i}); k >= 0 {
			return f.writes[k].val
		}
	}
	return o.Elems[i]
}

// write buffers a transactional store to o.Elems[i]. Only a slot of an
// object already written can be in the write buffer.
func (f *footprint) write(o *Object, i int, val Value) {
	s := slot{o, i}
	j := f.findRead(o)
	switch {
	case j < 0:
		f.addRead(o, true)
	case !f.reads[j].written:
		f.reads[j].written = true
	default:
		if k := f.findWrite(s); k >= 0 {
			f.writes[k].val = val
			return
		}
	}
	f.addWrite(s, val)
}

// valid reports whether no touched object's version moved since first
// touch.
func (f *footprint) valid() bool {
	for _, tc := range f.reads {
		if tc.o.Version != tc.ver {
			return false
		}
	}
	return true
}

// writesPrepared reports whether the footprint writes an object a host
// transaction holds prepared.
func (f *footprint) writesPrepared() bool {
	for _, tc := range f.reads {
		if tc.written && tc.o.Prepared {
			return true
		}
	}
	return false
}

// apply stores the buffered writes in first-write order and bumps each
// written object's version once.
func (f *footprint) apply() {
	for _, w := range f.writes {
		w.o.Elems[w.i] = w.val
	}
	for _, tc := range f.reads {
		if tc.written {
			tc.o.Version++
		}
	}
}

// setPrepared sets or clears the prepare lock on every touched object.
func (f *footprint) setPrepared(p bool) {
	for _, tc := range f.reads {
		tc.o.Prepared = p
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
		tx = &txn{}
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
// so that it pins no heap objects. A record whose logs grew past
// maxPooledFootprint is dropped instead.
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
// caller holds its handle, which carries inline room for a small footprint
// so that opening one costs a single allocation.
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
	// Inline storage for the footprint's logs; a larger footprint grows
	// out of it.
	readBuf  [hostInline]touch
	writeBuf [hostInline]write
}

// hostInline is the log length a HostTxn holds without a further
// allocation: room for the one account a serve participant touches, and
// one more.
const hostInline = 2

// hostTxnState tracks the prepare/commit/abort lifecycle.
type hostTxnState int

const (
	hostActive hostTxnState = iota
	hostPrepared
	hostDone
)

// HostBegin opens a host transaction on this VM's heap.
func (v *VM) HostBegin() *HostTxn {
	tx := &HostTxn{vm: v}
	tx.fp.reads, tx.fp.writes = tx.readBuf[:0], tx.writeBuf[:0]
	return tx
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
	for _, tc := range tx.fp.reads {
		if tc.o.Prepared || tc.o.Version != tc.ver {
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
