package vm

// icache.go: monomorphic inline caches on field and vector access. Each
// OpGetField/OpSetField/OpVecRef/OpVecSet site owns one icache, filled the
// first time the slow path succeeds on a cacheable object and consulted on
// every later execution. A hit skips the operand kind check, the region
// liveness check, and (for vectors) re-deriving the bounds; a miss falls
// back to the legacy switch in exec.go, which re-fills the cache. Hits and
// misses are counted in Stats.ICHits/ICMisses (exported as icHits/icMisses
// in bitc-metrics/v1). docs/vm.md states the invalidation rules.

import (
	"bitc/internal/types"
)

// icache is one dispatch site's monomorphic cache.
//
// Field sites key on the struct's *types.StructInfo identity — every object
// of that declared shape shares the cache, so a loop walking a vector of
// nodes stays monomorphic. The cached field index was bounds-checked at fill
// time and a shape's field count never changes, so a hit needs no bounds
// check; region liveness and transaction state are re-checked on every hit
// because they are per-object and per-thread, not per-shape.
//
// Vector sites key on the *Object identity of the last-seen vector. The
// cache is only filled for heap vectors (Region < 0) and an object's region
// never changes, so a hit can skip the liveness check entirely; the element
// count is fixed at allocation, so the remembered bound stays valid. The
// index is still range-checked against that bound (it is data, not shape).
type icache struct {
	shape *types.StructInfo // field sites: last-seen struct declaration
	obj   *Object           // vector sites: last-seen vector
	bound int64             // vector sites: len(obj.Elems) at fill time
}

func hGetField(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	if val := fr.regs[d.a]; val.K == KRef {
		o := val.R
		if o.SDecl != nil && o.SDecl == d.ic.shape && o.Region < 0 && t.txn == nil {
			v.Stats.ICHits++
			v.Stats.FieldReads++
			fr.regs[d.dst] = o.Elems[d.imm]
			return nil
		}
	}
	return fieldMiss(v, t, fr, d)
}

func hSetField(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	if val := fr.regs[d.a]; val.K == KRef {
		o := val.R
		if o.SDecl != nil && o.SDecl == d.ic.shape && o.Region < 0 && t.txn == nil {
			v.Stats.ICHits++
			v.Stats.FieldWrites++
			o.Elems[d.imm] = fr.regs[d.b]
			o.Version++ // STM conflict detection sees cached writes too
			return nil
		}
	}
	return fieldMiss(v, t, fr, d)
}

// fieldMiss runs a field access through the slow path and, on success,
// records the object's shape. Region-allocated objects are cacheable for
// field sites — the fast path re-checks liveness — but transactional
// accesses are not: the fill would memoize a read that bypasses the
// read/write buffers.
func fieldMiss(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	v.Stats.ICMisses++
	if err := v.exec(t, fr, d.src); err != nil {
		return err
	}
	if val := fr.regs[d.a]; t.txn == nil && val.K == KRef {
		d.ic.shape = val.R.SDecl
	}
	return nil
}

// hVecRef and hVecSet serve both checked and elided sites. At a site the
// static prover discharged (Options.BoundsElide), decode sets d.elide and
// the hit skips the bounds compare: the index is in range on every
// execution that reaches it. The identity and transaction guards, the
// counters and the single index load (the box-read accounting must match
// the slow path's) are the same either way, so elision is invisible to
// everything but the cycle count.
func hVecRef(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	ic := d.ic
	if val := fr.regs[d.a]; val.K == KRef && val.R == ic.obj && t.txn == nil {
		// Once the identity matches, this path is definitive: out of
		// bounds traps here with the slow path's message.
		i := v.loadInt(fr.regs[d.b])
		if !d.elide && uint64(i) >= uint64(ic.bound) {
			v.Stats.ICMisses++
			return trapf("vector index %d out of range 0..%d", i, ic.bound-1)
		}
		v.Stats.ICHits++
		v.Stats.VecOps++
		fr.regs[d.dst] = val.R.Elems[i]
		return nil
	}
	return vecMiss(v, t, fr, d)
}

func hVecSet(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	ic := d.ic
	if val := fr.regs[d.a]; val.K == KRef && val.R == ic.obj && t.txn == nil {
		i := v.loadInt(fr.regs[d.b])
		if !d.elide && uint64(i) >= uint64(ic.bound) {
			v.Stats.ICMisses++
			return trapf("vector index %d out of range 0..%d", i, ic.bound-1)
		}
		v.Stats.ICHits++
		v.Stats.VecOps++
		val.R.Elems[i] = fr.regs[d.args[0]]
		val.R.Version++
		return nil
	}
	return vecMiss(v, t, fr, d)
}

// vecMiss runs a vector access through the slow path and, on success,
// records the vector's identity and bound. Only heap vectors are cached:
// identity then implies liveness forever, so the hot path carries no region
// check at all. Transactional accesses are never cached.
func vecMiss(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	v.Stats.ICMisses++
	if err := v.exec(t, fr, d.src); err != nil {
		return err
	}
	if val := fr.regs[d.a]; t.txn == nil && val.K == KRef && val.R.Region < 0 {
		d.ic.obj = val.R
		d.ic.bound = int64(len(val.R.Elems))
	}
	return nil
}
