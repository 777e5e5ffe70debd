// Package interval implements the arbitrary-precision interval-arithmetic
// domain under the relational range engine in internal/analysis (bounds.go),
// the one engine behind bounds elision, the truncation checker and the FFI
// provenance check. An interval is a closed range [Lo, Hi] of big integers;
// a nil bound means the side is unbounded (−∞ or +∞). The package supplies
// the lattice operations a dataflow problem needs — hull (meet for a
// may-range analysis), intersection (branch refinement), widening and
// narrowing (loop convergence) — plus the shift/add arithmetic transfer
// functions use.
package interval

import (
	"fmt"
	"math/big"
)

// I is a closed interval [Lo, Hi]. A nil Lo means −∞, a nil Hi means +∞.
// Values are treated as immutable: operations return fresh intervals and
// never mutate their arguments' big.Ints.
type I struct {
	Lo, Hi *big.Int
}

// New returns the interval [lo, hi]; either bound may be nil (unbounded).
func New(lo, hi *big.Int) *I { return &I{Lo: lo, Hi: hi} }

// Point returns the singleton interval [v, v].
func Point(v *big.Int) *I { return &I{Lo: v, Hi: v} }

// Of returns the interval [lo, hi] from int64 bounds.
func Of(lo, hi int64) *I { return &I{Lo: big.NewInt(lo), Hi: big.NewInt(hi)} }

// Top returns the unbounded interval (−∞, +∞).
func Top() *I { return &I{} }

// Signed returns the representable range of a signed two's-complement
// integer of the given bit width: [−2^(bits−1), 2^(bits−1)−1].
func Signed(bits int) *I {
	one := big.NewInt(1)
	hi := new(big.Int).Lsh(one, uint(bits-1))
	lo := new(big.Int).Neg(hi)
	return &I{Lo: lo, Hi: new(big.Int).Sub(hi, one)}
}

// Unsigned returns the representable range of an unsigned integer of the
// given bit width: [0, 2^bits−1].
func Unsigned(bits int) *I {
	one := big.NewInt(1)
	hi := new(big.Int).Lsh(one, uint(bits))
	return &I{Lo: big.NewInt(0), Hi: new(big.Int).Sub(hi, one)}
}

// Empty reports whether the interval is contradictory (both bounds finite
// and Lo > Hi). Empty intervals arise from infeasible branch refinements.
func (r *I) Empty() bool {
	return r.Lo != nil && r.Hi != nil && r.Lo.Cmp(r.Hi) > 0
}

// Bounded reports whether both sides are finite.
func (r *I) Bounded() bool { return r.Lo != nil && r.Hi != nil }

// Nonneg reports whether every value in the interval is ≥ 0.
func (r *I) Nonneg() bool { return r.Lo != nil && r.Lo.Sign() >= 0 }

// Contains reports whether v lies within the interval.
func (r *I) Contains(v *big.Int) bool {
	if r.Lo != nil && v.Cmp(r.Lo) < 0 {
		return false
	}
	return r.Hi == nil || v.Cmp(r.Hi) <= 0
}

// Within reports whether r is entirely contained in outer. An unbounded
// side of r fits only inside an unbounded side of outer.
func (r *I) Within(outer *I) bool {
	if outer.Lo != nil && (r.Lo == nil || r.Lo.Cmp(outer.Lo) < 0) {
		return false
	}
	if outer.Hi != nil && (r.Hi == nil || r.Hi.Cmp(outer.Hi) > 0) {
		return false
	}
	return true
}

// Eq reports structural equality of bounds (nil matches only nil).
func (r *I) Eq(o *I) bool {
	return cmpEq(r.Lo, o.Lo) && cmpEq(r.Hi, o.Hi)
}

func cmpEq(a, b *big.Int) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Cmp(b) == 0
}

// String renders the interval as "[lo, hi]" with -inf/+inf for unbounded
// sides.
func (r *I) String() string {
	lo, hi := "-inf", "+inf"
	if r.Lo != nil {
		lo = r.Lo.String()
	}
	if r.Hi != nil {
		hi = r.Hi.String()
	}
	return fmt.Sprintf("[%s, %s]", lo, hi)
}

// Hull returns the smallest interval containing both a and b — the meet of
// a may-range analysis joining two control-flow paths.
func Hull(a, b *I) *I {
	out := &I{}
	if a.Lo != nil && b.Lo != nil {
		out.Lo = minInt(a.Lo, b.Lo)
	}
	if a.Hi != nil && b.Hi != nil {
		out.Hi = maxInt(a.Hi, b.Hi)
	}
	return out
}

// Intersect clamps a to b: the branch-refinement operation. The result may
// be Empty, which a refiner interprets as an infeasible edge.
func Intersect(a, b *I) *I {
	out := &I{Lo: a.Lo, Hi: a.Hi}
	if b.Lo != nil && (out.Lo == nil || b.Lo.Cmp(out.Lo) > 0) {
		out.Lo = b.Lo
	}
	if b.Hi != nil && (out.Hi == nil || b.Hi.Cmp(out.Hi) < 0) {
		out.Hi = b.Hi
	}
	return out
}

// Add returns the interval sum [a.Lo+b.Lo, a.Hi+b.Hi]; an unbounded side
// of either operand makes the corresponding result side unbounded.
func Add(a, b *I) *I {
	return &I{Lo: AddBound(a.Lo, b.Lo), Hi: AddBound(a.Hi, b.Hi)}
}

// Sub returns the interval difference [a.Lo−b.Hi, a.Hi−b.Lo].
func Sub(a, b *I) *I {
	return &I{Lo: SubBound(a.Lo, b.Hi), Hi: SubBound(a.Hi, b.Lo)}
}

// Shift translates the interval by a constant k.
func Shift(a *I, k *big.Int) *I {
	return &I{Lo: AddBound(a.Lo, k), Hi: AddBound(a.Hi, k)}
}

// Widen accelerates a growing chain at a loop head: any bound of next that
// moved past the corresponding bound of prev jumps straight to unbounded,
// so the ascending fixpoint iteration terminates in a bounded number of
// steps per variable. Stable bounds are kept from prev.
func Widen(prev, next *I) *I {
	out := &I{Lo: prev.Lo, Hi: prev.Hi}
	if prev.Lo != nil && (next.Lo == nil || next.Lo.Cmp(prev.Lo) < 0) {
		out.Lo = nil
	}
	if prev.Hi != nil && (next.Hi == nil || next.Hi.Cmp(prev.Hi) > 0) {
		out.Hi = nil
	}
	return out
}

// Narrow refines a widened interval during the descending phase: each
// unbounded side of prev adopts next's bound, while finite bounds of prev
// are kept (narrowing never undoes information the ascending phase proved
// stable, which bounds the descent).
func Narrow(prev, next *I) *I {
	out := &I{Lo: prev.Lo, Hi: prev.Hi}
	if out.Lo == nil {
		out.Lo = next.Lo
	}
	if out.Hi == nil {
		out.Hi = next.Hi
	}
	return out
}

// AddBound adds two bound values, propagating nil (unbounded).
func AddBound(x, y *big.Int) *big.Int {
	if x == nil || y == nil {
		return nil
	}
	return new(big.Int).Add(x, y)
}

// SubBound subtracts two bound values, propagating nil (unbounded).
func SubBound(x, y *big.Int) *big.Int {
	if x == nil || y == nil {
		return nil
	}
	return new(big.Int).Sub(x, y)
}

func minInt(a, b *big.Int) *big.Int {
	if a.Cmp(b) <= 0 {
		return a
	}
	return b
}

func maxInt(a, b *big.Int) *big.Int {
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}
