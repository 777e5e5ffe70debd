// Package prover implements the automated reasoning engine behind bitc's
// constraint checking (the paper's challenge 1: "integrate existing concepts
// with advances in prover technology"). It is a small, from-scratch DPLL(T)
// solver: a CNF SAT core cooperating with a Fourier–Motzkin decision
// procedure for linear integer arithmetic.
package prover

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Term is a linear integer term: Const + Σ Coeffs[v]·v.
type Term struct {
	Const  int64
	Coeffs map[string]int64
	// ovf marks a term some int64 operation overflowed while building: its
	// numbers no longer denote the mathematical term, so a constraint set
	// holding it is decided as satisfiable (unknown), never as unsat.
	ovf bool
}

// NewTerm builds a constant term.
func NewTerm(c int64) Term {
	return Term{Const: c, Coeffs: map[string]int64{}}
}

// VarTerm builds the term 1·name.
func VarTerm(name string) Term {
	return Term{Coeffs: map[string]int64{name: 1}}
}

// clone copies t.
func (t Term) clone() Term {
	c := Term{Const: t.Const, Coeffs: make(map[string]int64, len(t.Coeffs)), ovf: t.ovf}
	for k, v := range t.Coeffs {
		c.Coeffs[k] = v
	}
	return c
}

// addOvf returns a+b and whether the sum overflowed int64.
func addOvf(a, b int64) (int64, bool) {
	s := a + b
	return s, (a >= 0) == (b >= 0) && (s >= 0) != (a >= 0)
}

// mulOvf returns a·b and whether the product overflowed int64. Of the
// magnitudes ≥ 2^63, only a negative product of exactly 2^63 fits.
func mulOvf(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(abs64(a), abs64(b))
	neg := (a < 0) != (b < 0)
	return a * b, hi != 0 || lo > math.MaxInt64 && !(neg && lo == 1<<63)
}

// abs64 returns |a| as an unsigned magnitude (|MinInt64| = 2^63 included).
func abs64(a int64) uint64 {
	if a < 0 {
		return uint64(-a)
	}
	return uint64(a)
}

// addConst returns t + k.
func (t Term) addConst(k int64) Term {
	r := t.clone()
	var o bool
	r.Const, o = addOvf(r.Const, k)
	r.ovf = r.ovf || o
	return r
}

// Add returns t + u.
func (t Term) Add(u Term) Term {
	r := t.addConst(u.Const)
	r.ovf = r.ovf || u.ovf
	for k, v := range u.Coeffs {
		c, o := addOvf(r.Coeffs[k], v)
		r.ovf = r.ovf || o
		if c == 0 {
			delete(r.Coeffs, k)
		} else {
			r.Coeffs[k] = c
		}
	}
	return r
}

// Sub returns t - u.
func (t Term) Sub(u Term) Term { return t.Add(u.Scale(-1)) }

// Scale returns k·t.
func (t Term) Scale(k int64) Term {
	if k == 0 {
		return NewTerm(0)
	}
	r := Term{Coeffs: make(map[string]int64, len(t.Coeffs)), ovf: t.ovf}
	var o bool
	r.Const, o = mulOvf(t.Const, k)
	r.ovf = r.ovf || o
	for name, c := range t.Coeffs {
		r.Coeffs[name], o = mulOvf(c, k)
		r.ovf = r.ovf || o
	}
	return r
}

// IsConst reports whether t has no variables.
func (t Term) IsConst() bool { return len(t.Coeffs) == 0 }

// String renders the term.
func (t Term) String() string {
	var names []string
	for n := range t.Coeffs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	first := true
	for _, n := range names {
		c := t.Coeffs[n]
		if !first {
			b.WriteString(" + ")
		}
		first = false
		if c == 1 {
			b.WriteString(n)
		} else {
			fmt.Fprintf(&b, "%d*%s", c, n)
		}
	}
	if t.Const != 0 || first {
		if !first {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%d", t.Const)
	}
	if t.ovf {
		b.WriteString(" + <overflow>")
	}
	return b.String()
}

// Formula is a boolean combination of linear atoms and boolean variables.
type Formula interface {
	fString() string
}

// FTrue / FFalse are constants.
type FTrue struct{}

// FFalse is the false constant.
type FFalse struct{}

// FBoolVar is an uninterpreted boolean variable.
type FBoolVar struct{ Name string }

// AtomOp is the relation of a linear atom.
type AtomOp int

// Atom relations. Only ≤ and = are primitive; the constructors below
// normalise the rest.
const (
	OpLe AtomOp = iota // Term ≤ 0
	OpEq               // Term = 0
)

// FAtom is a linear-arithmetic atom: T ≤ 0 or T = 0.
type FAtom struct {
	Op AtomOp
	T  Term
}

// FNot negates.
type FNot struct{ F Formula }

// FAnd conjoins.
type FAnd struct{ Fs []Formula }

// FOr disjoins.
type FOr struct{ Fs []Formula }

func (FTrue) fString() string  { return "true" }
func (FFalse) fString() string { return "false" }
func (v FBoolVar) fString() string {
	return v.Name
}
func (a FAtom) fString() string {
	if a.Op == OpEq {
		return "(" + a.T.String() + " = 0)"
	}
	return "(" + a.T.String() + " <= 0)"
}
func (n FNot) fString() string { return "(not " + n.F.fString() + ")" }
func (a FAnd) fString() string {
	parts := make([]string, len(a.Fs))
	for i, f := range a.Fs {
		parts[i] = f.fString()
	}
	return "(and " + strings.Join(parts, " ") + ")"
}
func (o FOr) fString() string {
	parts := make([]string, len(o.Fs))
	for i, f := range o.Fs {
		parts[i] = f.fString()
	}
	return "(or " + strings.Join(parts, " ") + ")"
}

// String renders any formula.
func String(f Formula) string { return f.fString() }

// Convenience constructors -------------------------------------------------

// Le builds a ≤ b.
func Le(a, b Term) Formula { return FAtom{Op: OpLe, T: a.Sub(b)} }

// Lt builds a < b, i.e. a ≤ b-1 over the integers.
func Lt(a, b Term) Formula { return FAtom{Op: OpLe, T: a.Sub(b).Add(NewTerm(1))} }

// Ge builds a ≥ b.
func Ge(a, b Term) Formula { return Le(b, a) }

// Gt builds a > b.
func Gt(a, b Term) Formula { return Lt(b, a) }

// Eq builds a = b.
func Eq(a, b Term) Formula { return FAtom{Op: OpEq, T: a.Sub(b)} }

// Ne builds a ≠ b.
func Ne(a, b Term) Formula { return Not(Eq(a, b)) }

// Not negates (with basic simplification).
func Not(f Formula) Formula {
	switch f := f.(type) {
	case FTrue:
		return FFalse{}
	case FFalse:
		return FTrue{}
	case FNot:
		return f.F
	default:
		return FNot{F: f}
	}
}

// And conjoins.
func And(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch f := f.(type) {
		case FTrue:
		case FFalse:
			return FFalse{}
		case FAnd:
			out = append(out, f.Fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return FTrue{}
	case 1:
		return out[0]
	}
	return FAnd{Fs: out}
}

// Or disjoins.
func Or(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch f := f.(type) {
		case FFalse:
		case FTrue:
			return FTrue{}
		case FOr:
			out = append(out, f.Fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return FFalse{}
	case 1:
		return out[0]
	}
	return FOr{Fs: out}
}

// Implies builds a → b.
func Implies(a, b Formula) Formula { return Or(Not(a), b) }
