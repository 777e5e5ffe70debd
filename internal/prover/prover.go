package prover

import (
	"fmt"
	"time"
)

// Result reports a proof attempt.
type Result struct {
	Proved   bool
	Duration time.Duration
	// Counterexample holds the theory literals of a satisfying assignment of
	// the negation when the proof fails — the facts a failing execution
	// would make true.
	Counterexample []string
	// Iterations counts DPLL(T) refinement rounds.
	Iterations int
}

// Prove decides validity of f (over integer variables and boolean
// variables): it is proved iff ¬f is unsatisfiable.
func Prove(f Formula) Result {
	start := time.Now()
	sat, model, iters := Satisfiable(Not(f))
	return Result{
		Proved:         !sat,
		Duration:       time.Since(start),
		Counterexample: model,
		Iterations:     iters,
	}
}

// Satisfiable decides satisfiability of f via lazy DPLL(T): the boolean
// skeleton goes to the SAT core; each propositionally satisfying assignment
// is checked against the linear-integer theory, adding blocking clauses
// until agreement or propositional exhaustion.
func Satisfiable(f Formula) (bool, []string, int) {
	enc := newEncoder()
	root := enc.encode(f)
	enc.s.addClause(clause{root})

	iterations := 0
	for {
		iterations++
		if iterations > 10000 {
			return true, []string{"(search limit reached)"}, iterations
		}
		assign := enc.s.solve()
		if assign == nil {
			return false, nil, iterations
		}
		// Gather asserted theory literals.
		var les, eqs, neqs []Term
		var blocking clause
		var desc []string
		for _, at := range enc.atoms {
			v, a := at.v, at.a
			if assign[v] {
				blocking = append(blocking, -v)
				if a.Op == OpLe {
					les = append(les, a.T)
					desc = append(desc, a.fString())
				} else {
					eqs = append(eqs, a.T)
					desc = append(desc, a.fString())
				}
			} else {
				blocking = append(blocking, v)
				if a.Op == OpLe {
					// ¬(T ≤ 0) ⇔ T ≥ 1 ⇔ -T + 1 ≤ 0
					neg := a.T.Scale(-1).addConst(1)
					les = append(les, neg)
					desc = append(desc, "(not "+a.fString()+")")
				} else {
					neqs = append(neqs, a.T)
					desc = append(desc, "(not "+a.fString()+")")
				}
			}
		}
		if liaSat(les, eqs, neqs) {
			// Theory agrees: satisfiable. Include boolean variables in the
			// model description.
			for _, b := range enc.bools {
				if assign[b.v] {
					desc = append(desc, b.name)
				} else {
					desc = append(desc, "(not "+b.name+")")
				}
			}
			return true, desc, iterations
		}
		if len(blocking) == 0 {
			return false, nil, iterations
		}
		enc.s.addClause(blocking)
	}
}

// ---------------------------------------------------------------------------
// Tseitin encoding
// ---------------------------------------------------------------------------

// encoder maps a formula's theory atoms and boolean variables to SAT
// variables. The maps find an existing variable; atoms and bools list them
// in variable-number order, the order Satisfiable reads a model in, so the
// blocking clauses, the theory query and the counterexample are the same
// from run to run.
type encoder struct {
	s       *satSolver
	atomVar map[string]int
	atoms   []encAtom
	boolVar map[string]int
	bools   []encBool
	trueLit int
}

type encAtom struct {
	v int
	a FAtom
}

type encBool struct {
	v    int
	name string
}

func newEncoder() *encoder {
	e := &encoder{
		s:       &satSolver{},
		atomVar: map[string]int{},
		boolVar: map[string]int{},
	}
	e.trueLit = e.fresh()
	e.s.addClause(clause{e.trueLit})
	return e
}

func (e *encoder) fresh() int {
	e.s.numVars++
	return e.s.numVars
}

// encode returns a literal equisatisfiable with f.
func (e *encoder) encode(f Formula) int {
	switch f := f.(type) {
	case FTrue:
		return e.trueLit
	case FFalse:
		return -e.trueLit
	case FBoolVar:
		v, ok := e.boolVar[f.Name]
		if !ok {
			v = e.fresh()
			e.boolVar[f.Name] = v
			e.bools = append(e.bools, encBool{v, f.Name})
		}
		return v
	case FAtom:
		key := f.fString()
		v, ok := e.atomVar[key]
		if !ok {
			v = e.fresh()
			e.atomVar[key] = v
			e.atoms = append(e.atoms, encAtom{v, f})
		}
		return v
	case FNot:
		return -e.encode(f.F)
	case FAnd:
		out := e.fresh()
		lits := make([]int, len(f.Fs))
		for i, sub := range f.Fs {
			lits[i] = e.encode(sub)
			// out -> lit
			e.s.addClause(clause{-out, lits[i]})
		}
		// all lits -> out
		c := clause{out}
		for _, l := range lits {
			c = append(c, -l)
		}
		e.s.addClause(c)
		return out
	case FOr:
		out := e.fresh()
		lits := make([]int, len(f.Fs))
		c := clause{-out}
		for i, sub := range f.Fs {
			lits[i] = e.encode(sub)
			c = append(c, lits[i])
			// lit -> out
			e.s.addClause(clause{out, -lits[i]})
		}
		e.s.addClause(c)
		return out
	default:
		panic(fmt.Sprintf("prover: unknown formula %T", f))
	}
}
