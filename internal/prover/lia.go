package prover

// Linear integer arithmetic decision procedure: Fourier–Motzkin variable
// elimination with GCD-based integer tightening. It decides satisfiability
// of a conjunction of atoms of the form  T ≤ 0,  T = 0, and  T ≠ 0
// (disequalities are handled by case-splitting into < and >).
//
// FM is complete for rationals; the GCD normalisation plus the ceiling
// division used when tightening make it refutationally sound — and in
// practice complete — for the bounds/index/overflow conditions systems
// contracts produce.

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// normalize divides the constraint by the GCD of its coefficients,
// tightening the constant (valid for ≤ over the integers). Returns false if
// the constraint is trivially unsatisfiable.
func normalizeLe(t Term) (Term, bool) {
	if t.IsConst() {
		return t, t.Const <= 0
	}
	var g int64
	for _, c := range t.Coeffs {
		g = gcd64(g, c)
	}
	if g > 1 {
		nt := Term{Coeffs: map[string]int64{}}
		for n, c := range t.Coeffs {
			nt.Coeffs[n] = c / g
		}
		// Σ ci·xi + k ≤ 0 with all ci divisible by g means
		// Σ (ci/g)·xi ≤ floor(-k/g), i.e. Σ (ci/g)·xi + ceil(k/g) ≤ 0.
		// ceil(k/g) is computed directly: negating k could overflow.
		nt.Const = ceilDiv(t.Const, g)
		return nt, true
	}
	return t, true
}

// ceilDiv returns ⌈a/b⌉ for b > 0.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a > 0 {
		q++
	}
	return q
}

// overflowed reports whether any term overflowed int64 while it was built.
func overflowed(ts []Term) bool {
	for _, t := range ts {
		if t.ovf {
			return true
		}
	}
	return false
}

// eqUnsatByGCD reports whether Σ ci·xi + k = 0 has no integer solution
// because gcd(ci) does not divide k.
func eqUnsatByGCD(t Term) bool {
	if t.IsConst() {
		return t.Const != 0
	}
	var g int64
	for _, c := range t.Coeffs {
		g = gcd64(g, c)
	}
	return g != 0 && t.Const%g != 0
}

// liaSat decides a conjunction: les are T ≤ 0, eqs are T = 0,
// neqs are T ≠ 0. Work is bounded by maxConstraints to keep FM's worst case
// in check; hitting the bound returns "unknown = satisfiable" (sound for the
// prover's use, which only trusts UNSAT results). So does a term whose
// int64 arithmetic overflowed, whether in the input or during elimination.
func liaSat(les, eqs, neqs []Term) bool {
	// Substitute out equalities where a variable has coefficient ±1.
	les = append([]Term{}, les...)
	eqs = append([]Term{}, eqs...)
	neqs = append([]Term{}, neqs...)

	for i := 0; i < len(eqs); i++ {
		t := eqs[i]
		if t.ovf {
			return true
		}
		if eqUnsatByGCD(t) {
			return false
		}
		var pivot string
		for n, c := range t.Coeffs {
			if c == 1 || c == -1 {
				pivot = n
				break
			}
		}
		if pivot == "" {
			// Keep as two inequalities.
			les = append(les, t, t.Scale(-1))
			continue
		}
		// pivot = expr; substitute everywhere.
		c := t.Coeffs[pivot]
		rest := t.clone()
		delete(rest.Coeffs, pivot)
		// c·p + rest = 0  =>  p = -rest/c ; c = ±1 so p = -c·rest... careful:
		// p = (-rest)·(1/c) = rest·(-c) since c² = 1.
		sub := rest.Scale(-c)
		subst := func(u Term) Term {
			k, ok := u.Coeffs[pivot]
			if !ok {
				return u
			}
			r := u.clone()
			delete(r.Coeffs, pivot)
			return r.Add(sub.Scale(k))
		}
		for j := range les {
			les[j] = subst(les[j])
		}
		for j := range neqs {
			neqs[j] = subst(neqs[j])
		}
		for j := i + 1; j < len(eqs); j++ {
			eqs[j] = subst(eqs[j])
		}
	}

	// Case-split disequalities: T ≠ 0 becomes T ≤ -1 ∨ -T ≤ -1.
	var split func(les []Term, neqs []Term) bool
	split = func(les []Term, neqs []Term) bool {
		if len(neqs) == 0 {
			return fourierMotzkin(les)
		}
		t := neqs[0]
		rest := neqs[1:]
		lo := t.addConst(1) // t + 1 ≤ 0  ⇔  t ≤ -1
		if split(append(append([]Term{}, les...), lo), rest) {
			return true
		}
		hi := t.Scale(-1).addConst(1) // -t ≤ -1  ⇔  t ≥ 1
		return split(append(append([]Term{}, les...), hi), rest)
	}
	return split(les, neqs)
}

const maxConstraints = 4000

// fourierMotzkin decides Σ ≤-constraints over the integers (rational
// elimination + GCD tightening).
func fourierMotzkin(cons []Term) bool {
	if overflowed(cons) {
		return true // unknown: treat as satisfiable
	}
	work := append([]Term{}, cons...)
	for {
		// Normalise; bail out on trivial falsity.
		vars := map[string]bool{}
		out := work[:0]
		for _, t := range work {
			nt, ok := normalizeLe(t)
			if !ok {
				return false
			}
			if nt.IsConst() {
				continue // trivially true
			}
			for n := range nt.Coeffs {
				vars[n] = true
			}
			out = append(out, nt)
		}
		work = out
		if len(work) == 0 {
			return true
		}
		if len(work) > maxConstraints {
			return true // give up: treat as satisfiable (sound for proving)
		}
		// Pick the variable with the fewest pos×neg products.
		var best string
		bestCost := 1 << 60
		for v := range vars {
			pos, neg := 0, 0
			for _, t := range work {
				c := t.Coeffs[v]
				if c > 0 {
					pos++
				} else if c < 0 {
					neg++
				}
			}
			cost := pos * neg
			if cost < bestCost {
				bestCost = cost
				best = v
			}
		}
		v := best
		var pos, neg, rest []Term
		for _, t := range work {
			c := t.Coeffs[v]
			switch {
			case c > 0:
				pos = append(pos, t)
			case c < 0:
				neg = append(neg, t)
			default:
				rest = append(rest, t)
			}
		}
		// Combine each pos with each neg: from a·v ≤ A and -b·v ≤ B
		// (a,b > 0) derive b·A + a·B ≥ ... i.e. b·(pos w/o v) + a·(neg w/o v) ≤ 0.
		for _, p := range pos {
			a := p.Coeffs[v]
			pRest := p.clone()
			delete(pRest.Coeffs, v)
			for _, n := range neg {
				b := -n.Coeffs[v]
				nRest := n.clone()
				delete(nRest.Coeffs, v)
				comb := pRest.Scale(b).Add(nRest.Scale(a))
				if comb.ovf {
					return true // unknown: treat as satisfiable
				}
				if comb.IsConst() {
					if comb.Const > 0 {
						return false
					}
					continue
				}
				rest = append(rest, comb)
			}
		}
		work = rest
	}
}
