package prover

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func x() Term        { return VarTerm("x") }
func y() Term        { return VarTerm("y") }
func n(v int64) Term { return NewTerm(v) }

func mustProve(t *testing.T, f Formula) {
	t.Helper()
	res := Prove(f)
	if !res.Proved {
		t.Fatalf("should prove %s; counterexample %v", String(f), res.Counterexample)
	}
}

func mustRefute(t *testing.T, f Formula) {
	t.Helper()
	res := Prove(f)
	if res.Proved {
		t.Fatalf("should NOT prove %s", String(f))
	}
}

func TestCounterexampleReported(t *testing.T) {
	res := Prove(Le(x(), n(5)))
	if res.Proved || len(res.Counterexample) == 0 {
		t.Fatalf("proved=%v cex=%v", res.Proved, res.Counterexample)
	}
}

func TestTautologies(t *testing.T) {
	mustProve(t, FTrue{})
	mustProve(t, Or(FBoolVar{"p"}, Not(FBoolVar{"p"})))
	mustProve(t, Implies(FBoolVar{"p"}, FBoolVar{"p"}))
	mustProve(t, Implies(And(FBoolVar{"p"}, FBoolVar{"q"}), FBoolVar{"q"}))
}

func TestNonTautologies(t *testing.T) {
	mustRefute(t, FBoolVar{"p"})
	mustRefute(t, FFalse{})
	mustRefute(t, And(FBoolVar{"p"}, Not(FBoolVar{"p"})).(Formula))
}

func TestLinearArithmeticValidities(t *testing.T) {
	// x ≤ 5 ∧ x ≥ 5 → x = 5
	mustProve(t, Implies(And(Le(x(), n(5)), Ge(x(), n(5))), Eq(x(), n(5))))
	// x < y → x ≤ y
	mustProve(t, Implies(Lt(x(), y()), Le(x(), y())))
	// x ≥ 0 → x + 1 ≥ 1
	mustProve(t, Implies(Ge(x(), n(0)), Ge(x().Add(n(1)), n(1))))
	// transitivity: x ≤ y ∧ y ≤ z → x ≤ z
	z := VarTerm("z")
	mustProve(t, Implies(And(Le(x(), y()), Le(y(), z)), Le(x(), z)))
	// x > 0 ∧ y > 0 → x + y > 1 (integers!)
	mustProve(t, Implies(And(Gt(x(), n(0)), Gt(y(), n(0))), Gt(x().Add(y()), n(1))))
}

func TestIntegerTightness(t *testing.T) {
	// Over the rationals 2x = 1 is satisfiable; over ℤ it is not.
	mustProve(t, Ne(x().Scale(2), n(1)))
	// 0 < x < 1 has no integer solution.
	mustProve(t, Not(And(Gt(x(), n(0)), Lt(x(), n(1)))))
	// 3x = 6 → x = 2 (GCD substitution does not lose solutions).
	mustProve(t, Implies(Eq(x().Scale(3), n(6)), Eq(x(), n(2))))
}

func TestInvalidArithmetic(t *testing.T) {
	mustRefute(t, Le(x(), n(5)))
	mustRefute(t, Implies(Le(x(), y()), Lt(x(), y())))
	mustRefute(t, Eq(x(), y()))
	// x ≤ 5 → x ≤ 4 is false (x=5).
	mustRefute(t, Implies(Le(x(), n(5)), Le(x(), n(4))))
}

func TestDisequalities(t *testing.T) {
	// x ≠ 0 ∧ x ≥ 0 → x ≥ 1
	mustProve(t, Implies(And(Ne(x(), n(0)), Ge(x(), n(0))), Ge(x(), n(1))))
	// x ≠ 0 alone doesn't bound x.
	mustRefute(t, Implies(Ne(x(), n(0)), Ge(x(), n(1))))
	// Pigeonhole on a 2-range: 0 ≤ x ≤ 1 ∧ x ≠ 0 ∧ x ≠ 1 is UNSAT.
	mustProve(t, Not(And(Ge(x(), n(0)), Le(x(), n(1)), Ne(x(), n(0)), Ne(x(), n(1)))))
}

func TestBoundsCheckVCs(t *testing.T) {
	// The archetypal systems VC: 0 ≤ i ∧ i < len ∧ len ≤ cap → i < cap.
	i, ln, cap := VarTerm("i"), VarTerm("len"), VarTerm("cap")
	mustProve(t, Implies(
		And(Ge(i, n(0)), Lt(i, ln), Le(ln, cap)),
		Lt(i, cap)))
	// Off-by-one is caught: i ≤ len does NOT give i < len.
	mustRefute(t, Implies(And(Ge(i, n(0)), Le(i, ln)), Lt(i, ln)))
}

func TestOverflowStyleVC(t *testing.T) {
	// x ≤ 127 ∧ y ≤ 127 ∧ x,y ≥ 0 → x + y ≤ 254
	mustProve(t, Implies(
		And(Ge(x(), n(0)), Le(x(), n(127)), Ge(y(), n(0)), Le(y(), n(127))),
		Le(x().Add(y()), n(254))))
	mustRefute(t, Implies(
		And(Ge(x(), n(0)), Le(x(), n(127)), Ge(y(), n(0)), Le(y(), n(127))),
		Le(x().Add(y()), n(253))))
}

func TestMixedBoolArith(t *testing.T) {
	p := FBoolVar{"p"}
	// (p → x ≥ 1) ∧ (¬p → x ≥ 2) → x ≥ 1
	mustProve(t, Implies(
		And(Implies(p, Ge(x(), n(1))), Implies(Not(p), Ge(x(), n(2)))),
		Ge(x(), n(1))))
}

func TestSatisfiableReportsModel(t *testing.T) {
	sat, model, _ := Satisfiable(And(Ge(x(), n(3)), Le(x(), n(10))))
	if !sat || len(model) == 0 {
		t.Fatalf("sat=%v model=%v", sat, model)
	}
	sat, _, _ = Satisfiable(And(Ge(x(), n(3)), Le(x(), n(2))))
	if sat {
		t.Fatal("3 ≤ x ≤ 2 reported satisfiable")
	}
}

func TestTermAlgebra(t *testing.T) {
	a := x().Scale(3).Add(n(4)).Sub(y())
	if a.Coeffs["x"] != 3 || a.Coeffs["y"] != -1 || a.Const != 4 {
		t.Fatalf("term = %+v", a)
	}
	if s := a.String(); s == "" {
		t.Error("empty term string")
	}
	z := x().Sub(x())
	if !z.IsConst() || z.Const != 0 {
		t.Errorf("x-x = %v", z)
	}
	if x().Scale(0).String() != "0" {
		t.Errorf("0*x = %s", x().Scale(0))
	}
}

func TestFormulaSimplifiers(t *testing.T) {
	if _, ok := And().(FTrue); !ok {
		t.Error("empty And")
	}
	if _, ok := Or().(FFalse); !ok {
		t.Error("empty Or")
	}
	if _, ok := And(FTrue{}, FFalse{}).(FFalse); !ok {
		t.Error("And with false")
	}
	if _, ok := Or(FFalse{}, FTrue{}).(FTrue); !ok {
		t.Error("Or with true")
	}
	if _, ok := Not(Not(FBoolVar{"p"})).(FBoolVar); !ok {
		t.Error("double negation")
	}
}

// Property: for random small integer constants a,b the prover agrees with
// direct evaluation of (x = a ∧ y = b) → comparisons.
func TestProverAgreesWithEvaluation(t *testing.T) {
	check := func(a8, b8 int8) bool {
		a, b := int64(a8), int64(b8)
		prem := And(Eq(x(), n(a)), Eq(y(), n(b)))
		cases := []struct {
			f    Formula
			want bool
		}{
			{Le(x(), y()), a <= b},
			{Lt(x(), y()), a < b},
			{Eq(x(), y()), a == b},
			{Ne(x(), y()), a != b},
			{Ge(x().Add(y()), n(0)), a+b >= 0},
		}
		for _, c := range cases {
			res := Prove(Implies(prem, c.f))
			if res.Proved != c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Prove(f) and Satisfiable(¬f) are consistent.
func TestProveSatDuality(t *testing.T) {
	formulas := []Formula{
		Le(x(), n(3)),
		Implies(Le(x(), n(3)), Le(x(), n(5))),
		And(FBoolVar{"p"}, Le(x(), n(0))),
		Or(Ge(x(), n(0)), Lt(x(), n(0))),
	}
	for _, f := range formulas {
		res := Prove(f)
		sat, _, _ := Satisfiable(Not(f))
		if res.Proved == sat {
			t.Errorf("%s: proved=%v but ¬f sat=%v", String(f), res.Proved, sat)
		}
	}
}

func TestDeepNesting(t *testing.T) {
	// Build a chain x0 ≤ x1 ≤ ... ≤ x15 → x0 ≤ x15.
	var prem []Formula
	for i := 0; i < 15; i++ {
		prem = append(prem, Le(VarTerm(vname(i)), VarTerm(vname(i+1))))
	}
	mustProve(t, Implies(And(prem...), Le(VarTerm(vname(0)), VarTerm(vname(15)))))
}

func vname(i int) string { return "v" + string(rune('a'+i)) }

// TestTermOverflowFlagged pins the overflow checks of Term arithmetic.
func TestTermOverflowFlagged(t *testing.T) {
	cases := []struct {
		name string
		term Term
		want bool
	}{
		{"add-const", n(math.MaxInt64).Add(n(1)), true},
		{"add-coeff", x().Scale(math.MaxInt64).Add(x()), true},
		{"scale", x().Scale(math.MinInt64).Scale(-1), true},
		{"scale-const", n(1 << 62).Scale(2), true},
		{"sub-min", x().Sub(n(math.MinInt64)), true},
		{"propagates", n(math.MaxInt64).Add(n(1)).Add(x()).Scale(0).Add(n(1).Add(n(math.MaxInt64))), true},
		{"scale-zero", n(math.MaxInt64).Add(n(1)).Scale(0), false},
		{"min-fits", n(math.MinInt64).Scale(1).Add(x().Scale(-(1 << 62)).Scale(2)), false},
		{"no-overflow", x().Add(n(math.MaxInt64)).Sub(n(math.MaxInt64)), false},
	}
	for _, c := range cases {
		if got := c.term.ovf; got != c.want {
			t.Errorf("%s: %s overflowed = %v, want %v", c.name, c.term, got, c.want)
		}
	}
}

// TestOverflowIsUnknownNotUnsat holds the decision procedure to int64
// soundness: a constraint whose arithmetic overflows (a 64-bit type bound
// is enough) decides as satisfiable, so Prove reports "not proved" rather
// than proving a false VC from a wrapped sum.
func TestOverflowIsUnknownNotUnsat(t *testing.T) {
	bounded := And(Le(x(), n(math.MaxInt64)), Ge(x(), n(-5)))
	if sat, _, _ := Satisfiable(bounded); !sat {
		t.Errorf("x <= MaxInt64 && x >= -5 decided unsat")
	}
	mustRefute(t, Implies(bounded, Le(x(), n(-100))))
	// normalizeLe's tightening of 2x + MinInt64 <= 0 (x <= 2^62).
	half := And(Le(x().Scale(2).Add(n(math.MinInt64)), n(0)), Ge(x(), n(0)))
	if sat, _, _ := Satisfiable(half); !sat {
		t.Errorf("2x + MinInt64 <= 0 && x >= 0 decided unsat")
	}
	// The disequality split's ±1: x in {MinInt64, -MaxInt64}, x != -MaxInt64.
	split := And(Ge(x(), n(math.MinInt64)), Le(x().Add(n(math.MaxInt64)), n(0)),
		Ne(x().Add(n(math.MaxInt64)), n(0)))
	if sat, _, _ := Satisfiable(split); !sat {
		t.Errorf("x = MinInt64 satisfies the split case but it decided unsat")
	}
	// Small-number VCs are untouched.
	mustProve(t, Implies(And(Le(x(), n(10)), Ge(x(), n(-5))), Le(x(), n(10))))
}

// TestCheckedArithmeticMatchesBig compares addOvf and mulOvf with exact
// big-integer arithmetic, edge values included.
func TestCheckedArithmeticMatchesBig(t *testing.T) {
	check := func(a, b int64) bool {
		fits := func(z *big.Int) bool { return z.IsInt64() }
		sum := new(big.Int).Add(big.NewInt(a), big.NewInt(b))
		prod := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
		s, so := addOvf(a, b)
		p, po := mulOvf(a, b)
		return so == !fits(sum) && po == !fits(prod) &&
			(so || s == sum.Int64()) && (po || p == prod.Int64())
	}
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -(1 << 32), -2, -1, 0, 1, 2, 1 << 31, 1 << 32, math.MaxInt64 - 1, math.MaxInt64}
	for _, a := range edges {
		for _, b := range edges {
			if !check(a, b) {
				t.Errorf("checked arithmetic disagrees with math/big on %d, %d", a, b)
			}
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
