package load

import "testing"

// TestDeterministicSchedule pins the reproducibility contract: two generators
// with equal configs emit byte-identical schedules.
func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Users: 10000, Shards: 4, Rate: 500, Skew: 0.3, Cross: 0.2, Seed: 42}
	g1, g2 := New(cfg), New(cfg)
	for tick := 0; tick < 5; tick++ {
		a, b := g1.Tick(tick), g2.Tick(tick)
		if len(a) != len(b) {
			t.Fatalf("tick %d: %d vs %d txns", tick, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("tick %d txn %d diverged: %+v vs %+v", tick, i, a[i], b[i])
			}
		}
	}
	if g1.Generated() != 5*500 {
		t.Fatalf("generated = %d, want %d", g1.Generated(), 5*500)
	}
}

// TestTxnShape checks the structural invariants of every generated transfer:
// valid distinct endpoints, positive amount, correct arrival stamp.
func TestTxnShape(t *testing.T) {
	cfg := Config{Users: 1000, Shards: 8, Rate: 2000, Skew: 0.5, Cross: 0.3, Seed: 7}
	g := New(cfg)
	for tick := 0; tick < 3; tick++ {
		for _, x := range g.Tick(tick) {
			if x.From == x.To {
				t.Fatalf("self-transfer: %+v", x)
			}
			if x.From < 0 || x.From >= cfg.Users || x.To < 0 || x.To >= cfg.Users {
				t.Fatalf("endpoint out of range: %+v", x)
			}
			if x.Amount <= 0 {
				t.Fatalf("non-positive amount: %+v", x)
			}
			if x.Arrival != tick {
				t.Fatalf("arrival = %d, want %d", x.Arrival, tick)
			}
		}
	}
}

// TestCrossFraction checks the cross-shard steering: the observed cross
// fraction tracks the configured one, and Cross=0 yields no cross traffic.
func TestCrossFraction(t *testing.T) {
	const n = 20000
	g := New(Config{Users: 100000, Shards: 8, Rate: n, Cross: 0.25, Seed: 3})
	cross := 0
	for _, x := range g.Tick(0) {
		if x.From%8 != x.To%8 {
			cross++
		}
	}
	frac := float64(cross) / n
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("cross fraction = %.3f, want ≈0.25", frac)
	}

	g0 := New(Config{Users: 100000, Shards: 8, Rate: n, Cross: 0, Seed: 3})
	for _, x := range g0.Tick(0) {
		if x.From%8 != x.To%8 {
			t.Fatalf("cross transfer with Cross=0: %+v", x)
		}
	}
}

// TestSkewConcentration checks hot-key skew: with Skew=0.9 the hot set
// receives the bulk of endpoint draws; with Skew=0 traffic is near-uniform.
func TestSkewConcentration(t *testing.T) {
	const n = 20000
	g := New(Config{Users: 100000, Shards: 4, Rate: n, Skew: 0.9, Seed: 9})
	hot := g.Hot()
	inHot := 0
	for _, x := range g.Tick(0) {
		if x.From < hot {
			inHot++
		}
	}
	frac := float64(inHot) / n
	if frac < 0.80 {
		t.Fatalf("hot-set fraction = %.3f under skew 0.9, want ≥0.80", frac)
	}

	gu := New(Config{Users: 100000, Shards: 4, Rate: n, Skew: 0, Seed: 9})
	inHot = 0
	for _, x := range gu.Tick(0) {
		if x.From < hot {
			inHot++
		}
	}
	// Uniform draws land in the ~98-account hot set with p ≈ 0.001.
	if frac := float64(inHot) / n; frac > 0.05 {
		t.Fatalf("hot-set fraction = %.3f under skew 0, want ≈0", frac)
	}
}

// TestTinyPopulation checks the generator degrades sanely at the floor of
// its domain (two users, one shard).
func TestTinyPopulation(t *testing.T) {
	g := New(Config{Users: 2, Shards: 1, Rate: 100, Cross: 1, Seed: 1})
	for _, x := range g.Tick(0) {
		if x.From == x.To || x.From > 1 || x.To > 1 {
			t.Fatalf("bad txn in tiny population: %+v", x)
		}
	}
}

// TestTickReusesBuffer pins that a tick after the first allocates nothing:
// Tick hands out the same storage every tick.
func TestTickReusesBuffer(t *testing.T) {
	g := New(Config{Users: 1000, Shards: 4, Rate: 500, Skew: 0.3, Cross: 0.2, Seed: 3})
	g.Tick(0)
	tick := 1
	if allocs := testing.AllocsPerRun(10, func() { g.Tick(tick); tick++ }); allocs != 0 {
		t.Fatalf("Tick allocated %v times per tick, want 0", allocs)
	}
}
