package serve

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"bitc/internal/vm"
)

// TestRunConservesBalance is the core end-to-end check: a mixed single- and
// cross-shard workload runs to completion and the summed balance equals the
// seeded total — across commits, STM aborts, 2PC conflicts, and rejections.
func TestRunConservesBalance(t *testing.T) {
	sv, err := New(Options{
		Shards: 4, Users: 2000, Rate: 500, Duration: 6,
		Cross: 0.25, Skew: 0.3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.InvariantOK {
		t.Fatalf("conservation violated: final %d, expected %d", res.FinalTotal, res.ExpectedTotal)
	}
	if res.Committed == 0 || res.CrossCommitted == 0 {
		t.Fatalf("no traffic committed: %+v", res)
	}
	// Accounting closes: everything generated is committed or rejected.
	handled := int64(res.Committed + res.CrossCommitted + res.Rejected + res.CrossRejected)
	if handled != res.Generated {
		t.Fatalf("accounting gap: generated %d, handled %d", res.Generated, handled)
	}
	if res.P99Ticks < res.P50Ticks || res.P50Ticks < 1 {
		t.Fatalf("bad latency percentiles: p50=%d p99=%d", res.P50Ticks, res.P99Ticks)
	}
	if len(res.Shards) != 4 {
		t.Fatalf("want 4 shard results, got %d", len(res.Shards))
	}
	var accounts int64
	for _, s := range res.Shards {
		accounts += s.Accounts
	}
	if accounts != 2000 {
		t.Fatalf("shard account partition sums to %d, want 2000", accounts)
	}
}

// TestDeterministicRunsAreIdentical pins the reproducibility contract at the
// service level: two deterministic runs with the same options produce
// byte-identical metrics documents.
func TestDeterministicRunsAreIdentical(t *testing.T) {
	opts := Options{
		Shards: 4, Users: 1000, Rate: 400, Duration: 4,
		Cross: 0.2, Skew: 0.5, Seed: 13, Deterministic: true,
	}
	run := func() []byte {
		sv, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sv.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.InvariantOK {
			t.Fatalf("conservation violated: %+v", res)
		}
		b, err := json.Marshal(MetricsDoc(res))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("deterministic runs diverged:\n%s\n---\n%s", a, b)
	}
}

// TestBackpressureRejects drives the open-loop generator far past what the
// batch budget can absorb and checks admission control rejects the excess
// instead of growing queues without bound — and that rejections never
// violate conservation.
func TestBackpressureRejects(t *testing.T) {
	sv, err := New(Options{
		Shards: 2, Users: 500, Rate: 5000, Duration: 4,
		Batch: 100, QueueCap: 150, Cross: 0.3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 && res.CrossRejected == 0 {
		t.Fatalf("overload produced no rejections: %+v", res)
	}
	if !res.InvariantOK {
		t.Fatalf("conservation violated under overload: final %d, expected %d", res.FinalTotal, res.ExpectedTotal)
	}
	for _, s := range res.Shards {
		if s.QueuePeak > 150 {
			t.Fatalf("shard %d queue peaked at %d past cap 150", s.ID, s.QueuePeak)
		}
	}
}

// TestSingleShard checks the degenerate one-shard configuration: everything
// is single-shard traffic, no 2PC runs, and the invariant still holds.
func TestSingleShard(t *testing.T) {
	sv, err := New(Options{Shards: 1, Users: 300, Rate: 200, Duration: 3, Cross: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossCommitted != 0 || res.Conflicts != 0 {
		t.Fatalf("one shard ran 2PC: %+v", res)
	}
	if !res.InvariantOK || res.Committed == 0 {
		t.Fatalf("single-shard run broken: %+v", res)
	}
}

// TestSkewDrivesAborts checks the knob the STM exists for: a heavily skewed
// workload produces more STM aborts than a uniform one at equal volume.
func TestSkewDrivesAborts(t *testing.T) {
	run := func(skew float64) uint64 {
		sv, err := New(Options{
			Shards: 2, Users: 4000, Rate: 600, Duration: 4,
			Workers: 16, Skew: skew, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sv.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.InvariantOK {
			t.Fatalf("conservation violated at skew %v", skew)
		}
		return res.TxAborts
	}
	uniform, hot := run(0), run(0.9)
	if hot <= uniform {
		t.Fatalf("skewed aborts %d not above uniform %d", hot, uniform)
	}
}

// TestMetricsDocShape checks the exported document: schema id, one row per
// shard plus a total row, and the derived fields the E9 table reads.
func TestMetricsDocShape(t *testing.T) {
	sv, err := New(Options{Shards: 3, Users: 600, Rate: 300, Duration: 3, Cross: 0.2, Seed: 9, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	doc := MetricsDoc(res)
	if doc.Schema != "bitc-metrics/v1" || doc.Experiment != "SERVE" {
		t.Fatalf("bad doc header: %+v", doc)
	}
	if doc.Generated != "" {
		t.Fatal("deterministic doc carries a timestamp")
	}
	if len(doc.Rows) != 4 {
		t.Fatalf("want 3 shard rows + total, got %d", len(doc.Rows))
	}
	total := doc.Rows[3]
	if total.Mode != "total" {
		t.Fatalf("last row mode = %q", total.Mode)
	}
	for _, key := range []string{"committed", "crossCommitted", "rejected", "abortRate", "p50LatencyTicks", "p99LatencyTicks", "invariantOK"} {
		if _, ok := total.Derived[key]; !ok {
			t.Fatalf("total row missing derived %q", key)
		}
	}
	if total.Derived["invariantOK"] != 1 {
		t.Fatal("invariantOK not set on a conserving run")
	}
	if total.WallNS != 0 {
		t.Fatal("deterministic doc carries wall time")
	}
}

// TestRunReportsAuditError checks that a conservation audit which cannot run
// surfaces as an error from Run, carrying its cause, rather than as a
// balance-not-conserved verdict. One account slot is corrupted to a non-ref
// value, so shard 1's total traps; the run is cancelled up front, so no
// transaction touches the slot before the audit does.
func TestRunReportsAuditError(t *testing.T) {
	sv, err := New(Options{Shards: 2, Users: 100, Rate: 10, Duration: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sv.shards[1].acctsV.Elems[3] = vm.IntValue(7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sv.Run(ctx)
	if err == nil {
		t.Fatalf("Run succeeded over a trapping audit: %+v", res)
	}
	if !strings.Contains(err.Error(), "shard 1 total") {
		t.Fatalf("err = %v, want the shard 1 audit trap", err)
	}
}
