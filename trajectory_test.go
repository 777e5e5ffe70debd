package bitc

import (
	"testing"

	"bitc/internal/bench"
	"bitc/internal/obs"
)

// TestE1Trajectory checks a fresh full-scale deterministic E1 collection
// against the committed BENCH_E1.json: the same rows in the same order,
// every VM counter, and each kernel's bounds-proof counts (boundsProved,
// boundsSites). Wall-clock fields, speedups and the geomean row are timing
// and are not compared. A change that moves a counter or a proof fails
// here until BENCH_E1.json is deliberately regenerated with
// `go run ./cmd/bitc-bench -e E1 -metrics .`.
func TestE1Trajectory(t *testing.T) {
	want, err := obs.ReadMetricsFile("BENCH_E1.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := bench.CollectMetrics("E1", bench.Full, true)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, gotRows := countedRows(want), countedRows(got)
	if len(wantRows) != len(gotRows) {
		t.Fatalf("E1 has %d rows, committed BENCH_E1.json has %d", len(gotRows), len(wantRows))
	}
	for i, w := range wantRows {
		g := gotRows[i]
		row := w.Workload + "/" + w.Mode
		if g.Workload != w.Workload || g.Mode != w.Mode || g.N != w.N {
			t.Errorf("row %d: got %s/%s n=%d, committed %s n=%d", i, g.Workload, g.Mode, g.N, row, w.N)
			continue
		}
		if g.Counters != w.Counters {
			t.Errorf("%s: counters drifted:\n got       %+v\n committed %+v", row, g.Counters, w.Counters)
		}
		for _, k := range []string{"boundsProved", "boundsSites"} {
			gv, gok := g.Derived[k]
			wv, wok := w.Derived[k]
			if gv != wv || gok != wok {
				t.Errorf("%s: %s = %v (present %v), committed %v (present %v)", row, k, gv, gok, wv, wok)
			}
		}
	}
}

// countedRows drops the geomean summary row, which holds only speedups.
func countedRows(d *obs.MetricsDoc) []obs.Metrics {
	var rows []obs.Metrics
	for _, r := range d.Rows {
		if r.Workload != "geomean" {
			rows = append(rows, r)
		}
	}
	return rows
}
