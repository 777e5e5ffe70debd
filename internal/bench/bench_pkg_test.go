package bench

import (
	"fmt"
	"strings"
	"testing"
)

func fmtSscan(s string, v *int) (int, error) { return fmt.Sscan(s, v) }

func runExperiment(t *testing.T, id string) []*Table {
	t.Helper()
	ex := ByID(id)
	if ex == nil {
		t.Fatalf("no experiment %s", id)
	}
	tables := ex.Run(Quick)
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Fatalf("%s table %q has no rows (notes: %v)", id, tab.Title, tab.Notes)
		}
		if s := tab.String(); !strings.Contains(s, tab.Title) {
			t.Errorf("table text missing title")
		}
	}
	return tables
}

func cell(t *Table, row, col int) string { return t.Rows[row][col] }

func TestAllRegistered(t *testing.T) {
	exps := All()
	if len(exps) != 9 {
		t.Fatalf("experiments = %d", len(exps))
	}
	for i, e := range exps {
		if e.ID == "" || e.Run == nil || e.Claim == "" {
			t.Errorf("experiment %d incomplete", i)
		}
	}
	if ByID("e3") == nil || ByID("E3") == nil {
		t.Error("ByID case-insensitive lookup failed")
	}
	if ByID("E99") != nil {
		t.Error("bogus ID resolved")
	}
}

func TestE1BoxedSlower(t *testing.T) {
	tables := runExperiment(t, "E1")
	tab := tables[0]
	if len(tab.Rows) < 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Every workload must report box allocations in boxed mode.
	for _, row := range tab.Rows {
		if row[5] == "0" {
			t.Errorf("%s: no boxes allocated in boxed mode", row[0])
		}
	}
}

func TestE2ResidueNonZero(t *testing.T) {
	tables := runExperiment(t, "E2")
	classify := tables[0]
	for _, row := range classify.Rows {
		if row[1] == "0" {
			t.Errorf("%s: no scalar results analysed", row[0])
		}
		if row[6] == "0%" {
			t.Errorf("%s: zero residue — escapes must pin some boxes", row[0])
		}
	}
	speed := tables[1]
	for _, row := range speed.Rows {
		if row[4] == "0" {
			t.Errorf("%s: zero residual boxes at runtime", row[0])
		}
	}
}

func TestE3PackedSmallest(t *testing.T) {
	tables := runExperiment(t, "E3")
	sizes := map[string]string{}
	for _, row := range tables[0].Rows {
		sizes[row[0]+"/"+row[1]] = row[2]
	}
	if sizes["header-packed/packed"] != "20" {
		t.Errorf("packed wire header = %s bytes, want 20", sizes["header-packed/packed"])
	}
}

func TestE4Amortisation(t *testing.T) {
	tables := runExperiment(t, "E4")
	if len(tables) != 2 {
		t.Fatalf("tables = %d", len(tables))
	}
	amort := tables[1]
	if len(amort.Rows) < 3 {
		t.Fatalf("amortisation rows = %d", len(amort.Rows))
	}

	// E4a's counted units are exact: a native call is one VM call and no
	// crossing; an extern call is one crossing that spills registers and
	// marshals 8 bytes per argument and result.
	calls := tables[0]
	want := [][]string{ // VM calls, crossings, marshalled B per call
		{"1", "0", "0"},
		{"0", "1", "24"},
		{"0", "1", "32"},
	}
	if len(calls.Rows) != len(want) {
		t.Fatalf("E4a rows = %d, want %d", len(calls.Rows), len(want))
	}
	for i, w := range want {
		row := calls.Rows[i]
		if got := []string{row[3], row[4], row[6]}; strings.Join(got, " ") != strings.Join(w, " ") {
			t.Errorf("E4a %s: VM calls, crossings, marshalled B per call = %v, want %v", row[0], got, w)
		}
		if spilled := row[5]; (i == 0) != (spilled == "0") {
			t.Errorf("E4a %s: spilled regs per call = %s", row[0], spilled)
		}
	}

	// E4b: every call pays the same counted boundary, so the boundary's
	// share of the payload falls strictly with the buffer, and the measured
	// per-byte wall is lower at the largest buffer than at the smallest.
	prevShare := 0.0
	for i, row := range amort.Rows {
		if row[2] != "1" || row[3] != "24" {
			t.Errorf("E4b %s: crossings, marshalled B per call = %s, %s, want 1, 24", row[0], row[2], row[3])
		}
		var share float64
		if _, err := fmt.Sscan(row[4], &share); err != nil {
			t.Fatalf("E4b %s: boundary share %q: %v", row[0], row[4], err)
		}
		if i > 0 && share >= prevShare {
			t.Errorf("E4b %s: boundary share %g does not fall below %g", row[0], share, prevShare)
		}
		prevShare = share
	}
	perByte := func(row []string) float64 {
		var ns float64
		if _, err := fmt.Sscanf(row[6], "%g ns", &ns); err != nil {
			t.Fatalf("E4b %s: per byte %q: %v", row[0], row[6], err)
		}
		return ns
	}
	if first, last := perByte(amort.Rows[0]), perByte(amort.Rows[len(amort.Rows)-1]); last >= first {
		t.Errorf("E4b per-byte wall %g ns at the largest buffer, %g ns at the smallest: want it to fall", last, first)
	}
}

func TestE5CorpusOutcomes(t *testing.T) {
	tables := runExperiment(t, "E5")
	tab := tables[0]
	var bugRows, cleanFailed int
	for _, row := range tab.Rows {
		name := row[0]
		if name == "TOTAL" {
			continue
		}
		failed := row[3]
		if strings.HasPrefix(name, "BUG-") {
			if failed == "0" {
				t.Errorf("%s: injected bug not caught", name)
			}
			bugRows++
		} else if failed != "0" {
			cleanFailed++
			t.Errorf("%s: clean program failed verification", name)
		}
	}
	if bugRows != 2 {
		t.Errorf("bug rows = %d", bugRows)
	}
}

func TestE6AllDisciplinesRan(t *testing.T) {
	tables := runExperiment(t, "E6")
	tab := tables[0]
	if len(tab.Rows) != 7 {
		t.Fatalf("disciplines = %d, want 7 (notes: %v)", len(tab.Rows), tab.Notes)
	}
	byName := map[string][]string{}
	for _, row := range tab.Rows {
		byName[row[0]] = row
	}
	// Bump and region must be flat: p50 == max == 1 work unit.
	for _, flat := range []string{"bump/arena", "region"} {
		if byName[flat][3] != "1" || byName[flat][5] != "1" {
			t.Errorf("%s not flat: p50=%s max=%s", flat, byName[flat][3], byName[flat][5])
		}
	}
	// malloc max must far exceed its p50 (the variance claim).
	if byName["malloc/free"][5] == byName["malloc/free"][3] {
		t.Errorf("malloc/free shows no variance: %v", byName["malloc/free"])
	}
	// Tracing collectors must have collected and recorded pauses.
	for _, gc := range []string{"mark-sweep", "semispace", "generational"} {
		if byName[gc][6] == "0" {
			t.Errorf("%s never collected", gc)
		}
	}
}

func TestE7FootprintOrdering(t *testing.T) {
	tables := runExperiment(t, "E7")
	foot := tables[0]
	var packed, natural, boxed int
	for _, row := range foot.Rows {
		var v int
		if _, err := sscan(row[1], &v); err != nil {
			t.Fatalf("bad size %q", row[1])
		}
		switch {
		case strings.HasPrefix(row[0], "packed"):
			packed = v
		case strings.HasPrefix(row[0], "natural"):
			natural = v
		case strings.HasPrefix(row[0], "uniform"):
			boxed = v
		}
	}
	if !(packed < natural && natural < boxed) {
		t.Fatalf("ordering violated: packed=%d natural=%d boxed=%d", packed, natural, boxed)
	}
}

func TestE8InvariantStory(t *testing.T) {
	tables := runExperiment(t, "E8")
	dyn := tables[0]
	verdicts := map[string]string{}
	for _, row := range dyn.Rows {
		verdicts[row[0]] = row[3]
	}
	if !strings.HasPrefix(verdicts["none"], "VIOLATED") {
		t.Errorf("unsynchronised variant preserved the invariant: %q", verdicts["none"])
	}
	if verdicts["coarse"] != "HELD" || verdicts["stm"] != "HELD" {
		t.Errorf("synchronised variants broke: coarse=%q stm=%q", verdicts["coarse"], verdicts["stm"])
	}
	static := tables[1]
	races := map[string]string{}
	for _, row := range static.Rows {
		races[row[0]] = row[2]
	}
	if races["none"] == "0" {
		t.Error("static analysis missed the unsynchronised race")
	}
	if races["coarse"] != "0" || races["stm"] != "0" {
		t.Errorf("static analysis false positives: coarse=%s stm=%s", races["coarse"], races["stm"])
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Headers: []string{"a", "bb"}}
	tab.AddRow("hello", 42)
	tab.AddRow(1.5, "x")
	tab.Notes = append(tab.Notes, "a note")
	s := tab.String()
	for _, want := range []string{"demo", "hello", "42", "1.50", "a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []uint64{5, 1, 9, 3, 7}
	if percentile(xs, 0) != 1 || percentile(xs, 100) != 9 || percentile(xs, 50) != 5 {
		t.Errorf("percentiles: %d %d %d", percentile(xs, 0), percentile(xs, 50), percentile(xs, 100))
	}
	if percentile([]uint64(nil), 50) != 0 {
		t.Error("empty percentile")
	}
}

// sscan is a tiny fmt.Sscanf wrapper so the test reads clean.
func sscan(s string, v *int) (int, error) {
	return fmtSscan(s, v)
}

func TestAblationsRun(t *testing.T) {
	abls := Ablations()
	if len(abls) != 4 {
		t.Fatalf("ablations = %d", len(abls))
	}
	for _, a := range abls {
		tables := a.Run(Quick)
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", a.ID)
		}
		for _, tab := range tables {
			if len(tab.Rows) < 2 {
				t.Errorf("%s table %q has %d rows (notes: %v)", a.ID, tab.Title, len(tab.Rows), tab.Notes)
			}
		}
	}
	if len(AllWithAblations()) != 13 {
		t.Error("AllWithAblations should have 13 entries")
	}
	if ByID("A3") == nil {
		t.Error("ablation lookup by ID failed")
	}
}

func TestA3InvariantAlwaysHeld(t *testing.T) {
	tables := ByID("A3").Run(Quick)
	for _, row := range tables[0].Rows {
		if row[4] != "HELD" {
			t.Errorf("STM broke at quantum %s", row[0])
		}
	}
}
