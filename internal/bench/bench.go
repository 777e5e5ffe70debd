// Package bench is the experiment harness: it regenerates, as printed
// tables, the eight quantitative claims of Shapiro's PLOS 2006 position
// paper (four fallacies, four challenges). Each experiment is identified as
// E1–E8; DESIGN.md maps them to the paper's claims and EXPERIMENTS.md
// records expected-vs-measured shapes.
package bench

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
)

// Table is a printable result table.
type Table struct {
	ID      string
	Title   string
	Claim   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, stringifying the cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = formatDuration(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "paper claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Params scales experiment workloads. Quick keeps everything test-suite
// sized; the CLI uses Full for stabler numbers.
type Params struct {
	Scale int // 1 = quick, larger = longer runs
}

// Quick is the test-suite parameterisation.
var Quick = Params{Scale: 1}

// Full is the command-line parameterisation.
var Full = Params{Scale: 10}

// Experiment is one reproducible table.
type Experiment struct {
	ID    string
	Title string
	Claim string
	Run   func(p Params) []*Table
}

// All returns the experiments in order E1..E8.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Boxed vs unboxed representation (fallacy 1)",
			Claim: `"Factors of 1.5x to 2x in performance don't matter" — they are exactly the cost of the uniform representation`,
			Run:   runE1},
		{ID: "E2", Title: "Can the optimiser remove boxing? (fallacy 2)",
			Claim: `"Boxed representation can be optimised away" — only for values that never escape`,
			Run:   runE2},
		{ID: "E3", Title: "Layout control vs optimiser recovery (fallacy 3)",
			Claim: `"The optimiser can fix it" — no legal pass may rewrite declared representation`,
			Run:   runE3},
		{ID: "E4", Title: "Cost of the legacy (C) boundary (fallacy 4)",
			Claim: `"The legacy problem is insurmountable" — the boundary has bounded, amortisable cost`,
			Run:   runE4},
		{ID: "E5", Title: "Automated constraint checking (challenge 1)",
			Claim: `systems-code contracts discharge automatically with a small prover`,
			Run:   runE5},
		{ID: "E6", Title: "Storage management disciplines (challenge 2)",
			Claim: `malloc/free latency varies by orders of magnitude; regions are flat; GCs trade pauses`,
			Run:   runE6},
		{ID: "E7", Title: "Data representation footprint (challenge 3)",
			Claim: `packed < natural << uniform-boxed footprint; wire formats need bit-level control`,
			Run:   runE7},
		{ID: "E8", Title: "Managing shared state (challenge 4)",
			Claim: `unsynchronised code races; locks don't compose; STM composes`,
			Run:   runE8},
		{ID: "E9", Title: "Sharded STM transaction service under open-loop load",
			Claim: `the mechanisms compose into a multi-tenant service: throughput scales with shards, aborts stay bounded, cross-shard 2PC conserves balance`,
			Run:   runE9},
	}
}

// ByID returns the experiment (or ablation) with the given ID, or nil.
func ByID(id string) *Experiment {
	for _, e := range AllWithAblations() {
		if strings.EqualFold(e.ID, id) {
			ex := e
			return &ex
		}
	}
	return nil
}

// percentile returns the p-th percentile (0..100) of a sample.
func percentile[T cmp.Ordered](xs []T, p float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	idx := int(float64(len(s)-1) * p / 100)
	return s[idx]
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
