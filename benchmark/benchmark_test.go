package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the command must honour.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestInputsMatchRecordedDigests(t *testing.T) {
	if err := checkInputs(); err != nil {
		t.Fatal(err)
	}
}

func TestBenchmarkJSONNamesEveryWorkload(t *testing.T) {
	var names []string
	for _, w := range readBenchmarkJSON(t).Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Fatalf("BENCHMARK.json workloads %q, command runs %q", got, want)
	}
}

// runShort runs a workload at test size for minRounds rounds and returns
// its parsed result line.
func runShort(t *testing.T, workload string, trace bool, traceFile string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cfg := config{workload: workload, seed: 1, trace: trace, traceFile: traceFile, short: true}
	if code := execute(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < minRounds {
		t.Fatalf("result %+v, stderr %s", res, stderr.String())
	}
	return res
}

// checkPrinted requires exactly the listed metrics, each with its unit.
func checkPrinted(t *testing.T, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
}

// exactCounts must repeat exactly between two runs of the same seed.
var exactCounts = []string{
	"vm.instrs.fib", "vm.instrs.vector-sum", "vm.instrs.struct-walk", "vm.instrs.insertion-sort",
	"compiler.ir_instrs", "opt.ir_instrs", "opt.const_folded", "opt.copies_removed",
	"opt.dead_removed", "opt.inlined", "opt.cse_replaced", "opt.branches_folded",
	"analysis.bounds_sites", "analysis.bounds_proved", "analysis.findings",
	"factstore.misses_per_edit", "factstore.entries", "lexer.tokens", "program.funcs",
}

func TestWorkloadsAtTestSize(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			checkPrinted(t, runShort(t, w, false, ""), bj.EndToEnd)

			dir := t.TempDir()
			a := runShort(t, w, true, filepath.Join(dir, "a.json"))
			b := runShort(t, w, true, filepath.Join(dir, "b.json"))
			checkPrinted(t, a, bj.PerLayer)
			for _, name := range exactCounts {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			if c := a.Metrics["trace.child_cover_pct"].Value; c <= 0 || c > 100 {
				t.Errorf("trace.child_cover_pct = %v", c)
			}
			checkTraceNesting(t, filepath.Join(dir, "a.json"))
		})
	}
}

// checkTraceNesting parses a trace file and requires every child span to lie
// inside its parent and to belong to its parent's operation.
func checkTraceNesting(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no spans")
	}
	byID := map[int]chromeEvent{}
	for _, ev := range doc.TraceEvents {
		byID[int(ev.Args["id"].(float64))] = ev
	}
	const slack = 0.001 // us: the JSON rounding of durations
	for _, ev := range doc.TraceEvents {
		parent := int(ev.Args["parent"].(float64))
		if parent == 0 {
			continue
		}
		p, ok := byID[parent]
		if !ok {
			t.Fatalf("span %v: no parent %d", ev.Args["id"], parent)
		}
		if ev.Ts+slack < p.Ts || ev.Ts+ev.Dur > p.Ts+p.Dur+slack || ev.Args["op"] != p.Args["op"] {
			t.Errorf("span %s %v lies outside its parent %s %v", ev.Name, ev.Args, p.Name, p.Args)
		}
	}
}
