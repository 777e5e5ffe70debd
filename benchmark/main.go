// Command benchmark is the repository's regression benchmark. It measures
// the bitc toolchain from outside, through the public entry points of its
// modules, on one workload per invocation, and prints one JSON line:
//
//	go run . --workload compile-corpus --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, and the spans go to --trace-file as Chrome
// trace_event JSON. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are printed by every untraced run: the median set-up time, the
// 10th percentile of the operation's wall time (a geometric mean over the
// workload's programs), and the process's peak resident memory during one
// operation.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_p10_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are printed by every traced run. A layer the workload's
// operation does not reach reads 0. Times are per unit of work, so that a
// layer's cost can be compared across workloads and input sizes.
var layerMetrics = []metricDef{
	{"trace.op_p10_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.child_cover_pct", "%"},
	{"op.samples", "count"},
	{"op.p50_ms", "ms"},
	{"op.p90_ms", "ms"},
	{"vm.ns_per_instr.fib", "ns/instr"},
	{"vm.ns_per_instr.vector-sum", "ns/instr"},
	{"vm.ns_per_instr.struct-walk", "ns/instr"},
	{"vm.ns_per_instr.insertion-sort", "ns/instr"},
	{"vm.instrs.fib", "count"},
	{"vm.instrs.vector-sum", "count"},
	{"vm.instrs.struct-walk", "count"},
	{"vm.instrs.insertion-sort", "count"},
	{"vm.ic_hit_ratio", "ratio"},
	{"vm.box_allocs_per_kinstr", "1/kinstr"},
	{"vm.go_alloc_mb_per_op", "MB"},
	{"vm.decode_ns_per_instr", "ns/instr"},
	{"vm.instrs_per_txn", "count"},
	{"vm.switches_per_txn", "count"},
	{"lexer.ns_per_token", "ns/token"},
	{"lexer.tokens", "count"},
	{"parser.us_per_func", "us/func"},
	{"parser.alloc_kb_per_func", "KB/func"},
	{"types.us_per_func", "us/func"},
	{"types.alloc_kb_per_func", "KB/func"},
	{"compiler.us_per_func", "us/func"},
	{"compiler.alloc_kb_per_func", "KB/func"},
	{"compiler.ir_instrs", "count"},
	{"opt.us_per_func", "us/func"},
	{"opt.alloc_kb_per_func", "KB/func"},
	{"opt.ir_instrs", "count"},
	{"opt.const_folded", "count"},
	{"opt.copies_removed", "count"},
	{"opt.dead_removed", "count"},
	{"opt.inlined", "count"},
	{"opt.cse_replaced", "count"},
	{"opt.branches_folded", "count"},
	{"analysis.bounds_us_per_func", "us/func"},
	{"analysis.bounds_alloc_kb_per_func", "KB/func"},
	{"analysis.bounds_sites", "count"},
	{"analysis.bounds_proved", "count"},
	{"analysis.cold_us_per_func", "us/func"},
	{"analysis.warm_us_per_func", "us/func"},
	{"analysis.warm_alloc_kb_per_func", "KB/func"},
	{"analysis.findings", "count"},
	{"factstore.hit_ratio", "ratio"},
	{"factstore.misses_per_edit", "count"},
	{"factstore.entries", "count"},
	{"serve.txn_per_s", "txn/s"},
	{"serve.abort_ratio", "ratio"},
	{"serve.2pc_conflicts", "count"},
	{"serve.2pc_retries", "count"},
	{"serve.cross_share", "ratio"},
	{"serve.queue_peak", "count"},
	{"serve.p99_rounds", "count"},
	{"program.funcs", "count"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"exec-unboxed":   execKernels(false),
	"exec-boxed":     execKernels(true),
	"compile-corpus": compileCorpus,
	"analyze-watch":  analyzeWatch,
	"serve-2pc":      serve2PC,
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// traceFile receives the spans of a traced run.
	traceFile string
	// short shrinks every input so that the test suite can run each
	// workload in about a second.
	short bool
}

// minRounds is how many rounds every run measures, however short its window.
const minRounds = 3

// run collects one invocation's measurements.
type run struct {
	cfg      config
	tr       *tracer // nil unless cfg.trace
	deadline time.Time

	setups   []time.Duration
	ops      map[string][]time.Duration // untraced operation times per program
	traced   map[string][]time.Duration // traced root-span times per program
	rss      map[string][]float64       // peak RSS of single operations, MB
	layer    map[string]float64
	lexNS    []float64 // lexer cost per token, one sample per lexer operation
	attempts int
	failures []string
}

func newRun(cfg config) *run {
	r := &run{
		cfg: cfg, layer: map[string]float64{}, rss: map[string][]float64{},
		ops: map[string][]time.Duration{}, traced: map[string][]time.Duration{},
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// openWindow starts the measuring window once set-up is done.
func (r *run) openWindow() {
	r.deadline = time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
}

// loop calls round until the window has closed and at least minRounds
// rounds ran.
func (r *run) loop(round func()) {
	for i := 0; i < minRounds || time.Now().Before(r.deadline); i++ {
		round()
	}
}

// rssRuns is how many operations of each program the memory pass runs.
const rssRuns = 11

// measureRSS is the memory pass an untraced run makes after its window: it
// runs op rssRuns times, each after returning the free heap to the OS and
// resetting the kernel's RSS high-water mark, and records the peak resident
// memory of the process during each. Per operation, the peak repeats within
// a few percent; over a whole run, it depends on where garbage collections
// happened to fall. An error is one reading the kernel's counters; a failed
// op is recorded as a failed operation.
func (r *run) measureRSS(prog string, op func() error) error {
	if r.cfg.trace {
		return nil
	}
	for i := 0; i < rssRuns; i++ {
		debug.FreeOSMemory()
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return fmt.Errorf("reset peak RSS: %w", err)
		}
		if err := op(); err != nil {
			r.verify(prog+" (memory pass)", err)
			continue
		}
		mb, err := peakRSSMB()
		if err != nil {
			return err
		}
		r.rss[prog] = append(r.rss[prog], mb)
	}
	return nil
}

// peakRSSMB reads the process's RSS high-water mark, VmHWM.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// timed runs fn after a full collection and returns its wall time.
func timed(fn func() error) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// record counts one attempted operation of prog that took d. err is the
// operation's error or the failure of the check on its output; a failed
// operation is not timed.
func (r *run) record(prog string, traced bool, d time.Duration, err error) {
	if err != nil {
		r.verify(prog, err)
		return
	}
	r.attempts++
	if traced {
		r.traced[prog] = append(r.traced[prog], d)
	} else {
		r.ops[prog] = append(r.ops[prog], d)
	}
}

// verify counts one attempted untimed operation, such as a check that spans
// the whole run, failed when err is not nil.
func (r *run) verify(what string, err error) {
	r.attempts++
	if err != nil {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// geomeanOf is the geometric mean over programs of the q-quantile of each
// program's times, in ms.
func geomeanOf(byProg map[string][]time.Duration, q float64) float64 {
	var xs []float64
	for _, ds := range byProg {
		xs = append(xs, quantile(ms(ds), q))
	}
	sort.Float64s(xs) // map order must not perturb the last digits
	return geomean(xs)
}

func (r *run) result() result {
	if r.attempts == 0 {
		r.verify("run", fmt.Errorf("no operation ran"))
	}
	res := result{Attempted: r.attempts, Failed: len(r.failures), Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0
	if !r.cfg.trace {
		setups := make([]float64, len(r.setups))
		for i, d := range r.setups {
			setups[i] = d.Seconds()
		}
		peak := 0.0
		for _, xs := range r.rss {
			peak = max(peak, median(xs))
		}
		vals := map[string]float64{
			"setup_s":     median(setups),
			"op_p10_ms":   geomeanOf(r.ops, 0.1),
			"peak_rss_mb": peak,
		}
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		return res
	}

	progs := map[string]bool{}
	samples := 0
	for p, ds := range r.ops {
		progs[p] = true
		samples += len(ds)
	}
	r.layer["op.samples"] = float64(samples)
	r.layer["op.p50_ms"] = geomeanOf(r.ops, 0.5)
	r.layer["op.p90_ms"] = geomeanOf(r.ops, 0.9)
	traced, untraced := geomeanOf(r.traced, 0.1), geomeanOf(r.ops, 0.1)
	r.layer["trace.op_p10_ms"] = traced
	r.layer["trace.overhead_pct"] = 100 * (ratio(traced, untraced) - 1)
	r.layer["trace.child_cover_pct"] = median(r.tr.childCover(progs))
	r.layer["lexer.ns_per_token"] = p10(r.lexNS)
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{r.layer[m.name], m.unit}
	}
	return res
}

// stageMetrics maps each pipeline stage's span name to the prefix of its
// us_per_func and alloc_kb_per_func metrics.
var stageMetrics = []struct{ span, prefix string }{
	{"parser", "parser."},
	{"types", "types."},
	{"compiler", "compiler."},
	{"opt", "opt."},
	{"analysis.bounds", "analysis.bounds_"},
	{"analysis.warm", "analysis.warm_"},
}

// stageTimes turns the spans of prog's traced operations into each stage's
// self time (10th percentile) and median allocation per source function.
func (r *run) stageTimes(prog string, funcs int) {
	st := r.tr.selfTimes(map[string]bool{prog: true})
	for _, s := range stageMetrics {
		if ls, ok := st[s.span]; ok {
			r.layer[s.prefix+"us_per_func"] = p10(ls.us) / float64(funcs)
			r.layer[s.prefix+"alloc_kb_per_func"] = median(ls.bytes) / 1024 / float64(funcs)
		}
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: exec-unboxed, exec-boxed, compile-corpus, analyze-watch or serve-2pc")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 15, "length of the measuring window")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	traceFile := fs.String("trace-file", "", "where --trace 1 writes its spans (default .bench_build/trace-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "benchmark: want --workload <name> --seed <n> --seconds <s> --trace <0|1>; workloads: %v\n", workloadNames())
		return 2
	}
	if err := checkInputs(); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, traceFile: *traceFile}
	if cfg.trace && cfg.traceFile == "" {
		cfg.traceFile = filepath.Join(".bench_build", "trace-"+cfg.workload+".json")
		if err := os.MkdirAll(filepath.Dir(cfg.traceFile), 0o755); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return execute(cfg, stdout, stderr)
}

// execute runs one workload and prints its result line; it returns the exit
// code, which is not 0 when an operation failed or an output was wrong.
func execute(cfg config, stdout, stderr io.Writer) int {
	r := newRun(cfg)
	if err := workloads[cfg.workload](r); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	res := r.result()
	for _, f := range r.failures {
		fmt.Fprintf(stderr, "benchmark: %s: %s\n", cfg.workload, f)
	}
	if cfg.trace {
		if err := r.tr.write(cfg.traceFile, cfg.workload, cfg.seed); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
