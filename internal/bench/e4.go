package bench

import (
	"fmt"
	"slices"
	"time"

	"bitc/internal/core"
	"bitc/internal/ffi"
	"bitc/internal/obs"
	"bitc/internal/opt"
	"bitc/internal/vm"
)

// E4 prices the legacy boundary (fallacy 4). The VM charges a crossing in
// counted units: the crossing itself (ExternCalls), the caller's register
// window a cgo/JNI-style transition saves (ExternSpilledRegs) and 8 bytes
// per argument and result marshalled (MarshalledBytes). Those counts are
// exact. What one crossing unit costs in time on a real ABI is a model
// parameter the simulated boundary does not pay, so the verdict is argued
// from the amortisation curve (E4b), which holds whatever that cost is. The
// walls are medians over interleaved samples, with their spread.

// e4Src is the E4 program: a native two-argument call, extern calls of two
// and three arguments, and a checksum over a shared arena buffer.
var e4Src = ffi.Declarations() + `
  (define (native-add (a int64) (b int64)) int64 (+ a b))
  (define (native-loop (n int64)) int64
    (let ((mutable acc 0))
      (dotimes (i n) (set! acc (native-add acc 1)))
      acc))
  (define (extern-loop2 (n int64)) int64
    (let ((mutable acc 0))
      (dotimes (i n) (set! acc (c-memcmp 0 0 0)))
      acc))
  (define (extern-loop (n int64)) int64
    (let ((mutable acc 0))
      (dotimes (i n) (set! acc (c-strlen 0 8)))
      acc))
  (define (checksum-loop (n int64) (len int64)) int64
    (let ((mutable acc 0))
      (dotimes (i n) (set! acc (c-checksum 0 len)))
      acc))`

// e4Samples is the number of interleaved wall-time samples per E4 row.
const e4Samples = 9

// e4Sizes are E4b's checksum buffer sizes in bytes.
var e4Sizes = []int64{64, 1024, 16 * 1024, 64 * 1024}

// e4Run is one E4 row: fn(args...) on a fresh VM per run. Every run
// executes the same instructions, so stats comes from the first; walls
// holds one sample (ns) per interleaved round.
type e4Run struct {
	label string
	fn    string
	args  []int64
	arity int   // arguments the call passes (E4a)
	calls int64 // loop trips per run: the calls the per-call columns divide by
	size  int64 // E4b buffer bytes (0 in E4a)
	stats vm.Stats
	walls []float64
}

// perCall divides a counter by the run's calls.
func (r *e4Run) perCall(c uint64) float64 { return float64(c) / float64(r.calls) }

// unit renders a counter per call; the counted units divide exactly.
func (r *e4Run) unit(c uint64) string { return fmt.Sprintf("%g", r.perCall(c)) }

// wallPerCall is the median and interquartile range of the per-call wall.
func (r *e4Run) wallPerCall() (med, iqr float64) {
	return medianIQR(r.walls, float64(r.calls))
}

// once runs the row on a fresh VM bridged to a fresh arena, timing only the
// run itself.
func (r *e4Run) once(prog *core.Program) (*vm.VM, time.Duration, error) {
	machine := vm.New(prog.Module, vm.Options{})
	bridge := ffi.NewBridge(1 << 16)
	for i := range bridge.Arena {
		bridge.Arena[i] = byte(i*7 + 1)
	}
	bridge.Arena[8] = 0 // c-strlen's terminator
	bridge.Register(machine)
	args := make([]vm.Value, len(r.args))
	for i, a := range r.args {
		args[i] = vm.IntValue(a)
	}
	start := time.Now()
	_, err := machine.RunFunc(r.fn, args...)
	return machine, time.Since(start), err
}

// e4Result is a collected E4: the E4a call rows (native first) and the E4b
// checksum rows in buffer order.
type e4Result struct {
	calls []*e4Run
	amort []*e4Run
}

// collectE4 runs every row once for its counters, then samples rounds of
// interleaved runs, each round timing every row once, so native and extern
// walls share whatever drift the host has.
func collectE4(p Params, samples int) (*e4Result, error) {
	prog, err := core.Load("ffi", e4Src, core.Config{Optimize: opt.O1})
	if err != nil {
		return nil, err
	}
	n := int64(20000 * p.Scale)
	cn := int64(300 * p.Scale)
	res := &e4Result{calls: []*e4Run{
		{label: "native bitc call", fn: "native-loop", args: []int64{n}, arity: 2, calls: n},
		{label: "extern (2 args marshalled)", fn: "extern-loop", args: []int64{n}, arity: 2, calls: n},
		{label: "extern (3 args marshalled)", fn: "extern-loop2", args: []int64{n}, arity: 3, calls: n},
	}}
	for _, size := range e4Sizes {
		res.amort = append(res.amort, &e4Run{label: fmt.Sprintf("%d B", size),
			fn: "checksum-loop", args: []int64{cn, size}, calls: cn, size: size})
	}
	all := append(slices.Clone(res.calls), res.amort...)
	for _, r := range all {
		machine, _, err := r.once(prog)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.fn, err)
		}
		r.stats = machine.Stats
	}
	for s := 0; s < samples; s++ {
		for _, r := range all {
			_, d, err := r.once(prog)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.fn, err)
			}
			r.walls = append(r.walls, float64(d.Nanoseconds()))
		}
	}
	return res, nil
}

// externRatio is the median and interquartile range of the per-round
// extern/native wall ratio for an E4a extern row.
func (res *e4Result) externRatio(r *e4Run) (med, iqr float64) {
	native := res.calls[0]
	ratios := make([]float64, len(r.walls))
	for i, w := range r.walls {
		ratios[i] = (w / float64(r.calls)) / (native.walls[i] / float64(native.calls))
	}
	return medianIQR(ratios, 1)
}

// medianIQR returns the median and the interquartile range of xs, each
// divided by scale (0, 0 for an empty sample), by percentile's index rule.
func medianIQR(xs []float64, scale float64) (med, iqr float64) {
	return percentile(xs, 50) / scale, (percentile(xs, 75) - percentile(xs, 25)) / scale
}

// runE4 renders E4 as tables: E4a's per-call units and walls, and E4b's
// amortisation curve.
func runE4(p Params) []*Table {
	calls := &Table{
		ID: "E4a", Title: "call cost across the simulated C ABI",
		Claim: "the boundary has a fixed, bounded per-call cost",
		Headers: []string{"call type", "args", "calls", "VM calls/call", "crossings/call",
			"spilled regs/call", "marshalled B/call", "wall/call (median)", "IQR"},
	}
	amort := &Table{
		ID: "E4b", Title: "legacy checksum: boundary cost amortises over buffer size",
		Headers: []string{"buffer", "calls", "crossings/call", "marshalled B/call",
			"boundary B per payload B", "wall/call (median)", "per byte (median)", "IQR"},
	}
	res, err := collectE4(p, e4Samples)
	if err != nil {
		calls.Notes = append(calls.Notes, err.Error())
		return []*Table{calls, amort}
	}
	for _, r := range res.calls {
		med, iqr := r.wallPerCall()
		calls.AddRow(r.label, r.arity, r.calls,
			r.unit(r.stats.Calls), r.unit(r.stats.ExternCalls),
			r.unit(r.stats.ExternSpilledRegs), r.unit(r.stats.MarshalledBytes),
			time.Duration(med), time.Duration(iqr))
	}
	for _, r := range res.calls[1:] {
		med, iqr := res.externRatio(r)
		calls.Notes = append(calls.Notes, fmt.Sprintf(
			"%s: extern/native wall ratio %.2fx (IQR %.2f) over %d interleaved samples",
			r.label, med, iqr, len(r.walls)))
	}
	calls.Notes = append(calls.Notes,
		"crossings, spilled registers and marshalled bytes are counted exactly; the time one crossing unit "+
			"costs on a real ABI (cgo, JNI) is a model parameter this VM does not pay, so the walls price "+
			"marshalling and dispatch only")

	for _, r := range res.amort {
		med, _ := r.wallPerCall()
		byteMed, byteIQR := medianIQR(r.walls, float64(r.calls*r.size))
		amort.AddRow(r.label, r.calls, r.unit(r.stats.ExternCalls), r.unit(r.stats.MarshalledBytes),
			fmt.Sprintf("%.3g", r.perCall(r.stats.MarshalledBytes)/float64(r.size)),
			time.Duration(med), fmt.Sprintf("%.2f ns", byteMed), fmt.Sprintf("%.2f ns", byteIQR))
	}
	amort.Notes = append(amort.Notes,
		"every call pays the same counted boundary whatever the buffer, so its share of a call falls as "+
			"1/size for any per-crossing cost, and the measured per-byte wall falls with it: the boundary "+
			"is a constant, not a wall — the fallacy fails")
	return []*Table{calls, amort}
}

// metricsE4 exports E4 as bitc-metrics/v1 rows: each row's VM counters and
// its per-call units (VM calls, crossings, spilled registers, marshalled
// bytes). Measured runs add the median wall (WallNS); the tables carry the
// walls' spread. Deterministic runs take no samples.
func metricsE4(p Params, deterministic bool) (*obs.MetricsDoc, error) {
	samples := e4Samples
	if deterministic {
		samples = 0
	}
	res, err := collectE4(p, samples)
	if err != nil {
		return nil, fmt.Errorf("E4: %w", err)
	}
	doc := obs.NewMetricsDoc("E4", deterministic)
	row := func(r *e4Run, workload string) obs.Metrics {
		m := obs.Metrics{
			Workload: workload,
			Mode:     "unboxed",
			N:        r.calls,
			Counters: countersOf(r.stats),
			Derived: map[string]float64{
				"vmCallsPerCall":         r.perCall(r.stats.Calls),
				"crossingsPerCall":       r.perCall(r.stats.ExternCalls),
				"spilledRegsPerCall":     r.perCall(r.stats.ExternSpilledRegs),
				"marshalledBytesPerCall": r.perCall(r.stats.MarshalledBytes),
			},
		}
		if len(r.walls) > 0 {
			m.WallNS = int64(percentile(r.walls, 50))
		}
		return m
	}
	for _, r := range res.calls {
		doc.Rows = append(doc.Rows, row(r, r.fn))
	}
	for _, r := range res.amort {
		m := row(r, fmt.Sprintf("%s-%dB", r.fn, r.size))
		m.Derived["bufferBytes"] = float64(r.size)
		m.Derived["boundaryBytesPerPayloadByte"] = r.perCall(r.stats.MarshalledBytes) / float64(r.size)
		doc.Rows = append(doc.Rows, m)
	}
	return doc, nil
}
