package bench

// Metrics export: the machine-readable companion to the printed tables.
// Where the tables are for humans, CollectMetrics emits the stable
// bitc-metrics/v1 JSON schema (internal/obs) as BENCH_<experiment>.json
// trajectory files that future PRs can regress against.

import (
	"fmt"
	"math"
	"time"

	"bitc/internal/analysis"
	"bitc/internal/core"
	"bitc/internal/corpus"
	"bitc/internal/factstore"
	"bitc/internal/obs"
	"bitc/internal/opt"
	"bitc/internal/vm"
)

// MetricsExperiments lists the experiments with a metrics exporter.
func MetricsExperiments() []string { return []string{"E1", "E4", "E8", "E9", "EA", "ANALYZE"} }

// CollectMetrics runs the named experiment's workloads and returns the
// metrics document. With deterministic set, wall-clock fields are zeroed so
// the emitted JSON is byte-reproducible run to run.
func CollectMetrics(id string, p Params, deterministic bool) (*obs.MetricsDoc, error) {
	switch id {
	case "E1":
		return metricsE1(p, deterministic)
	case "E4":
		return metricsE4(p, deterministic)
	case "E8":
		return metricsE8(p, deterministic)
	case "E9":
		return metricsE9(p, deterministic)
	case "EA":
		return metricsEA(p, deterministic)
	case "ANALYZE":
		return metricsAnalyze(p, deterministic)
	default:
		return nil, fmt.Errorf("no metrics exporter for experiment %q (have %v)", id, MetricsExperiments())
	}
}

// countersOf projects the VM's internal counters onto the stable schema.
func countersOf(s vm.Stats) obs.Counters {
	return obs.Counters{
		Instrs:            s.Instrs,
		Calls:             s.Calls,
		Allocs:            s.Allocs,
		HeapBytes:         s.HeapBytes,
		BoxAllocs:         s.BoxAllocs,
		BoxBytes:          s.BoxBytes,
		BoxReads:          s.BoxReads,
		FieldReads:        s.FieldReads,
		FieldWrites:       s.FieldWrites,
		VecOps:            s.VecOps,
		Switches:          s.Switches,
		TxCommits:         s.TxCommits,
		TxAborts:          s.TxAborts,
		ExternCalls:       s.ExternCalls,
		MarshalledBytes:   s.MarshalledBytes,
		RegionAllocs:      s.RegionAllocs,
		ICHits:            s.ICHits,
		ICMisses:          s.ICMisses,
		ExternSpilledRegs: s.ExternSpilledRegs,
	}
}

// measure runs entry(arg) under mode and fills one Metrics row. Wall time is
// best-of-3 when measured (deterministic runs execute once and zero it).
func measure(p *core.Program, workload, mode string, repMode vm.RepMode, arg int64, deterministic bool) (obs.Metrics, error) {
	wall, machine, err := bestOf3(p, vm.Options{Mode: repMode}, arg, deterministic)
	if err != nil {
		return obs.Metrics{}, fmt.Errorf("%s/%s: %w", workload, mode, err)
	}
	return obs.Metrics{
		Workload: workload,
		Mode:     mode,
		N:        arg,
		WallNS:   wall,
		Counters: countersOf(machine.Stats),
	}, nil
}

// bestOf3 runs entry(arg) on fresh VMs and returns the fastest wall time (in
// ns, 0 when deterministic) plus the last machine for counter inspection.
func bestOf3(p *core.Program, opts vm.Options, arg int64, deterministic bool) (int64, *vm.VM, error) {
	runs := 3
	if deterministic {
		runs = 1
	}
	var best int64
	var machine *vm.VM
	for i := 0; i < runs; i++ {
		machine = vm.New(p.Module, opts)
		start := time.Now()
		if _, err := machine.RunFunc("entry", vm.IntValue(arg)); err != nil {
			return 0, machine, err
		}
		if d := time.Since(start).Nanoseconds(); i == 0 || d < best {
			best = d
		}
	}
	if deterministic {
		best = 0
	}
	return best, machine, nil
}

// metricsE1 exports the boxed-vs-unboxed comparison (fallacy 1): every
// canonical workload under both representations, plus derived box-pressure
// ratios, and boundsProved/boundsSites on kernels with proved sites. On
// measured (non-deterministic) runs each unboxed row also carries
// dispatchSpeedup — fused dispatch over the legacy switch interpreter on the
// same kernel — and, for the proved kernels, boundsElisionSpeedup — the same
// kernel with proof-guided bounds-check elision over the checked baseline.
// Final geomean rows summarise both, so the trajectory records the
// interpreter rebuild and the prover payoff without disturbing the
// boxed/unboxed ratio shape.
func metricsE1(p Params, deterministic bool) (*obs.MetricsDoc, error) {
	doc := obs.NewMetricsDoc("E1", deterministic)
	speedupProduct, speedups := 1.0, 0
	elideProduct, elisions := 1.0, 0
	for _, w := range workloads() {
		prog, err := core.Load(w.name, w.src, core.Config{Optimize: opt.O1})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		arg := w.arg(p.Scale)
		un, err := measure(prog, w.name, "unboxed", vm.Unboxed, arg, deterministic)
		if err != nil {
			return nil, err
		}
		eprog, err := core.Load(w.name, w.src, core.Config{Optimize: opt.O1, BoundsElide: true})
		if err != nil {
			return nil, fmt.Errorf("%s/elide: %w", w.name, err)
		}
		un.Derived = map[string]float64{}
		proved := eprog.Proofs != nil && eprog.Proofs.Proved > 0
		if proved { // deterministic counts, checked by TestE1Trajectory
			un.Derived["boundsProved"] = float64(eprog.Proofs.Proved)
			un.Derived["boundsSites"] = float64(eprog.Proofs.Sites)
		}
		if !deterministic && un.WallNS > 0 {
			legacy, _, err := bestOf3(prog,
				vm.Options{Mode: vm.Unboxed, Dispatch: vm.DispatchSwitch}, arg, false)
			if err != nil {
				return nil, fmt.Errorf("%s/switch: %w", w.name, err)
			}
			s := float64(legacy) / float64(un.WallNS)
			un.Derived["dispatchSpeedup"] = s
			speedupProduct *= s
			speedups++

			if proved {
				// Paired measurement: re-time the checked baseline back to
				// back with the elided run so the ratio compares two
				// adjacent timings instead of inheriting whatever drift
				// separates this block from the row measurement above.
				checked, _, err := bestOf3(prog, vm.Options{Mode: vm.Unboxed}, arg, false)
				if err != nil {
					return nil, fmt.Errorf("%s/elide-baseline: %w", w.name, err)
				}
				elided, _, err := bestOf3(eprog,
					vm.Options{Mode: vm.Unboxed, BoundsElide: eprog.Proofs.Elidable()}, arg, false)
				if err != nil {
					return nil, fmt.Errorf("%s/elide: %w", w.name, err)
				}
				es := float64(checked) / float64(elided)
				un.Derived["boundsElisionSpeedup"] = es
				elideProduct *= es
				elisions++
			}
		}
		bx, err := measure(prog, w.name, "boxed", vm.Boxed, arg, deterministic)
		if err != nil {
			return nil, err
		}
		if un.Counters.Instrs > 0 {
			bx.Derived = map[string]float64{
				"boxAllocsPerInstr": float64(bx.Counters.BoxAllocs) / float64(bx.Counters.Instrs),
				"boxReadsPerInstr":  float64(bx.Counters.BoxReads) / float64(bx.Counters.Instrs),
			}
		}
		doc.Rows = append(doc.Rows, un, bx)
	}
	if speedups > 0 {
		derived := map[string]float64{
			"dispatchSpeedup": math.Pow(speedupProduct, 1/float64(speedups)),
		}
		if elisions > 0 {
			derived["boundsElisionSpeedup"] = math.Pow(elideProduct, 1/float64(elisions))
		}
		doc.Rows = append(doc.Rows, obs.Metrics{
			Workload: "geomean",
			Mode:     "unboxed",
			Derived:  derived,
		})
	}
	return doc, nil
}

// metricsEA exports static-analysis cost: the full analyzer suite over the
// canonical workloads plus the unsynchronised bank workload, under the
// sequential and the parallel driver. AnalysisNS carries the wall time (the
// analysis runs no VM, so the run counters stay zero) and the finding count
// lands in Derived so a checker regression that changes coverage shows up
// in trajectory diffs too.
func metricsEA(p Params, deterministic bool) (*obs.MetricsDoc, error) {
	doc := obs.NewMetricsDoc("EA", deterministic)
	type target struct {
		name string
		src  string
	}
	var targets []target
	for _, w := range workloads() {
		targets = append(targets, target{w.name, w.src})
	}
	targets = append(targets, target{"bankstm", bankSrc("none", int64(100*p.Scale))})
	for _, tg := range targets {
		prog, err := core.Load(tg.name, tg.src, core.Config{Optimize: opt.O2})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tg.name, err)
		}
		for _, mode := range []struct {
			name        string
			parallelism int
		}{{"sequential", 1}, {"parallel", 0}} {
			start := time.Now()
			rep, err := prog.Analyze(analysis.Options{Parallelism: mode.parallelism})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", tg.name, mode.name, err)
			}
			wall := time.Since(start).Nanoseconds()
			if deterministic {
				wall = 0
			}
			doc.Rows = append(doc.Rows, obs.Metrics{
				Workload:   tg.name,
				Mode:       mode.name,
				AnalysisNS: wall,
				Derived: map[string]float64{
					"findings":   float64(len(rep.Findings)),
					"suppressed": float64(len(rep.Suppressed)),
				},
			})
		}
	}
	return doc, nil
}

// metricsAnalyze exports the incremental-analysis trajectory: the synthetic
// corpus (internal/corpus) analyzed cold, then warm with no edit (pure probe
// cost), then warm after a one-function edit — the re-analysis latency a
// `bitc analyze -watch` daemon pays. AnalysisNS carries the wall time;
// findings and the per-run cache hit/miss traffic land in Derived, so a
// key-scheme regression that silently widens invalidation shows up as a
// miss-count jump in trajectory diffs even when the timings are noisy.
func metricsAnalyze(p Params, deterministic bool) (*obs.MetricsDoc, error) {
	doc := obs.NewMetricsDoc("ANALYZE", deterministic)
	nfuncs := 200 * p.Scale
	if nfuncs < 400 {
		nfuncs = 400
	}
	src := corpus.Text(nfuncs, 25)
	prog, err := core.LoadAnalysis("corpus.bitc", src)
	if err != nil {
		return nil, fmt.Errorf("ANALYZE corpus: %w", err)
	}
	eprog, err := core.LoadAnalysis("corpus.bitc", corpus.EditOne(src, nfuncs/2))
	if err != nil {
		return nil, fmt.Errorf("ANALYZE edited corpus: %w", err)
	}
	store := factstore.New()
	run := func(mode string, pr *core.Program) error {
		before := store.Stats()
		start := time.Now()
		rep, aerr := pr.AnalyzeWithStore(analysis.Options{}, store)
		if aerr != nil {
			return fmt.Errorf("ANALYZE/%s: %w", mode, aerr)
		}
		wall := time.Since(start).Nanoseconds()
		if deterministic {
			wall = 0
		}
		after := store.Stats()
		doc.Rows = append(doc.Rows, obs.Metrics{
			Workload:   "incr-corpus",
			Mode:       mode,
			N:          int64(nfuncs),
			AnalysisNS: wall,
			Derived: map[string]float64{
				"findings":    float64(len(rep.Findings)),
				"funcs":       float64(nfuncs),
				"cacheHits":   float64(after.Hits - before.Hits),
				"cacheMisses": float64(after.Misses - before.Misses),
			},
		})
		return nil
	}
	if err := run("cold", prog); err != nil {
		return nil, err
	}
	if err := run("warm", prog); err != nil {
		return nil, err
	}
	if err := run("warm-one-edit", eprog); err != nil {
		return nil, err
	}

	// Transaction-safety tier: the atomicity pass (BITC-ATOM001..004) over
	// a fixture firing all four codes — the synthetic corpus has no atomic
	// regions, so this is the row where a summary regression in the atomic
	// fact kinds (sites, irreversible effects, retry loops, lock edges)
	// shows up as a findings or miss-count change.
	aprog, err := core.LoadAnalysis("atomicity.bitc", atomicitySrc)
	if err != nil {
		return nil, fmt.Errorf("ANALYZE atomicity fixture: %w", err)
	}
	astore := factstore.New()
	runAtom := func(mode string) error {
		before := astore.Stats()
		start := time.Now()
		rep, aerr := aprog.AnalyzeWithStore(analysis.Options{Enable: []string{"atomicity"}}, astore)
		if aerr != nil {
			return fmt.Errorf("ANALYZE/atomicity-%s: %w", mode, aerr)
		}
		wall := time.Since(start).Nanoseconds()
		if deterministic {
			wall = 0
		}
		after := astore.Stats()
		doc.Rows = append(doc.Rows, obs.Metrics{
			Workload:   "atomicity",
			Mode:       mode,
			N:          int64(len(rep.Findings)),
			AnalysisNS: wall,
			Derived: map[string]float64{
				"findings":    float64(len(rep.Findings)),
				"cacheHits":   float64(after.Hits - before.Hits),
				"cacheMisses": float64(after.Misses - before.Misses),
			},
		})
		return nil
	}
	if err := runAtom("cold"); err != nil {
		return nil, err
	}
	if err := runAtom("warm"); err != nil {
		return nil, err
	}

	return doc, nil
}

// atomicitySrc trips all four BITC-ATOM codes: a bare write to an
// atomically managed location, an extern reachable inside a transaction, a
// descending shard-lock acquisition, a nested atomic, and an unbounded
// retry loop over shared state.
const atomicitySrc = `
(defstruct cell (v int64))
(define counter cell (make cell :v 0))
(external ping (-> (int64) int64) "ping")
(define (txn) unit
  (atomic (set-field! counter v (+ (field counter v) 1))))
(define (bare) unit
  (set-field! counter v 3))
(define (effectful) unit
  (atomic
    (set-field! counter v 1)
    (ping 1)
    ()))
(define (nested) unit
  (atomic (txn)))
(define (spin) unit
  (while (> (field counter v) 0) (txn)))
(define (move) unit
  (with-lock shard1 (with-lock shard0 (set-field! counter v 2))))
(define (main) unit
  (let ((t (spawn (txn))))
    (bare)
    (join t)
    (effectful)
    (nested)
    (spin)
    (move)))
`

// metricsE8 exports the shared-state experiment (challenge 4): the bank
// transfer workload under no synchronisation, a coarse lock, and STM, with
// the abort rate as the headline derived metric.
func metricsE8(p Params, deterministic bool) (*obs.MetricsDoc, error) {
	doc := obs.NewMetricsDoc("E8", deterministic)
	transfers := int64(100 * p.Scale)
	for _, sync := range []string{"none", "coarse", "stm"} {
		prog, err := core.Load("bankstm-"+sync, bankSrc(sync, transfers), core.Config{
			Optimize: opt.O2,
			Seed:     7,
			Quantum:  13, // short quanta force interleaving so the modes differ
		})
		if err != nil {
			return nil, fmt.Errorf("bankstm/%s: %w", sync, err)
		}
		machine := prog.NewVM()
		start := time.Now()
		val, err := machine.RunFunc("entry", vm.IntValue(transfers))
		if err != nil {
			return nil, fmt.Errorf("bankstm/%s: %w", sync, err)
		}
		wall := time.Since(start).Nanoseconds()
		if deterministic {
			wall = 0
		}
		m := obs.Metrics{
			Workload: "bankstm",
			Mode:     sync,
			N:        transfers,
			WallNS:   wall,
			Counters: countersOf(machine.Stats),
			Derived: map[string]float64{
				// 2n transfers conserve the total only when synchronised;
				// the drift from 100000 is the lost-update count.
				"finalTotal": float64(val.I),
			},
		}
		if attempts := m.Counters.TxCommits + m.Counters.TxAborts; attempts > 0 {
			m.Derived["txAbortRate"] = float64(m.Counters.TxAborts) / float64(attempts)
		}
		doc.Rows = append(doc.Rows, m)
	}
	return doc, nil
}
