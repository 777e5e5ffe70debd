package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// MetricsSchema is the stable identifier of the metrics JSON layout. Bump
// it only for breaking changes; additive fields keep the version.
const MetricsSchema = "bitc-metrics/v1"

// Counters is the stable exported subset of the VM's instrumentation. The
// bench harness fills it from vm.Stats; the field set (not the VM's
// internal struct) is the compatibility contract of BENCH_*.json files, so
// future PRs can regress against old trajectories.
type Counters struct {
	Instrs          uint64 `json:"instrs"`
	Calls           uint64 `json:"calls"`
	Allocs          uint64 `json:"allocs"`
	HeapBytes       uint64 `json:"heapBytes"`
	BoxAllocs       uint64 `json:"boxAllocs"`
	BoxBytes        uint64 `json:"boxBytes"`
	BoxReads        uint64 `json:"boxReads"`
	FieldReads      uint64 `json:"fieldReads"`
	FieldWrites     uint64 `json:"fieldWrites"`
	VecOps          uint64 `json:"vecOps"`
	Switches        uint64 `json:"switches"`
	TxCommits       uint64 `json:"txCommits"`
	TxAborts        uint64 `json:"txAborts"`
	ExternCalls     uint64 `json:"externCalls"`
	MarshalledBytes uint64 `json:"marshalledBytes"`
	RegionAllocs    uint64 `json:"regionAllocs"`
	// ICHits/ICMisses count the VM's inline-cache fast- and slow-path
	// executions on field and vector access (additive in bitc-metrics/v1;
	// see internal/vm/icache.go and docs/observability.md).
	ICHits   uint64 `json:"icHits"`
	ICMisses uint64 `json:"icMisses"`
	// ExternSpilledRegs sums the caller's register window over extern
	// crossings: the registers a cgo/JNI-style transition saves (additive
	// in bitc-metrics/v1, omitted on runs that never cross the boundary).
	ExternSpilledRegs uint64 `json:"externSpilledRegs,omitempty"`
}

// Metrics is one measured run: a workload executed under one configuration.
type Metrics struct {
	// Workload names the program that ran (e.g. "fib", "bankstm").
	Workload string `json:"workload"`
	// Mode is the value representation ("unboxed" or "boxed").
	Mode string `json:"mode"`
	// N is the problem size passed to the workload's entry function.
	N int64 `json:"n"`
	// WallNS is the measured wall time in nanoseconds; 0 when the run was
	// collected deterministically (wall time is the one nondeterministic
	// field, so deterministic trajectories zero it).
	WallNS int64 `json:"wallNs"`
	// AnalysisNS is the wall time of the static-analysis driver over the
	// workload, in nanoseconds; 0 when not measured or when the run was
	// collected deterministically. Additive in bitc-metrics/v1.
	AnalysisNS int64 `json:"analysisNs,omitempty"`
	// Counters are the VM's counters at the end of the run.
	Counters Counters `json:"counters"`
	// Derived holds ratios computed from counters (e.g. "boxOverheadPct"),
	// so trajectory diffs read without arithmetic.
	Derived map[string]float64 `json:"derived,omitempty"`
}

// MetricsDoc is the top-level BENCH_<experiment>.json document.
type MetricsDoc struct {
	// Schema is MetricsSchema.
	Schema string `json:"schema"`
	// Experiment is the experiment id (E1..E8, A1..A4, or a custom name).
	Experiment string `json:"experiment"`
	// Generated is the RFC3339 collection time, "" for deterministic runs.
	Generated string `json:"generated,omitempty"`
	// Rows are the measured runs.
	Rows []Metrics `json:"rows"`
}

// NewMetricsDoc creates an empty document for an experiment, stamping the
// generation time unless deterministic.
func NewMetricsDoc(experiment string, deterministic bool) *MetricsDoc {
	d := &MetricsDoc{Schema: MetricsSchema, Experiment: experiment}
	if !deterministic {
		d.Generated = time.Now().UTC().Format(time.RFC3339)
	}
	return d
}

// MetricsPath returns the conventional file name for an experiment's
// trajectory point: BENCH_<experiment>.json under dir.
func MetricsPath(dir, experiment string) string {
	if dir == "" {
		dir = "."
	}
	return dir + string(os.PathSeparator) + "BENCH_" + experiment + ".json"
}

// WriteFile writes the document as indented JSON (stable field order, one
// trailing newline) so committed trajectory files diff cleanly.
func (d *MetricsDoc) WriteFile(path string) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadMetricsFile loads and validates a trajectory file.
func ReadMetricsFile(path string) (*MetricsDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d MetricsDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != MetricsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, MetricsSchema)
	}
	return &d, nil
}
