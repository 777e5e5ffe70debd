package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
// Parent is the ID of the span that made the call (0 for an operation's
// root); Op identifies the operation the span belongs to.
type span struct {
	ID, Parent, Op int
	Name           string
	Start, End     time.Duration // since the tracer started
	Alloc          uint64        // Go heap bytes allocated while the span was open
}

// tracer keeps spans in memory; write renders them once the run is over.
type tracer struct {
	t0     time.Time
	spans  []span
	opProg []string // opProg[op-1] labels operation op with its program
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp opens an operation of the named program and returns its ID.
func (t *tracer) newOp(prog string) int {
	t.opProg = append(t.opProg, prog)
	return len(t.opProg)
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Alloc: totalAlloc(), Start: time.Since(t.t0),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0)
	s.Alloc = totalAlloc() - s.Alloc
	return s.End - s.Start
}

// root runs fn as the root span of a new operation of prog, after a full
// collection, and returns the span's ID and duration.
func (t *tracer) root(prog, name string, fn func(id int) error) (int, time.Duration, error) {
	op := t.newOp(prog)
	runtime.GC()
	id := t.begin(name, 0, op)
	err := fn(id)
	return id, t.end(id), err
}

// child runs fn as a span under parent and returns the span's duration.
func (t *tracer) child(parent int, name string, fn func()) time.Duration {
	id := t.begin(name, parent, t.spans[parent-1].Op)
	fn()
	return t.end(id)
}

// selfTimes returns, for every span name, each operation's summed self time
// and allocation, over operations of the given programs. Self time is a
// span's duration minus the time its children cover.
func (t *tracer) selfTimes(progs map[string]bool) map[string]*layerSamples {
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent-1] += s.End - s.Start
		}
	}
	type key struct {
		name string
		op   int
	}
	perOp := map[key]*[2]float64{}
	var order []key
	for i, s := range t.spans {
		if !progs[t.opProg[s.Op-1]] {
			continue
		}
		k := key{s.Name, s.Op}
		v, ok := perOp[k]
		if !ok {
			v = &[2]float64{}
			perOp[k] = v
			order = append(order, k)
		}
		v[0] += float64(s.End-s.Start-covered[i]) / float64(time.Microsecond)
		v[1] += float64(s.Alloc)
	}
	out := map[string]*layerSamples{}
	for _, k := range order {
		ls, ok := out[k.name]
		if !ok {
			ls = &layerSamples{}
			out[k.name] = ls
		}
		ls.us = append(ls.us, perOp[k][0])
		ls.bytes = append(ls.bytes, perOp[k][1])
	}
	return out
}

// layerSamples holds one layer's per-operation self time (us) and
// allocation (bytes).
type layerSamples struct{ us, bytes []float64 }

// childCover returns, for each root span that has children, the share of its
// duration its children cover, in percent.
func (t *tracer) childCover(progs map[string]bool) []float64 {
	covered := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 && t.spans[s.Parent-1].Parent == 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if c, ok := covered[s.ID]; ok && progs[t.opProg[s.Op-1]] {
			out = append(out, 100*float64(c)/float64(s.End-s.Start))
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format
// that bitc run -trace also writes; times are in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write renders the spans as Chrome trace_event JSON, loadable in Perfetto
// (ui.perfetto.dev) and chrome://tracing.
func (t *tracer) write(path, workload string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: t.opProg[s.Op-1], Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "allocBytes": s.Alloc},
		}
	}
	doc := map[string]any{
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"tool": "bitc benchmark", "workload": workload, "seed": seed},
		"traceEvents":     events,
	}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
