package analysis

import (
	"fmt"
	"runtime"
	"sync"

	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/pointsto"
	"bitc/internal/source"
	"bitc/internal/types"
)

// Options selects analyzers and controls the driver.
type Options struct {
	// Enable restricts the run to the named analyzers (empty = all).
	Enable []string
	// Disable removes analyzers from the enabled set.
	Disable []string
	// MinSeverity drops findings below the given severity from the report.
	MinSeverity source.Severity
	// Parallelism bounds the worker pool; 0 means GOMAXPROCS, 1 forces a
	// sequential run. Output is identical either way.
	Parallelism int
	// Strict makes renderers list each suppressed finding instead of only
	// the suppressed count, for audits of what a codebase is muting.
	Strict bool
}

// Report is the unified result of one driver run.
type Report struct {
	File     *source.File
	Findings []Finding
	// Suppressed holds findings muted by (suppress ...) forms or
	// `; bitc:ignore` comments, in the same deterministic order as Findings.
	// They never affect the exit code.
	Suppressed []Finding
	Analyzers  []string // names of the analyzers that ran, sorted
	Strict     bool     // copied from Options.Strict for the renderers
}

// CountBySeverity returns how many findings have exactly the given severity.
func (r *Report) CountBySeverity(sev source.Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == sev {
			n++
		}
	}
	return n
}

// HasErrors reports whether any finding is error-severity; this drives the
// CLI exit-code contract (exit 1 when true).
func (r *Report) HasErrors() bool { return r.CountBySeverity(source.Error) > 0 }

// Selected resolves Options into the list of analyzers to run.
func (o Options) Selected() ([]*Analyzer, error) {
	enabled := map[string]bool{}
	if len(o.Enable) == 0 {
		for _, a := range registry {
			enabled[a.Name] = true
		}
	} else {
		for _, name := range o.Enable {
			if ByName(name) == nil {
				return nil, fmt.Errorf("unknown analyzer %q", name)
			}
			enabled[name] = true
		}
	}
	for _, name := range o.Disable {
		if ByName(name) == nil {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		delete(enabled, name)
	}
	var out []*Analyzer
	for _, a := range Registry() { // Registry is name-sorted: stable order
		if enabled[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// task is one unit of work: an analyzer applied to a function (or to the
// whole program when fn is nil).
type task struct {
	analyzer *Analyzer
	fn       *ast.DefineFunc
	slot     int // index into the results slice, fixed before scheduling
}

// Run executes the selected analyzers over a checked program. Per-function
// analyzers fan out one task per function; tasks run on a bounded worker
// pool. Each task writes into its own pre-assigned result slot, and the
// merged findings are sorted, so the report does not depend on scheduling.
func Run(prog *ast.Program, info *types.Info, opts Options) (*Report, error) {
	selected, err := opts.Selected()
	if err != nil {
		return nil, err
	}
	var funcs []*ast.DefineFunc
	for _, d := range prog.Defs {
		if fn, ok := d.(*ast.DefineFunc); ok {
			funcs = append(funcs, fn)
		}
	}

	// Shared prerequisites are computed once, sequentially, before the pool
	// starts: function summaries must exist before any interprocedural pass
	// runs, CFGs are shared read-only by every flow-sensitive pass, and the
	// points-to results feed both the lifetime checkers and the alias-aware
	// summaries. All are deterministic, so they do not disturb the
	// byte-identical-report guarantee.
	needCFG, needPts, needSums := false, false, false
	for _, a := range selected {
		needCFG = needCFG || a.NeedsCFG
		needPts = needPts || a.NeedsPointsTo
		needSums = needSums || a.NeedsSummaries
	}
	// The points-to analysis is built over the CFGs, and the summaries
	// resolve aliased shared accesses through the points-to sets.
	needCFG = needCFG || needPts || needSums
	needPts = needPts || needSums

	var cfgs map[*ast.DefineFunc]*cfg.Graph
	var pts *pointsto.Result
	var summaries *Summaries
	if needCFG {
		cfgs = make(map[*ast.DefineFunc]*cfg.Graph, len(funcs))
		for _, fn := range funcs {
			cfgs[fn] = cfg.Build(fn, info)
		}
	}
	if needPts {
		pts = pointsto.Analyze(prog, info, cfgs)
	}
	if needSums {
		summaries = ComputeSummaries(prog, info, pts)
	}

	var tasks []task
	for _, a := range selected {
		if a.PerFunction {
			for _, fn := range funcs {
				tasks = append(tasks, task{analyzer: a, fn: fn, slot: len(tasks)})
			}
		} else {
			tasks = append(tasks, task{analyzer: a, slot: len(tasks)})
		}
	}

	results := make([][]Finding, len(tasks))
	execTasks(prog, info, cfgs, pts, summaries, tasks, results, opts.Parallelism)
	return assembleReport(prog, opts, selected, results), nil
}

// execTasks runs tasks on a bounded worker pool, writing each task's
// findings into results[t.slot]. Slots not covered by a task are left
// untouched, so the incremental driver can pre-fill them from the cache and
// submit only the dirty remainder.
func execTasks(prog *ast.Program, info *types.Info, cfgs map[*ast.DefineFunc]*cfg.Graph,
	pts *pointsto.Result, summaries *Summaries, tasks []task, results [][]Finding, parallelism int) {

	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}

	runTask := func(t task) {
		pass := &Pass{
			Prog: prog, Info: info, Fn: t.fn,
			Summaries: summaries, PointsTo: pts,
			cfgs: cfgs, analyzer: t.analyzer,
		}
		t.analyzer.Run(pass)
		results[t.slot] = pass.findings
	}

	if workers == 1 {
		for _, t := range tasks {
			runTask(t)
		}
		return
	}
	ch := make(chan task)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for t := range ch {
				runTask(t)
			}
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
}

// assembleReport merges per-slot findings into the final report: severity
// filter, suppression split, deterministic sort. Both drivers funnel
// through here, which is what makes a cached run byte-identical to a cold
// one.
func assembleReport(prog *ast.Program, opts Options, selected []*Analyzer, results [][]Finding) *Report {
	rep := &Report{File: prog.File, Strict: opts.Strict}
	for _, a := range selected {
		rep.Analyzers = append(rep.Analyzers, a.Name)
	}
	for _, fs := range results {
		for _, f := range fs {
			if f.Severity < opts.MinSeverity {
				continue
			}
			// Undischarged-but-unproven bounds sites are a prover audit
			// trail, not a defect; they surface only under -strict. Filtering
			// at assembly keeps the cached findings option-independent.
			if f.Code == CodeBoundMaybe && !opts.Strict {
				continue
			}
			if suppressed(prog, f) {
				rep.Suppressed = append(rep.Suppressed, f)
			} else {
				rep.Findings = append(rep.Findings, f)
			}
		}
	}
	SortFindings(rep.Findings)
	SortFindings(rep.Suppressed)
	return rep
}

// suppressed reports whether a directive in the program mutes this finding:
// either a (suppress "CODE" expr) form whose span contains the finding, or a
// `; bitc:ignore CODE` comment targeting the finding's line. Codes match
// exactly — suppressing BITC-DEAD001 does not mute BITC-DEAD002.
func suppressed(prog *ast.Program, f Finding) bool {
	if len(prog.Suppressions) == 0 || !f.Span.IsValid() {
		return false
	}
	line := 0
	for _, s := range prog.Suppressions {
		if s.Code != f.Code {
			continue
		}
		if s.Line > 0 {
			if line == 0 && prog.File != nil {
				line, _ = prog.File.Position(f.Span.Start)
			}
			if line == s.Line {
				return true
			}
		} else if s.Span.IsValid() && f.Span.Start >= s.Span.Start && f.Span.Start <= s.Span.End {
			return true
		}
	}
	return false
}
