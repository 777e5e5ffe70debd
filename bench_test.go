// Package bitc's root benchmark harness: one testing.B benchmark per
// experiment (E1–E8), so `go test -bench=. -benchmem` regenerates every
// result the reproduction reports. Key figures are exported as custom
// benchmark metrics where a single number captures the claim.
package bitc

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bitc/internal/analysis"
	"bitc/internal/ast"
	"bitc/internal/bench"
	"bitc/internal/compiler"
	"bitc/internal/core"
	"bitc/internal/corpus"
	"bitc/internal/factstore"
	"bitc/internal/lexer"
	"bitc/internal/opt"
	"bitc/internal/parser"
	"bitc/internal/pointsto"
	"bitc/internal/types"
	"bitc/internal/vm"
)

// runAll runs one full experiment per benchmark iteration.
func runAll(b *testing.B, id string) []*bench.Table {
	b.Helper()
	ex := bench.ByID(id)
	if ex == nil {
		b.Fatalf("no experiment %s", id)
	}
	var tables []*bench.Table
	for i := 0; i < b.N; i++ {
		tables = ex.Run(bench.Quick)
	}
	return tables
}

// BenchmarkE1BoxedVsUnboxed regenerates fallacy 1's table and reports the
// measured boxed/unboxed time ratio of the canonical kernels.
func BenchmarkE1BoxedVsUnboxed(b *testing.B) {
	fib := core.MustLoad("fib", `
	  (define (fib (n int64)) int64
	    (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
	  (define (entry (n int64)) int64 (fib n))`,
		core.Config{Optimize: opt.O1})
	b.Run("unboxed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			machine := vm.New(fib.Module, vm.Options{Mode: vm.Unboxed})
			if _, err := machine.RunFunc("entry", vm.IntValue(18)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("boxed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			machine := vm.New(fib.Module, vm.Options{Mode: vm.Boxed})
			if _, err := machine.RunFunc("entry", vm.IntValue(18)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("table", func(b *testing.B) { runAll(b, "E1") })
}

// BenchmarkE2UnboxOptimizer regenerates fallacy 2's tables: how much boxing
// escape-based unboxing rescues, and what residue remains.
func BenchmarkE2UnboxOptimizer(b *testing.B) {
	tables := runAll(b, "E2")
	if len(tables) == 2 && len(tables[0].Rows) > 0 {
		b.ReportMetric(float64(len(tables[0].Rows)), "workloads")
	}
}

// BenchmarkE3LayoutControl regenerates fallacy 3's table: declared layout is
// a language property no optimiser may rewrite.
func BenchmarkE3LayoutControl(b *testing.B) { runAll(b, "E3") }

// BenchmarkE4FFILegacy regenerates fallacy 4's tables: bounded, amortisable
// boundary cost.
func BenchmarkE4FFILegacy(b *testing.B) { runAll(b, "E4") }

// BenchmarkE5ConstraintProver regenerates challenge 1's table: automated
// discharge of the contract corpus.
func BenchmarkE5ConstraintProver(b *testing.B) { runAll(b, "E5") }

// BenchmarkE6Allocators regenerates challenge 2's table: the same trace
// through seven storage disciplines.
func BenchmarkE6Allocators(b *testing.B) { runAll(b, "E6") }

// BenchmarkE7Representation regenerates challenge 3's tables: footprint per
// representation and wire round-trip throughput.
func BenchmarkE7Representation(b *testing.B) { runAll(b, "E7") }

// BenchmarkE8SharedState regenerates challenge 4's tables: the bank transfer
// under three disciplines plus the static verdicts.
func BenchmarkE8SharedState(b *testing.B) { runAll(b, "E8") }

// BenchmarkAnalysisInterproc breaks analyzer cost down by machinery tier
// over the golden corpus plus the pinned example workloads: the PR-1 style
// syntactic walks (ffi), the CFG+dataflow passes (definit, truncate), the
// points-to consumers (escape, deadstore), the interprocedural summary
// passes (race, deadlock), and the full suite. The deltas between tiers are
// the price of flow-sensitivity, of whole-program points-to, and of
// bottom-up summaries respectively.
func BenchmarkAnalysisInterproc(b *testing.B) {
	files, err := filepath.Glob("internal/core/testdata/*.bitc")
	if err != nil || len(files) == 0 {
		b.Fatalf("no corpus: %v", err)
	}
	pinned, err := filepath.Glob("internal/core/testdata/analyze/*.bitc")
	if err != nil || len(pinned) == 0 {
		b.Fatalf("no pinned examples: %v", err)
	}
	files = append(files, pinned...)
	var progs []*core.Program
	for _, path := range files {
		src, rerr := os.ReadFile(path)
		if rerr != nil {
			b.Fatal(rerr)
		}
		progs = append(progs, core.MustLoad(filepath.Base(path), string(src), core.DefaultConfig))
	}
	tiers := []struct {
		name   string
		enable []string
	}{
		{"syntactic", []string{"ffi"}},
		{"cfg-dataflow", []string{"definit", "truncate"}},
		{"pointsto", []string{"escape", "deadstore"}},
		{"interproc", []string{"race", "deadlock"}},
		{"atomicity", []string{"atomicity"}},
		{"full", nil},
	}
	for _, tier := range tiers {
		b.Run(tier.name, func(b *testing.B) {
			findings := 0
			for i := 0; i < b.N; i++ {
				findings = 0
				for _, p := range progs {
					rep, aerr := p.Analyze(analysis.Options{Enable: tier.enable, Parallelism: 1})
					if aerr != nil {
						b.Fatal(aerr)
					}
					findings += len(rep.Findings)
				}
			}
			b.ReportMetric(float64(findings), "findings/run")
		})
	}
}

// BenchmarkPointsTo measures the whole-program Andersen points-to analysis
// plus the flow-sensitive lifetime pass in isolation over the golden corpus
// and the pinned example workloads — the substrate every alias-aware
// checker shares, so its cost is the floor of the pointsto tier above.
// Abstract objects per run is reported so a modelling change that silently
// grows (or collapses) the heap abstraction is visible.
func BenchmarkPointsTo(b *testing.B) {
	files, err := filepath.Glob("internal/core/testdata/*.bitc")
	if err != nil || len(files) == 0 {
		b.Fatalf("no corpus: %v", err)
	}
	pinned, err := filepath.Glob("internal/core/testdata/analyze/*.bitc")
	if err != nil || len(pinned) == 0 {
		b.Fatalf("no pinned examples: %v", err)
	}
	files = append(files, pinned...)
	var progs []*core.Program
	for _, path := range files {
		src, rerr := os.ReadFile(path)
		if rerr != nil {
			b.Fatal(rerr)
		}
		progs = append(progs, core.MustLoad(filepath.Base(path), string(src), core.DefaultConfig))
	}
	objects, escapes := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		objects, escapes = 0, 0
		for _, p := range progs {
			r := pointsto.Analyze(p.AST, p.Info, nil)
			lt := pointsto.CheckLifetimes(p.AST, p.Info, r)
			objects += len(r.Objects())
			escapes += len(lt.Escapes) + len(lt.Uses)
		}
	}
	b.ReportMetric(float64(objects), "objects/run")
	b.ReportMetric(float64(escapes), "lifetime-findings/run")
}

// BenchmarkAnalysisDriver measures static-analyzer throughput over the
// golden corpus: the full eight-analyzer suite under the sequential driver
// vs the bounded parallel worker pool. Findings-per-run is reported so a
// checker regression that silently changes coverage shows up here too.
func BenchmarkAnalysisDriver(b *testing.B) {
	files, err := filepath.Glob("internal/core/testdata/*.bitc")
	if err != nil || len(files) == 0 {
		b.Fatalf("no corpus: %v", err)
	}
	var progs []*core.Program
	for _, path := range files {
		src, rerr := os.ReadFile(path)
		if rerr != nil {
			b.Fatal(rerr)
		}
		progs = append(progs, core.MustLoad(filepath.Base(path), string(src), core.DefaultConfig))
	}
	for _, mode := range []struct {
		name        string
		parallelism int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			findings := 0
			for i := 0; i < b.N; i++ {
				findings = 0
				for _, p := range progs {
					rep, aerr := p.Analyze(analysis.Options{Parallelism: mode.parallelism})
					if aerr != nil {
						b.Fatal(aerr)
					}
					findings += len(rep.Findings)
				}
			}
			b.ReportMetric(float64(findings), "findings/run")
		})
	}
}

// BenchmarkAnalysisIncremental measures the incremental driver on the
// synthetic corpus (internal/corpus) at a moderate scale: a cold run that
// populates the fact store, a warm no-op re-run (pure probe cost), and a
// warm re-analysis after a one-function edit — the latency a `bitc analyze
// -watch` daemon pays per keystroke. The watch-edit rows time a whole edit
// on the 1000-function corpus, from the edited text to the report:
// core.LoadAnalysis (served from its memo) plus AnalyzeWithStore. Their
// two edits are a same-length constant edit and a statement inserted into
// function 500, which moves every later definition; the noop row
// re-analyses the unchanged text, the floor under every edit. The full-scale (~100k
// functions, >=20x) claim is enforced by TestIncrementalGate via
// scripts/check.sh.
func BenchmarkAnalysisIncremental(b *testing.B) {
	const nfuncs, cluster = 2000, 25
	src := corpus.Text(nfuncs, cluster)
	edited := corpus.EditOne(src, nfuncs/2)
	load := func(text string) *core.Program {
		p, err := core.LoadAnalysis("corpus.bitc", text)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	prog, eprog := load(src), load(edited)
	opts := analysis.Options{}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prog.AnalyzeWithStore(opts, factstore.New()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		store := factstore.New()
		if _, err := prog.AnalyzeWithStore(opts, store); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prog.AnalyzeWithStore(opts, store); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-one-edit", func(b *testing.B) {
		store := factstore.New()
		if _, err := prog.AnalyzeWithStore(opts, store); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Alternate between the two texts so every iteration really
			// re-keys one edited function instead of hitting everywhere.
			p := eprog
			if i%2 == 1 {
				p = prog
			}
			if _, err := p.AnalyzeWithStore(opts, store); err != nil {
				b.Fatal(err)
			}
		}
	})
	base := corpus.Text(1000, cluster)
	for _, edit := range []struct{ name, text string }{
		{"same-length", corpus.EditOne(base, 500)},
		{"insert", corpus.InsertStatement(base, 500)},
		// The floor every edit pays: the text does not change at all.
		{"noop", base},
	} {
		b.Run("watch-edit/"+edit.name, func(b *testing.B) {
			// Alternate between the two texts, so every load is an edit of
			// the one before (or, for noop, the same text again).
			texts := [2]string{base, edit.text}
			store := factstore.New()
			if _, err := load(base).AnalyzeWithStore(opts, store); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := load(texts[(i+1)%2]).AnalyzeWithStore(opts, store); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalysisAtomicity prices the transaction-safety pass family
// (BITC-ATOM001..004) over the pinned example corpus — the programs with
// real atomic regions, externs, shard locks, and retry loops — cold against
// a fresh fact store and warm out of a primed one. The warm row is what a
// `-watch` daemon pays to keep the atomicity verdicts current.
func BenchmarkAnalysisAtomicity(b *testing.B) {
	pinned, err := filepath.Glob("internal/core/testdata/analyze/*.bitc")
	if err != nil || len(pinned) == 0 {
		b.Fatalf("no pinned examples: %v", err)
	}
	var progs []*core.Program
	for _, path := range pinned {
		src, rerr := os.ReadFile(path)
		if rerr != nil {
			b.Fatal(rerr)
		}
		progs = append(progs, core.MustLoad(filepath.Base(path), string(src), core.DefaultConfig))
	}
	opts := analysis.Options{Enable: []string{"atomicity"}, Parallelism: 1}

	b.Run("cold", func(b *testing.B) {
		findings := 0
		for i := 0; i < b.N; i++ {
			findings = 0
			for _, p := range progs {
				rep, aerr := p.AnalyzeWithStore(opts, factstore.New())
				if aerr != nil {
					b.Fatal(aerr)
				}
				findings += len(rep.Findings)
			}
		}
		b.ReportMetric(float64(findings), "findings")
	})
	b.Run("warm", func(b *testing.B) {
		stores := make([]*factstore.Store, len(progs))
		for i, p := range progs {
			stores[i] = factstore.New()
			if _, err := p.AnalyzeWithStore(opts, stores[i]); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, p := range progs {
				if _, err := p.AnalyzeWithStore(opts, stores[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAnalysisBounds measures the relational bounds prover: kernels
// proves every site-bearing function of the E1 kernels, and corpus runs on
// a 1000-function site-free corpus with the vector kernels appended, where
// the engine runs on the kernels' site-bearing functions only. The
// discharged-site ratio is reported alongside the timing so a domain
// regression that silently stops proving sites is as visible as a slowdown.
func BenchmarkAnalysisBounds(b *testing.B) {
	var progs []*core.Program
	for _, name := range bench.KernelNames() {
		src, ok := bench.KernelSource(name)
		if !ok {
			b.Fatalf("no kernel %q", name)
		}
		progs = append(progs, core.MustLoad(name, src, core.DefaultConfig))
	}

	b.Run("kernels", func(b *testing.B) {
		sites, proved := 0, 0
		for i := 0; i < b.N; i++ {
			sites, proved = 0, 0
			for _, p := range progs {
				ps := analysis.BoundsProofs(p.AST, p.Info)
				sites += ps.Sites
				proved += ps.Proved
			}
		}
		b.ReportMetric(float64(sites), "sites")
		b.ReportMetric(float64(proved), "proved")
	})
	b.Run("corpus", func(b *testing.B) {
		src := corpus.Text(1000, 24)
		for _, name := range []string{"vector-sum", "insertion-sort"} {
			k, _ := bench.KernelSource(name)
			src += strings.Replace(k, "(define (entry ", "(define (entry-"+name+" ", 1)
		}
		p, err := core.LoadAnalysis("corpus.bitc", src)
		if err != nil {
			b.Fatal(err)
		}
		var ps *analysis.BoundsProofSet
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ps = analysis.BoundsProofs(p.AST, p.Info)
		}
		b.ReportMetric(float64(ps.Sites), "sites")
		b.ReportMetric(float64(ps.Proved), "proved")
	})
}

// BenchmarkFrontEnd measures each front-end layer on the 1000-function
// corpus with allocations reported: lex tokenizes, parse builds the AST,
// types type-checks a parsed program, compile lowers a checked program to
// IR, opt runs the O2 passes over a freshly compiled module (compiled with
// the timer stopped), and load runs core.Load end to end (front end plus
// compiler, optimiser and bounds prover). It lets a front-end change be
// measured layer by layer without the benchmark module.
func BenchmarkFrontEnd(b *testing.B) {
	const name = "corpus.bitc"
	src := corpus.Text(1000, 25)
	b.Run("lex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, diags := lexer.Tokenize(name, src); diags.HasErrors() {
				b.Fatal(diags)
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, diags := parser.Parse(name, src); diags.HasErrors() {
				b.Fatal(diags)
			}
		}
	})
	b.Run("types", func(b *testing.B) {
		prog, diags := parser.Parse(name, src)
		if diags.HasErrors() {
			b.Fatal(diags)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, diags := types.Check(prog); diags.HasErrors() {
				b.Fatal(diags)
			}
		}
	})
	b.Run("compile", func(b *testing.B) {
		prog, info := parseCheck(b, name, src)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, diags := compiler.Compile(prog, info, compiler.Options{}); diags.HasErrors() {
				b.Fatal(diags)
			}
		}
	})
	b.Run("opt", func(b *testing.B) {
		prog, info := parseCheck(b, name, src)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			mod, diags := compiler.Compile(prog, info, compiler.Options{})
			if diags.HasErrors() {
				b.Fatal(diags)
			}
			b.StartTimer()
			opt.Optimize(mod, opt.O2)
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Load(name, src, core.DefaultConfig); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// parseCheck parses and type-checks src for a benchmark's set-up.
func parseCheck(b *testing.B, name, src string) (*ast.Program, *types.Info) {
	b.Helper()
	prog, diags := parser.Parse(name, src)
	if diags.HasErrors() {
		b.Fatal(diags)
	}
	info, cdiags := types.Check(prog)
	if cdiags.HasErrors() {
		b.Fatal(cdiags)
	}
	return prog, info
}
