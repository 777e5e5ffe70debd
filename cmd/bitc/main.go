// Command bitc is the driver for the bitc toolchain: type-check, run,
// verify, analyse, and inspect bitc programs.
//
// Usage:
//
//	bitc check <file>            type-check only
//	bitc run [-boxed] [-contracts] [-seed N] [-profile cpu|alloc]
//	         [-dispatch fused|switch] [-trace out.json]
//	         [-top N] [-deterministic] [-bounds-elide] <file>
//	                             compile and execute main; optionally collect
//	                             a profile and/or a Perfetto-loadable trace.
//	                             -bounds-elide runs the relational bounds
//	                             prover at load time and drops the VM's
//	                             bounds checks at proven sites (identical
//	                             observable behaviour, fewer compares)
//	bitc top [-profile cpu|alloc] [-top N] <file>
//	                             run and print only the flat/cumulative
//	                             profile report
//	bitc verify <file>           generate + discharge verification conditions
//	bitc analyze [-json] [-enable LIST] [-disable LIST] [-severity S]
//	             [-watch [-interval D] [-metrics out.json] [-keep-runs N]]
//	             [-verify-cache] [-warm] <file>
//	                             run the unified static-analysis suite;
//	                             exits 1 if any error-severity finding.
//	                             -watch re-analyzes on change over a shared
//	                             incremental fact store and prints finding
//	                             deltas; -verify-cache checks warm == cold;
//	                             -warm renders a primed-cache re-analysis
//	bitc analyzers [-codes]      list registered analyzers (with -codes, print
//	                             just the BITC lint codes, one per line)
//	bitc serve [-shards N] [-users N] [-rate N] [-duration N] [-skew F]
//	           [-cross F] [-seed N] [-deterministic] [-metrics out.json]
//	           [-smoke] [-emit-program shard|twopc]
//	                             run the sharded STM transaction service
//	                             (internal/serve) under open-loop load and
//	                             report throughput, abort rate, and latency;
//	                             SIGINT/SIGTERM drains in-flight work before
//	                             exiting. -smoke is the fixed CI preset;
//	                             -emit-program prints a generated bitc
//	                             program (for self-analysis) and exits.
//	bitc dump-ir <file>          print the optimised IR
//	bitc disasm [-dispatch M] [-func NAME] <file>
//	                             print the decoded/fused dispatch listing
//	                             (see docs/vm.md) for one function or all
//	bitc dump-layout <file>      print struct layouts (packed/natural/boxed)
//	bitc fmt <file>              print the normalised program
//
// Analyzers (select with -enable/-disable; codes appear in findings):
//
//	atomicity  BITC-ATOM001..004  shared writes outside atomic regions,
//	                              irreversible effects inside atomics,
//	                              descending 2PC prepare order, nested
//	                              atomics and unbounded retry loops
//	bounds     BITC-BOUND001/002  relational vector-bounds verification:
//	                              provably out-of-range accesses (error) and
//	                              the undischarged remainder (under -strict)
//	deadlock   BITC-DLOCK001/002  lock-order cycles, re-entrant acquisition
//	deadstore  BITC-DEAD001/002   dead (alias-aware) stores, unused bindings
//	definit    BITC-INIT001       mutable locals read before first set!
//	escape     BITC-ESCAPE001/002 region values outliving their region;
//	                              uses after a region definitely exited
//	ffi        BITC-FFI001..003,  C-ABI boundary violations; PROV001 flags
//	           BITC-PROV001       capability-narrowing casts whose value
//	                              range exceeds the declared foreign window
//	race       BITC-RACE001       lockset data races (through aliases too)
//	truncate   BITC-TRUNC001/002  casts that can lose bits
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"bitc/internal/analysis"
	"bitc/internal/ast"
	"bitc/internal/core"
	"bitc/internal/layout"
	"bitc/internal/obs"
	"bitc/internal/opt"
	"bitc/internal/source"
	"bitc/internal/verify"
	"bitc/internal/vm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bitc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: bitc <check|run|top|verify|analyze|analyzers|serve|dump-ir|disasm|dump-layout|fmt|repl> [flags] <file>\n(try `bitc analyze -h` for the static-analysis suite and its lint codes)")
	}
	cmd, rest := args[0], args[1:]

	if cmd == "repl" {
		return repl(os.Stdin, os.Stdout)
	}
	if cmd == "analyzers" {
		return listAnalyzers(rest)
	}
	if cmd == "serve" {
		// serve takes no source file: the shard program is generated
		// internally (see internal/serve).
		return runServe(rest, os.Stdout)
	}

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	boxed := fs.Bool("boxed", false, "execute under the uniform boxed representation")
	dispatch := fs.String("dispatch", "fused", "interpreter dispatch strategy (fused|switch)")
	disasmFunc := fs.String("func", "", "disasm: function to list (default: all)")
	contracts := fs.Bool("contracts", false, "compile contracts into runtime checks")
	seed := fs.Uint64("seed", 0, "deterministic scheduler seed")
	quantum := fs.Int("quantum", 0, "instructions between preemption points (0 = VM default, 64)")
	olevel := fs.Int("O", 2, "optimisation level (0..2)")
	entry := fs.String("entry", "main", "entry function for run")
	noBounds := fs.Bool("no-bounds", false, "verify: skip vector bounds obligations")
	noDivZero := fs.Bool("no-divzero", false, "verify: skip division-by-zero obligations")
	jsonOut := fs.Bool("json", false, "analyze: shorthand for -format json")
	format := fs.String("format", "", "analyze: output format (pretty|json|sarif)")
	strict := fs.Bool("strict", false, "analyze: list findings muted by suppress forms / bitc:ignore comments")
	enable := fs.String("enable", "", "analyze: comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "analyze: comma-separated analyzers to skip")
	minSev := fs.String("severity", "note", "analyze: minimum severity to report (note|warning|error)")
	watch := fs.Bool("watch", false, "analyze: re-analyze on change (polling daemon over an incremental fact store)")
	interval := fs.Duration("interval", 500*time.Millisecond, "analyze: -watch poll interval")
	metricsOut := fs.String("metrics", "", "analyze: -watch maintains a bitc-metrics/v1 JSON file here (cold/warm analysisNs)")
	keepRuns := fs.Uint64("keep-runs", 8, "analyze: -watch evicts cached facts untouched for this many runs")
	verifyCacheFlag := fs.Bool("verify-cache", false, "analyze: check that a warm cached run renders byte-identically to a cold run, then exit")
	warm := fs.Bool("warm", false, "analyze: render a warm re-analysis from a primed fact store (the daemon's code path)")
	profile := fs.String("profile", "", "run/top: collect a profile along this dimension (cpu|alloc)")
	tracePath := fs.String("trace", "", "run: write a Chrome trace_event JSON file (load in Perfetto or chrome://tracing)")
	topN := fs.Int("top", 10, "run/top: number of functions shown in the profile report")
	deterministic := fs.Bool("deterministic", false, "run/top: omit wall-clock fields so observability output is byte-reproducible")
	boundsElide := fs.Bool("bounds-elide", false, "run/top/disasm: statically prove vector bounds and elide the VM's checks at discharged sites")
	if cmd == "analyze" {
		fs.Usage = func() {
			fmt.Fprintln(os.Stderr, "usage: bitc analyze [-format pretty|json|sarif] [-strict] [-enable LIST] [-disable LIST] [-severity S] <file>")
			fmt.Fprintln(os.Stderr, "exit status: 1 when any error-severity finding is reported")
			fs.PrintDefaults()
			fmt.Fprintln(os.Stderr, "\navailable analyzers:")
			for _, a := range analysis.Registry() {
				fmt.Fprintf(os.Stderr, "  %-10s %-34s %s\n", a.Name, strings.Join(a.Codes, ","), a.Doc)
			}
		}
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("%s needs exactly one source file", cmd)
	}
	path := fs.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}

	// analyze never needs compiled code: it parses + type-checks only
	// (core.LoadAnalysis) and dispatches to the one-shot, -warm,
	// -verify-cache, or -watch driver in watch.go.
	if cmd == "analyze" {
		opts := analysis.Options{Strict: *strict}
		if *enable != "" {
			opts.Enable = strings.Split(*enable, ",")
		}
		if *disable != "" {
			opts.Disable = strings.Split(*disable, ",")
		}
		switch *minSev {
		case "note":
			opts.MinSeverity = source.Note
		case "warning":
			opts.MinSeverity = source.Warning
		case "error":
			opts.MinSeverity = source.Error
		default:
			return fmt.Errorf("unknown -severity %q (want note, warning, or error)", *minSev)
		}
		outFormat := *format
		if outFormat == "" {
			if *jsonOut {
				outFormat = "json"
			} else {
				outFormat = "pretty"
			}
		}
		return runAnalyze(path, string(src), analyzeConfig{
			opts:     opts,
			format:   outFormat,
			watch:    *watch,
			interval: *interval,
			metrics:  *metricsOut,
			verify:   *verifyCacheFlag,
			warm:     *warm,
			keepRuns: *keepRuns,
		})
	}

	cfg := core.Config{
		Optimize:      opt.Level(*olevel),
		EmitContracts: *contracts,
		Seed:          *seed,
		Quantum:       *quantum,
		Stdout:        os.Stdout,
		BoundsElide:   *boundsElide,
	}
	if *boxed {
		cfg.Mode = vm.Boxed
	}
	switch *dispatch {
	case "fused":
		cfg.Dispatch = vm.DispatchFused
	case "switch":
		cfg.Dispatch = vm.DispatchSwitch
	default:
		return fmt.Errorf("unknown -dispatch %q (want fused or switch)", *dispatch)
	}

	dim, err := parseProfile(*profile)
	if err != nil {
		return err
	}
	var rec *obs.Recorder
	if cmd == "top" || (cmd == "run" && (*profile != "" || *tracePath != "")) {
		rec = vm.NewRecorder(obs.Options{
			Trace:         *tracePath != "",
			Deterministic: *deterministic,
		})
		cfg.Observer = rec
	}

	prog, err := core.Load(path, string(src), cfg)
	if err != nil {
		return err
	}

	switch cmd {
	case "check":
		fmt.Printf("%s: %d definitions OK (%d functions compiled)\n",
			path, len(prog.AST.Defs), len(prog.Module.Funcs))
		return nil

	case "run":
		val, machine, err := prog.RunFunc(*entry)
		if err != nil {
			return err
		}
		fmt.Printf("=> %s\n", val.String())
		s := machine.Stats
		fmt.Printf("[%s] instrs=%d calls=%d allocs=%d heap=%dB boxes=%d switches=%d ic=%d/%d\n",
			machine.Mode(), s.Instrs, s.Calls, s.Allocs, s.HeapBytes, s.BoxAllocs, s.Switches, s.ICHits, s.ICMisses)
		if prog.Proofs != nil {
			fmt.Printf("[bounds] %d/%d vector-access sites proven in range, checks elided\n",
				prog.Proofs.Proved, prog.Proofs.Sites)
		}
		return finishObs(rec, dim, *profile != "", *tracePath, *topN)

	case "top":
		if _, _, err := prog.RunFunc(*entry); err != nil {
			return err
		}
		rec.Finish()
		return rec.WriteReport(os.Stdout, dim, *topN)

	case "verify":
		vopts := verify.Options{CheckBounds: !*noBounds, CheckDivZero: !*noDivZero}
		rep := prog.Verify(vopts)
		for _, vc := range rep.VCs {
			status := "PROVED"
			if !vc.Result.Proved {
				status = "FAILED"
			}
			fmt.Printf("%-7s [%s] %s: %s (%s)\n", status, vc.Kind, vc.Func, vc.Desc, vc.Result.Duration)
			if !vc.Result.Proved {
				fmt.Printf("        counterexample facts: %v\n", vc.Result.Counterexample)
			}
		}
		fmt.Println(rep.Summary())
		if rep.Failed > 0 {
			return fmt.Errorf("%d verification conditions failed", rep.Failed)
		}
		return nil

	case "dump-ir":
		fmt.Print(prog.DumpIR())
		return nil

	case "disasm":
		machine := prog.NewVM()
		names := []string{*disasmFunc}
		if *disasmFunc == "" {
			names = names[:0]
			for _, f := range prog.Module.Funcs {
				names = append(names, f.Name)
			}
		}
		for i, name := range names {
			listing, derr := machine.DisasmFunc(name)
			if derr != nil {
				return derr
			}
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(listing)
		}
		return nil

	case "dump-layout":
		names := make([]string, 0, len(prog.Info.Structs))
		for name := range prog.Info.Structs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, mode := range []layout.Mode{layout.Natural, layout.Packed, layout.Boxed} {
				l, lerr := prog.LayoutOf(name, mode)
				if lerr != nil {
					return lerr
				}
				fmt.Print(l.Describe())
			}
		}
		unames := make([]string, 0, len(prog.Info.Unions))
		for name := range prog.Info.Unions {
			unames = append(unames, name)
		}
		sort.Strings(unames)
		for _, name := range unames {
			ul, lerr := layout.OfUnion(prog.Info.Unions[name], layout.Natural)
			if lerr != nil {
				return lerr
			}
			fmt.Printf("union %s: size=%d align=%d tag=%dB arms=%d\n",
				name, ul.Size, ul.Align, ul.TagSize, len(ul.Arms))
		}
		return nil

	case "fmt":
		fmt.Println(ast.PrintProgram(prog.AST))
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// parseProfile maps the -profile flag to a report dimension. The empty
// string selects CPU so -trace without -profile still records sensibly.
func parseProfile(s string) (obs.Profile, error) {
	switch s {
	case "", "cpu":
		return obs.ProfileCPU, nil
	case "alloc":
		return obs.ProfileAlloc, nil
	default:
		return obs.ProfileCPU, fmt.Errorf("unknown -profile %q (want cpu or alloc)", s)
	}
}

// finishObs settles the recorder after a run and writes whatever outputs
// were requested: a Chrome trace file and/or a profile report on stdout.
func finishObs(rec *obs.Recorder, dim obs.Profile, report bool, tracePath string, topN int) error {
	if rec == nil {
		return nil
	}
	rec.Finish()
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: wrote %d events to %s (%d dropped)\n",
			len(rec.Events()), tracePath, rec.Dropped())
	}
	if report {
		fmt.Println()
		return rec.WriteReport(os.Stdout, dim, topN)
	}
	return nil
}

// listAnalyzers implements `bitc analyzers`: the human-readable registry
// listing, or (with -codes) the machine-readable lint-code inventory that
// scripts/docs-check.sh diffs against docs/lint-codes.md.
func listAnalyzers(args []string) error {
	fs := flag.NewFlagSet("analyzers", flag.ContinueOnError)
	codes := fs.Bool("codes", false, "print just the BITC lint codes, one per line")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("analyzers takes no file arguments")
	}
	if *codes {
		var all []string
		for _, a := range analysis.Registry() {
			all = append(all, a.Codes...)
		}
		sort.Strings(all)
		for _, c := range all {
			fmt.Println(c)
		}
		return nil
	}
	for _, a := range analysis.Registry() {
		fmt.Printf("%-10s %-34s %s\n", a.Name, strings.Join(a.Codes, ","), a.Doc)
	}
	return nil
}
