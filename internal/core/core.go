// Package core is bitc's public API: one call to load (parse, type-check,
// compile, optimise) a program, and methods to run it on the VM, verify its
// contracts, run the unified static-analysis suite, and inspect layouts
// and IR.
//
// This is the surface a downstream user of the reproduction works against;
// the cmd/ tools and examples/ are all thin wrappers over it.
package core

import (
	"fmt"
	"io"

	"bitc/internal/analysis"
	"bitc/internal/ast"
	"bitc/internal/compiler"
	"bitc/internal/concurrent"
	"bitc/internal/factstore"
	"bitc/internal/ir"
	"bitc/internal/layout"
	"bitc/internal/obs"
	"bitc/internal/opt"
	"bitc/internal/parser"
	"bitc/internal/pointsto"
	"bitc/internal/types"
	"bitc/internal/verify"
	"bitc/internal/vm"
)

// Config controls compilation and execution.
type Config struct {
	// Optimize selects the optimisation level (default O2).
	Optimize opt.Level
	// EmitContracts compiles :requires/:ensures into runtime checks.
	EmitContracts bool

	// Mode selects the VM value representation (default Unboxed).
	Mode vm.RepMode
	// Dispatch selects the interpreter dispatch strategy (default
	// DispatchFused: specialized handlers with superinstruction fusion).
	Dispatch vm.DispatchMode
	// Seed drives the deterministic scheduler.
	Seed uint64
	// Quantum is the preemption interval in instructions (default 64).
	Quantum int
	// MaxSteps bounds execution (0 = unlimited).
	MaxSteps uint64
	// Stdout receives print/println output (default: discarded).
	Stdout io.Writer
	// Observer attaches a runtime observability recorder (tracing,
	// profiling, metrics) to every VM the program creates; nil disables
	// observability. See internal/obs and vm.NewRecorder.
	Observer *obs.Recorder
	// BoundsElide runs the relational bounds prover at load time and elides
	// the VM's bounds checks at every vector-access site the prover
	// discharged. Elision never changes observable behaviour — values,
	// traps, and instrumentation counters are identical — it only removes
	// the fast-path compare at proven sites.
	BoundsElide bool
}

// DefaultConfig compiles at O2 with unboxed representation.
var DefaultConfig = Config{Optimize: opt.O2}

// Program is a loaded bitc program.
type Program struct {
	Name   string
	AST    *ast.Program
	Info   *types.Info
	Module *ir.Module
	Opt    *opt.Result
	// Proofs is the bounds prover's site classification, populated when the
	// config asked for BoundsElide (nil otherwise).
	Proofs *analysis.BoundsProofSet

	cfg Config
}

// Load parses, type-checks, compiles, and optimises source text.
func Load(name, src string, cfg Config) (*Program, error) {
	prog, diags := parser.Parse(name, src)
	if err := diags.ErrOrNil(); err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	info, cdiags := types.Check(prog)
	if err := cdiags.ErrOrNil(); err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	mod, mdiags := compiler.Compile(prog, info, compiler.Options{EmitContracts: cfg.EmitContracts})
	if err := mdiags.ErrOrNil(); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	res := opt.Optimize(mod, cfg.Optimize)
	p := &Program{Name: name, AST: prog, Info: info, Module: mod, Opt: res, cfg: cfg}
	if cfg.BoundsElide {
		p.Proofs = analysis.BoundsProofs(prog, info)
	}
	return p, nil
}

// LoadAnalysis parses and type-checks source text without compiling it —
// the front half of Load, for tools that only run the static analyzers
// (bitc analyze, the watch daemon). Module and Opt are nil on the result;
// only Analyze/AnalyzeWithStore, Verify, Races, and LayoutOf are usable.
//
// LoadAnalysis remembers the last program it loaded without error, and
// loads an edit of it (the same name, other text) by redoing only the
// definitions the edit touched: it parses the bytes between the prefix and
// the suffix the two texts share, and when the edit changed only function
// bodies in a program whose signatures, globals and fields all had
// concrete types before any body was checked, it re-checks only those
// bodies. Anything else takes a full type check or a
// cold load. The result, and any error text, is what a cold load of the
// same text gives, but for the numbering of the expressions
// (ast.Expr.ExprID), which need not follow pre-order. The same text again
// gives a new Program over the same AST and Info. Programs returned
// earlier stay valid and unchanged: no AST node or Info is written after
// its load. See docs/incremental.md, "The front end". Load never uses the
// memo.
func LoadAnalysis(name, src string) (*Program, error) {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	prog, info, err := memo.load(name, src)
	if err != nil {
		return nil, err
	}
	return &Program{Name: name, AST: prog, Info: info, cfg: DefaultConfig}, nil
}

// MustLoad is Load, panicking on error (for examples and tests).
func MustLoad(name, src string, cfg Config) *Program {
	p, err := Load(name, src, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// NewVM creates a fresh VM for the program with the program's config.
func (p *Program) NewVM() *vm.VM {
	opts := vm.Options{
		Mode:     p.cfg.Mode,
		Dispatch: p.cfg.Dispatch,
		Seed:     p.cfg.Seed,
		Quantum:  p.cfg.Quantum,
		MaxSteps: p.cfg.MaxSteps,
		Stdout:   p.cfg.Stdout,
		Observer: p.cfg.Observer,
	}
	if p.Proofs != nil {
		opts.BoundsElide = p.Proofs.Elidable()
	}
	return vm.New(p.Module, opts)
}

// Run executes main on a fresh VM, returning its value and the VM (for
// stats inspection).
func (p *Program) Run() (vm.Value, *vm.VM, error) {
	machine := p.NewVM()
	val, err := machine.Run()
	return val, machine, err
}

// RunFunc executes a named function with arguments on a fresh VM.
func (p *Program) RunFunc(name string, args ...vm.Value) (vm.Value, *vm.VM, error) {
	machine := p.NewVM()
	val, err := machine.RunFunc(name, args...)
	return val, machine, err
}

// Verify generates and discharges every verification condition.
func (p *Program) Verify(opts verify.Options) *verify.Report {
	return verify.Program(p.AST, p.Info, opts)
}

// Analyze runs the unified static-analysis driver (lockset races, region
// escapes, deadlock ordering, definite initialization, truncating casts,
// dead stores, FFI boundary) and returns the combined findings.
func (p *Program) Analyze(opts analysis.Options) (*analysis.Report, error) {
	return analysis.Run(p.AST, p.Info, opts)
}

// AnalyzeWithStore runs the incremental analysis driver against a fact
// store shared across calls: facts whose content keys still match are
// served from cache, everything an edit invalidated is recomputed. The
// report is byte-identical to Analyze's. A nil store degenerates to
// Analyze.
func (p *Program) AnalyzeWithStore(opts analysis.Options, store *factstore.Store) (*analysis.Report, error) {
	return analysis.RunWithStore(p.AST, p.Info, opts, store)
}

// Races reports the shared accesses and lockset races that the analysis
// driver's race checker (BITC-RACE001) derives from its function summaries.
func (p *Program) Races() *concurrent.Report {
	s := analysis.ComputeSummaries(p.AST, p.Info, pointsto.Analyze(p.AST, p.Info, nil))
	return &concurrent.Report{Accesses: s.SharedAccesses, Races: s.Races}
}

// LayoutOf computes the layout of a named struct under a representation mode.
func (p *Program) LayoutOf(structName string, mode layout.Mode) (*layout.StructLayout, error) {
	si, ok := p.Info.Structs[structName]
	if !ok {
		return nil, fmt.Errorf("no struct %s", structName)
	}
	return layout.Of(si, mode)
}

// DumpIR renders the compiled module.
func (p *Program) DumpIR() string { return p.Module.String() }
