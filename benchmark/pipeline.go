package main

import (
	"fmt"

	"bitc/internal/analysis"
	"bitc/internal/ast"
	"bitc/internal/compiler"
	"bitc/internal/core"
	"bitc/internal/ir"
	"bitc/internal/lexer"
	"bitc/internal/opt"
	"bitc/internal/parser"
	"bitc/internal/source"
	"bitc/internal/types"
)

// loadCfg is how every workload loads a program: O2 with bounds elision.
var loadCfg = core.Config{Optimize: opt.O2, BoundsElide: true}

// staged is what loadStaged builds: core.Load's result plus the IR size
// before optimisation, which core.Load does not keep.
type staged struct {
	prog       *ast.Program
	mod        *ir.Module
	opt        *opt.Result
	proofs     *analysis.BoundsProofSet
	irCompiled int
}

// loadStaged does what core.Load does, one public stage call at a time, each
// as a child span of parent. The stages and their order must stay those of
// core.Load, or the traced load would measure a different program.
func loadStaged(t *tracer, parent int, name, src string, cfg core.Config) (*staged, error) {
	prog, info, err := analysisStaged(t, parent, name, src)
	if err != nil {
		return nil, err
	}
	s := &staged{prog: prog}
	var diags *source.Diagnostics
	t.child(parent, "compiler", func() {
		s.mod, diags = compiler.Compile(prog, info, compiler.Options{EmitContracts: cfg.EmitContracts})
	})
	if err := diags.ErrOrNil(); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	s.irCompiled = irInstrs(s.mod)
	t.child(parent, "opt", func() { s.opt = opt.Optimize(s.mod, cfg.Optimize) })
	if cfg.BoundsElide {
		t.child(parent, "analysis.bounds", func() { s.proofs = analysis.BoundsProofs(prog, info) })
	}
	return s, nil
}

// analysisStaged does what core.LoadAnalysis does, and core.Load first, one
// stage per child span.
func analysisStaged(t *tracer, parent int, name, src string) (*ast.Program, *types.Info, error) {
	var prog *ast.Program
	var info *types.Info
	var diags *source.Diagnostics
	t.child(parent, "parser", func() { prog, diags = parser.Parse(name, src) })
	if err := diags.ErrOrNil(); err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	t.child(parent, "types", func() { info, diags = types.Check(prog) })
	if err := diags.ErrOrNil(); err != nil {
		return nil, nil, fmt.Errorf("typecheck: %w", err)
	}
	return prog, info, nil
}

// lexOp times lexer.Tokenize on src as an operation of its own, so that
// lexing can be told apart from the parsing that includes it, and records
// the token count and the lexer's cost per token.
func (r *run) lexOp(name, src string) {
	var toks []lexer.Token
	var diags *source.Diagnostics
	_, d, _ := r.tr.root("lexer", "lexer", func(int) error {
		toks, diags = lexer.Tokenize(name, src)
		return nil
	})
	err := diags.ErrOrNil()
	r.verify("lexer", err)
	if err == nil {
		r.layer["lexer.tokens"] = float64(len(toks))
		r.lexNS = append(r.lexNS, float64(d.Nanoseconds())/float64(len(toks)))
	}
}

// irInstrs counts a module's IR instructions, terminators excluded.
func irInstrs(mod *ir.Module) int {
	n := 0
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// countFuncs counts a program's top-level functions.
func countFuncs(prog *ast.Program) int {
	n := 0
	for _, d := range prog.Defs {
		if _, ok := d.(*ast.DefineFunc); ok {
			n++
		}
	}
	return n
}

// addProgramCounts adds one loaded program's compiler, optimiser and
// bounds-prover counts to the per-layer metrics.
func (r *run) addProgramCounts(s *staged) {
	add := func(name string, v int) { r.layer[name] += float64(v) }
	add("compiler.ir_instrs", s.irCompiled)
	add("opt.ir_instrs", irInstrs(s.mod))
	add("opt.const_folded", s.opt.ConstFolded)
	add("opt.copies_removed", s.opt.CopiesRemoved)
	add("opt.dead_removed", s.opt.DeadRemoved)
	add("opt.inlined", s.opt.Inlined)
	add("opt.cse_replaced", s.opt.CSEReplaced)
	add("opt.branches_folded", s.opt.BranchesFolded)
	if s.proofs != nil {
		add("analysis.bounds_sites", s.proofs.Sites)
		add("analysis.bounds_proved", s.proofs.Proved)
	}
	add("program.funcs", countFuncs(s.prog))
}
