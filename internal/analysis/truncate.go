package analysis

import (
	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/dataflow/interval"
	"bitc/internal/source"
	"bitc/internal/types"
)

// The truncate analyzer flags explicit-width casts that can lose bits. It
// reads each cast operand's range off the relational bounds engine
// (bounds.go), run without a points-to graph, so inside `(if (< x 256) ...)`
// a `(cast uint8 x)` is clean while the same cast outside is flagged.

// Truncation lint codes.
const (
	CodeTruncate   = "BITC-TRUNC001" // integer cast may discard significant bits
	CodeFloatTrunc = "BITC-TRUNC002" // float-to-int cast discards the fraction
)

var truncateAnalyzer = register(&Analyzer{
	Name:        "truncate",
	Doc:         "explicit-width casts that can lose bits (branch-refined value ranges)",
	Code:        CodeTruncate,
	Codes:       []string{CodeTruncate, CodeFloatTrunc},
	PerFunction: true,
	NeedsCFG:    true,
	Run:         runTruncate,
})

func runTruncate(p *Pass) {
	eng := newBoundsEngine(p.Info, p.CFG(nil), nil, p.Fn.Name)
	eng.replay(func(env boundsEnv, a cfg.Atom) {
		if cast, ok := a.Expr.(*ast.Cast); ok && a.Op == cfg.OpEval {
			checkCast(p, eng, env, cast)
		}
	})
}

func checkCast(p *Pass, eng *boundsEngine, env boundsEnv, cast *ast.Cast) {
	src := p.Info.TypeOf(cast.Expr)
	dst := p.Info.TypeOf(cast)
	switch {
	case src.Kind == types.KFloat && dst.Kind == types.KInt:
		p.Reportf(CodeFloatTrunc, source.Note, cast.Span(),
			"cast from %s to %s discards the fractional part and may overflow", src, dst)
	case intLike(src) && intLike(dst):
		// The engine keeps 64-bit +/- exact, but the VM wraps them: an
		// operand outside its own type may hold any value of that type.
		sr, dr := eng.evalFact(env, cast.Expr).rng, typeRange(dst)
		if !sr.Within(typeRange(src)) {
			sr = typeRange(src)
		}
		if !sr.Within(dr) {
			p.Reportf(CodeTruncate, source.Warning, cast.Span(),
				"cast from %s to %s may truncate: source range %s exceeds target range %s",
				src, dst, sr, dr)
		}
	}
}

func intLike(t *types.Type) bool {
	return t.Kind == types.KInt || t.Kind == types.KChar
}

// typeRange returns the representable interval of an integer-like type, or
// nil for types without one. The result always has finite bounds.
func typeRange(t *types.Type) *interval.I {
	switch t.Kind {
	case types.KChar:
		return interval.Of(0, 0x10FFFF)
	case types.KInt:
		bits := t.Bits
		if bits == 0 {
			bits = 64
		}
		if t.Signed {
			return interval.Signed(bits)
		}
		return interval.Unsigned(bits)
	}
	return nil
}
