package analysis

import (
	"slices"

	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/dataflow/interval"
	"bitc/internal/source"
	"bitc/internal/types"
)

// The ffi analyzer guards the simulated C ABI (internal/ffi). Three things
// go wrong at that boundary:
//
//   - BITC-FFI001: an external is declared with a parameter or result type
//     that cannot cross the C ABI by value (structs, vectors, strings,
//     channels, functions) — those need an explicit marshalling codec;
//   - BITC-FFI002: an external is called inside an (atomic ...) transaction;
//     foreign side effects cannot be rolled back when the STM retries;
//   - BITC-FFI003: a region-allocated value is passed to an external, which
//     may retain the pointer past the region's dynamic extent (unpinned).
//   - BITC-PROV001: capability narrowing — a cast at an external call site
//     squeezes a value whose statically known bounds exceed the declared
//     parameter window, so the foreign side receives punned bits with no
//     record of the value's provenance. References cannot cross the ABI at
//     all (FFI001), so the scalar windows are the boundary's capabilities,
//     and a lossy cast into one is this language's int↔pointer pun. The
//     check runs the bounds engine's relational ranges, so a guarded cast
//     ((when (< x 256) ...)) does not fire.

// FFI lint codes.
const (
	CodeFFIType   = "BITC-FFI001"
	CodeFFIAtomic = "BITC-FFI002"
	CodeFFIRegion = "BITC-FFI003"
	CodeFFIProv   = "BITC-PROV001"
)

var ffiAnalyzer = register(&Analyzer{
	Name:  "ffi",
	Doc:   "C-ABI boundary checks: unmarshallable types, externals under STM, unpinned region values, capability-narrowing casts",
	Code:  CodeFFIType,
	Codes: []string{CodeFFIType, CodeFFIAtomic, CodeFFIRegion, CodeFFIProv},
	Run:   runFFI,
})

// cScalar reports whether t can cross the simulated C ABI by value.
func cScalar(t *types.Type) bool {
	switch types.Prune(t).Kind {
	case types.KUnit, types.KBool, types.KChar, types.KInt, types.KFloat:
		return true
	}
	return false
}

func runFFI(p *Pass) {
	for _, ext := range p.Info.Externals {
		sch, ok := p.Info.Funcs[ext.Name]
		if !ok {
			continue
		}
		ft := types.Prune(sch.Type)
		if ft.Kind != types.KFn {
			continue
		}
		for i, pt := range ft.Params {
			if !cScalar(pt) {
				p.Reportf(CodeFFIType, source.Error, ext.Span(),
					"external %s: parameter %d has type %s, which cannot cross the C ABI by value (marshal it through a codec)",
					ext.Name, i+1, types.Prune(pt))
			}
		}
		if !cScalar(ft.Result) {
			p.Reportf(CodeFFIType, source.Error, ext.Span(),
				"external %s: result type %s cannot cross the C ABI by value (marshal it through a codec)",
				ext.Name, types.Prune(ft.Result))
		}
	}
	if len(p.Info.Externals) == 0 {
		return
	}

	w := &ffiWalker{pass: p,
		funcs: map[string]*ast.DefineFunc{}, memo: map[string]bool{}}
	for _, d := range p.Prog.Defs {
		if fn, ok := d.(*ast.DefineFunc); ok {
			w.funcs[fn.Name] = fn
		}
	}
	for _, d := range p.Prog.Defs {
		if fn, ok := d.(*ast.DefineFunc); ok {
			w.walkFunc(fn, false, 0)
		}
	}
	runFFIProv(p)
}

// runFFIProv implements BITC-PROV001. For every function that calls an
// external directly, the bounds engine's relational ranges are solved over
// the function's CFG and each cast argument at an external call site is
// compared against the declared parameter window: if the pre-cast value's
// statically known range does not fit the window, the cast narrows a
// capability at the boundary. Points-to facts are not needed — windows are
// scalar — so the engine runs object-graph-free.
func runFFIProv(p *Pass) {
	windows := map[string][]*interval.I{}
	for _, ext := range p.Info.Externals {
		sch, ok := p.Info.Funcs[ext.Name]
		if !ok {
			continue
		}
		ft := types.Prune(sch.Type)
		if ft.Kind != types.KFn {
			continue
		}
		ws := make([]*interval.I, len(ft.Params))
		for i, pt := range ft.Params {
			ws[i] = typeRange(pt)
		}
		windows[ext.Name] = ws
	}
	if len(windows) == 0 {
		return
	}
	for _, d := range p.Prog.Defs {
		fn, ok := d.(*ast.DefineFunc)
		if !ok || !callsAny(fn, windows) {
			continue
		}
		eng := newBoundsEngine(p.Info, cfg.Build(fn, p.Info), nil, fn.Name)
		eng.replay(func(env boundsEnv, a cfg.Atom) {
			if call, ok := a.Expr.(*ast.Call); ok && a.Op == cfg.OpCall && windows[a.Name] != nil {
				checkProvCall(p, eng, env, a.Name, call, windows[a.Name])
			}
		})
	}
}

func checkProvCall(p *Pass, eng *boundsEngine, env boundsEnv, ext string, call *ast.Call, ws []*interval.I) {
	for i, arg := range call.Args {
		if i >= len(ws) || ws[i] == nil {
			continue
		}
		cast, ok := arg.(*ast.Cast)
		if !ok {
			continue
		}
		f := eng.evalFact(env, cast.Expr)
		if f == nil || f.rng.Within(ws[i]) {
			continue
		}
		p.Reportf(CodeFFIProv, source.Warning, arg.Span(),
			"external %s: argument %d narrows a value with statically known range %s into the declared window %s; the foreign side receives punned bits with no provenance",
			ext, i+1, f.rng, ws[i])
	}
}

// callsAny reports whether fn's body contains a direct call to any of the
// named externals — the cheap pre-filter before building a CFG.
func callsAny(fn *ast.DefineFunc, names map[string][]*interval.I) bool {
	found := false
	for _, e := range fn.Body {
		ast.Walk(e, func(sub ast.Expr) bool {
			if found {
				return false
			}
			if c, ok := sub.(*ast.Call); ok {
				if v, ok := c.Fn.(*ast.VarRef); ok && names[v.Name] != nil {
					found = true
					return false
				}
			}
			return true
		})
	}
	return found
}

type ffiWalker struct {
	pass  *Pass
	funcs map[string]*ast.DefineFunc
	memo  map[string]bool
}

func (w *ffiWalker) walkFunc(fn *ast.DefineFunc, inAtomic bool, depth int) {
	if depth > 8 {
		return
	}
	key := fn.Name
	if inAtomic {
		key += "|atomic"
	}
	if w.memo[key] {
		return
	}
	w.memo[key] = true
	// Region taint is tracked per function: the locals, by binding number,
	// let-bound to (alloc-in r e), mapped to r's name.
	taint := map[int32]string{}
	for _, e := range fn.Body {
		w.walk(e, fn, inAtomic, taint, depth)
	}
}

// regionOf resolves the region whose allocation flows into e, shallowly.
func (w *ffiWalker) regionOf(e ast.Expr, taint map[int32]string) string {
	switch e := e.(type) {
	case *ast.AllocIn:
		return e.Region
	case *ast.VarRef:
		if n := w.pass.Info.Bind(e); n != 0 {
			return taint[n]
		}
	case *ast.Begin:
		if n := len(e.Body); n > 0 {
			return w.regionOf(e.Body[n-1], taint)
		}
	}
	return ""
}

func (w *ffiWalker) walk(e ast.Expr, fn *ast.DefineFunc, inAtomic bool, taint map[int32]string, depth int) {
	switch e := e.(type) {
	case *ast.Atomic:
		for _, b := range e.Body {
			w.walk(b, fn, true, taint, depth)
		}
	case *ast.Let:
		for _, b := range e.Bindings {
			w.walk(b.Init, fn, inAtomic, taint, depth)
			if r := w.regionOf(b.Init, taint); r != "" {
				taint[b.Bind] = r
			}
		}
		for _, b := range e.Body {
			w.walk(b, fn, inAtomic, taint, depth)
		}
	case *ast.Call:
		if v, ok := e.Fn.(*ast.VarRef); ok {
			sym := w.pass.Info.Use(v)
			if sym != nil && sym.Kind == types.SymExternal {
				if inAtomic {
					w.pass.Reportf(CodeFFIAtomic, source.Warning, e.Span(),
						"external %s called inside an atomic transaction: foreign side effects cannot be rolled back", v.Name)
				}
				var regions []string
				for _, arg := range e.Args {
					if r := w.regionOf(arg, taint); r != "" && !slices.Contains(regions, r) {
						regions = append(regions, r)
					}
				}
				for _, r := range regions {
					w.pass.Reportf(CodeFFIRegion, source.Warning, e.Span(),
						"value allocated in region %s passed to external %s without pinning: the C side may retain it past the region's extent", r, v.Name)
				}
			} else if sym != nil && sym.Kind == types.SymFunc && w.funcs[v.Name] != nil {
				w.walkFunc(w.funcs[v.Name], inAtomic, depth+1)
			}
		}
		for _, arg := range e.Args {
			w.walk(arg, fn, inAtomic, taint, depth)
		}
	case *ast.Spawn:
		// A spawned thread starts outside any transaction of the parent.
		w.walk(e.Expr, fn, false, taint, depth)
	default:
		ast.Walk(e, func(sub ast.Expr) bool {
			if sub == e {
				return true
			}
			w.walk(sub, fn, inAtomic, taint, depth)
			return false
		})
	}
}
