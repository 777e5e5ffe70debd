package types_test

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"testing"

	bitcast "bitc/internal/ast"
	"bitc/internal/corpus"
	"bitc/internal/parser"
	"bitc/internal/types"
)

// Bounds on the checker's work per unit of output. Both hold at every size,
// so the cost of checking grows with the program and not faster: a Link
// chain walked again and again, or a scope lookup that walks every
// enclosing scope, would push the ratios up with N.
const (
	maxHopsPerEntry  = 5.0 // Link hops per recorded expression type
	maxProbesPerVRef = 3.0 // scope-table lookups per variable reference
)

// TestCheckLinearCost checks the four scaling shapes at growing sizes and
// bounds the checker's deterministic work counters, not its wall time.
//
// What the counters cannot see: hops counts only the Link hops walked inside
// the unifier's find, so a checker path that pruned through the exported,
// read-only Prune would loop uncounted (TestCheckerPrunesThroughFind rules
// that out); probes counts scope-table lookups, one per call, so it bounds
// lookups per reference, not the work inside one. The table is a single map,
// so a lookup is one probe by construction; a return to a scope chain would
// show only in the wall time.
func TestCheckLinearCost(t *testing.T) {
	shapes := []struct {
		name  string
		gen   func(int) string
		sizes []int
	}{
		{"set-body", corpus.SetBodyShape, []int{1000, 4000, 16000}},
		{"nest", corpus.NestShape, []int{5000, 20000}},
		{"let", corpus.LetShape, []int{1000, 4000}},
		{"if", corpus.IfShape, []int{1000, 4000}},
	}
	for _, sh := range shapes {
		for _, n := range sh.sizes {
			name := fmt.Sprintf("%s-%d", sh.name, n)
			prog, diags := parser.Parse(name, sh.gen(n))
			if diags.HasErrors() {
				t.Fatalf("%s: parse: %v", name, diags)
			}
			info, cdiags, hops, probes := types.CheckCounted(prog)
			if cdiags.HasErrors() {
				t.Fatalf("%s: check: %v", name, cdiags)
			}
			entries := 0
			for _, ty := range info.Types {
				if ty != nil {
					entries++
				}
			}
			refs := 0
			for _, d := range prog.Defs {
				bitcast.WalkDef(d, func(e bitcast.Expr) bool {
					if _, ok := e.(*bitcast.VarRef); ok {
						refs++
					}
					return true
				})
			}
			if entries < n || refs < n {
				t.Fatalf("%s: only %d typed expressions and %d references", name, entries, refs)
			}
			hpe := float64(hops) / float64(entries)
			ppr := float64(probes) / float64(refs)
			t.Logf("%s: %d entries, %.2f hops each; %d references, %.2f probes each", name, entries, hpe, refs, ppr)
			if hpe > maxHopsPerEntry {
				t.Errorf("%s: %.2f Link hops per Info entry, want <= %.0f", name, hpe, maxHopsPerEntry)
			}
			if ppr > maxProbesPerVRef {
				t.Errorf("%s: %.2f scope probes per VarRef, want <= %.0f", name, ppr, maxProbesPerVRef)
			}
		}
	}
}

// TestInfoTypesAreRepresentatives checks that Check leaves every type in
// Info.Types and Info.Globals at its representative, so a Prune after
// Check (which the parallel analyzers call on shared types) walks no chain.
func TestInfoTypesAreRepresentatives(t *testing.T) {
	for _, in := range pinInputs(t) {
		prog, _ := parser.Parse(in.name, in.text)
		info, _ := types.Check(prog)
		for id, ty := range info.Types {
			if ty != nil && types.Prune(ty) != ty {
				t.Errorf("%s: expression %d has a linked type", in.name, id)
			}
		}
		for n, ty := range info.Globals {
			if types.Prune(ty) != ty {
				t.Errorf("%s: global %s has a linked type", in.name, n)
			}
		}
	}
}

// TestCheckerPrunesThroughFind reads the checker's source and fails if any
// of it resolves a type through the exported Prune instead of the
// unifier's counted, path-compressing find. TypeOf is the one exception:
// it reads Info after Check, when every entry is already a representative.
// Prune's other callers in types.go (IsInt, IsNumeric, String) are
// read-only helpers for later stages, so this test also fails if checker
// or unifier code calls them.
func TestCheckerPrunesThroughFind(t *testing.T) {
	fset := token.NewFileSet()
	for _, file := range []string{"check.go", "types.go", "env.go"} {
		f, err := goparser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checker := file == "check.go" || receiverIs(fn, "unifier") || fn.Name.Name == "satisfies"
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch f := call.Fun.(type) {
				case *ast.Ident:
					if f.Name == "Prune" && checker && fn.Name.Name != "TypeOf" {
						t.Errorf("%s: %s calls Prune; use the unifier's find", fset.Position(call.Pos()), fn.Name.Name)
					}
				case *ast.SelectorExpr:
					if checker && (f.Sel.Name == "IsInt" || f.Sel.Name == "IsNumeric") {
						t.Errorf("%s: %s calls %s, which prunes uncounted", fset.Position(call.Pos()), fn.Name.Name, f.Sel.Name)
					}
				}
				return true
			})
		}
	}
}

// receiverIs reports whether fn is a method on *name.
func receiverIs(fn *ast.FuncDecl, name string) bool {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return false
	}
	star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == name
}
