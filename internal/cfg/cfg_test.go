package cfg_test

import (
	"strings"
	"testing"

	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/parser"
	"bitc/internal/types"
)

// buildFn parses src and builds the CFG of the named function.
func buildFn(t *testing.T, src, name string) *cfg.Graph {
	t.Helper()
	prog, diags := parser.Parse("t.bitc", src)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	info, cdiags := types.Check(prog)
	if cdiags.HasErrors() {
		t.Fatalf("check: %v", cdiags)
	}
	for _, d := range prog.Defs {
		if fn, ok := d.(*ast.DefineFunc); ok && fn.Name == name {
			return cfg.Build(fn, info)
		}
	}
	t.Fatalf("no function %s", name)
	return nil
}

// atomNames lists what the op atoms name, as Graph.String renders them.
func atomNames(g *cfg.Graph, op cfg.Op) []string {
	var out []string
	for _, b := range g.Blocks {
		for _, a := range b.Atoms {
			if a.Op != op {
				continue
			}
			if a.Var != 0 {
				out = append(out, g.Name(a.Var))
			} else {
				out = append(out, a.Name)
			}
		}
	}
	return out
}

// decl returns the tracked binder g renders as name, or nil.
func decl(g *cfg.Graph, name string) *cfg.Decl {
	for _, d := range g.Decls {
		if d != nil && g.Name(d.Bind) == name {
			return d
		}
	}
	return nil
}

func TestStraightLineSingleBlock(t *testing.T) {
	g := buildFn(t, `
(define (f (a int64)) int64
  (let ((x (+ a 1)))
    (+ x a)))
`, "f")
	if len(g.Blocks) != 1 {
		t.Fatalf("want 1 block, got %d:\n%s", len(g.Blocks), g)
	}
	if g.Entry != g.Exit {
		t.Fatalf("entry != exit for straight-line code")
	}
	uses := atomNames(g, cfg.OpUse)
	if len(uses) != 3 { // a, x, a
		t.Fatalf("want 3 uses, got %v", uses)
	}
}

func TestIfSplitsDiamond(t *testing.T) {
	g := buildFn(t, `
(define (f (a int64)) int64
  (if (< a 0) (- 0 a) a))
`, "f")
	// entry, then, else, join
	if len(g.Blocks) != 4 {
		t.Fatalf("want 4 blocks, got %d:\n%s", len(g.Blocks), g)
	}
	e := g.Entry
	if e.Cond == nil || len(e.Succs) != 2 {
		t.Fatalf("entry should branch on cond:\n%s", g)
	}
	if g.Exit == e || len(g.Exit.Preds) != 2 {
		t.Fatalf("exit should join both arms:\n%s", g)
	}
}

func TestWhileLoopShape(t *testing.T) {
	g := buildFn(t, `
(define (f) int64
  (let ((mutable i 0))
    (while (< i 10)
      (set! i (+ i 1)))
    i))
`, "f")
	var head *cfg.Block
	for _, b := range g.Blocks {
		if b.Loop != nil {
			head = b
		}
	}
	if head == nil {
		t.Fatalf("no loop header:\n%s", g)
	}
	if head.Cond == nil || len(head.Succs) != 2 {
		t.Fatalf("loop header should branch:\n%s", g)
	}
	loop := g.LoopBlocks(head)
	if len(loop) != 2 { // head + body
		t.Fatalf("want 2 loop blocks, got %d:\n%s", len(loop), g)
	}
	// Body defines i via set!.
	found := false
	for _, b := range loop {
		for _, a := range b.Atoms {
			if a.Op == cfg.OpDef && g.Name(a.Var) == "i" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("loop body should contain def(i):\n%s", g)
	}
}

func TestDoTimesDeclaresVar(t *testing.T) {
	g := buildFn(t, `
(define (f) int64
  (let ((mutable s 0))
    (dotimes (k 4)
      (set! s (+ s k)))
    s))
`, "f")
	d := decl(g, "k")
	if d == nil || d.Kind != cfg.DeclLoop {
		t.Fatalf("dotimes var should be a DeclLoop decl, got %+v", d)
	}
	var head *cfg.Block
	for _, b := range g.Blocks {
		if b.Loop != nil {
			head = b
		}
	}
	if head == nil || head.Cond != nil || len(head.Succs) != 2 {
		t.Fatalf("dotimes header should be a nil-cond two-way block:\n%s", g)
	}
}

func TestCaseMultiway(t *testing.T) {
	g := buildFn(t, `
(defunion shape
  (circle (r int64))
  (square (s int64)))
(define (f (x shape)) int64
  (case x
    ((circle r) r)
    ((square s) (* s s))))
`, "f")
	// entry (scrut), two arms, join
	if len(g.Blocks) != 4 {
		t.Fatalf("want 4 blocks, got %d:\n%s", len(g.Blocks), g)
	}
	if g.Entry.Cond != nil || len(g.Entry.Succs) != 2 {
		t.Fatalf("case head should be nil-cond multiway:\n%s", g)
	}
	decls := atomNames(g, cfg.OpDecl)
	joined := strings.Join(decls, ",")
	if !strings.Contains(joined, "r") || !strings.Contains(joined, "s") {
		t.Fatalf("pattern vars should be declared, got %v", decls)
	}
}

func TestShortCircuitAndSplits(t *testing.T) {
	g := buildFn(t, `
(define (f (a int64) (b int64)) bool
  (and (< a 10) (< b 10)))
`, "f")
	if len(g.Blocks) < 3 {
		t.Fatalf("and should expand into branch blocks:\n%s", g)
	}
	if g.Entry.Cond == nil {
		t.Fatalf("first and-step should branch on previous arg:\n%s", g)
	}
}

// TestBindingIdentityShadow checks that shadowing bindings are distinct
// locals, rendered x and x#1, that a use resolves to the innermost one, and
// that a local closure named after a head the builder dispatches on (and,
// or) or after a top-level function is read as a local, not expanded or
// recorded as a call.
func TestBindingIdentityShadow(t *testing.T) {
	g := buildFn(t, `
(define (f) int64
  (let ((x 1))
    (let ((x 2))
      x)))
`, "f")
	if decl(g, "x") == nil {
		t.Fatalf("outer x missing:\n%s", g)
	}
	inner := decl(g, "x#1")
	if inner == nil || inner == decl(g, "x") {
		t.Fatalf("inner x should be a distinct binding rendered x#1:\n%s", g)
	}
	uses := atomNames(g, cfg.OpUse)
	if len(uses) != 1 || uses[0] != "x#1" {
		t.Fatalf("use should resolve to inner binding, got %v", uses)
	}

	for _, head := range []string{"and", "or", "helper"} {
		g := buildFn(t, `
(define (helper (a bool) (b bool)) bool a)
(define (f (p bool)) bool
  (let ((`+head+` (lambda ((a bool) (b bool)) bool b)))
    (`+head+` p #f)))
`, "f")
		if len(g.Blocks) != 1 {
			t.Errorf("%s: a local closure call must not branch:\n%s", head, g)
		}
		if calls := atomNames(g, cfg.OpCall); len(calls) != 0 {
			t.Errorf("%s: a local closure call is not a call atom, got %v", head, calls)
		}
		if uses := atomNames(g, cfg.OpUse); len(uses) != 2 || uses[0] != head {
			t.Errorf("%s: want the head and p read as locals, got %v", head, uses)
		}
	}
}

func TestLambdaCaptureDeferred(t *testing.T) {
	g := buildFn(t, `
(define (f) int64
  (let ((mutable n 0))
    (let ((g (lambda ((d int64)) unit (set! n (+ n d)))))
      n)))
`, "f")
	var capt *cfg.Atom
	for _, b := range g.Blocks {
		for i, a := range b.Atoms {
			if a.Op == cfg.OpUse && g.Name(a.Var) == "n" && a.WriteRef {
				capt = &b.Atoms[i]
			}
		}
	}
	if capt == nil || !capt.Deferred {
		t.Fatalf("set! n inside lambda should be a Deferred WriteRef use:\n%s", g)
	}
	// The lambda parameter d must not leak as a tracked local.
	if decl(g, "d") != nil {
		t.Fatalf("lambda param should not be a tracked decl")
	}
}

func TestSelfUpdateMark(t *testing.T) {
	g := buildFn(t, `
(define (f) int64
  (let ((mutable n 0))
    (set! n (+ n 1))
    n))
`, "f")
	selfs := 0
	for _, b := range g.Blocks {
		for _, a := range b.Atoms {
			if a.Op == cfg.OpUse && a.SelfUpdate {
				selfs++
			}
		}
	}
	if selfs != 1 {
		t.Fatalf("want exactly one SelfUpdate use, got %d:\n%s", selfs, g)
	}
}

func TestLockAtoms(t *testing.T) {
	g := buildFn(t, `
(defstruct cell (v int64))
(define shared cell (make cell :v 0))
(define (f) unit
  (with-lock l
    (set-field! shared v 1)))
`, "f")
	acq, rel := atomNames(g, cfg.OpLockAcq), atomNames(g, cfg.OpLockRel)
	if len(acq) != 1 || acq[0] != "l" || len(rel) != 1 || rel[0] != "l" {
		t.Fatalf("want lock+/lock- on l, got %v / %v", acq, rel)
	}
}

func TestCallAtomNamesCallee(t *testing.T) {
	g := buildFn(t, `
(define (helper) int64 1)
(define (f) int64 (helper))
`, "f")
	calls := atomNames(g, cfg.OpCall)
	want := false
	for _, c := range calls {
		if c == "helper" {
			want = true
		}
	}
	if !want {
		t.Fatalf("call to helper not recorded, got %v", calls)
	}
}

func TestRPOCoversAllBlocksEntryFirst(t *testing.T) {
	g := buildFn(t, `
(define (f (a int64)) int64
  (let ((mutable x 0))
    (if (< a 0) (set! x 1) (set! x 2))
    (while (< x 10) (set! x (+ x 1)))
    x))
`, "f")
	rpo := g.RPO()
	if len(rpo) != len(g.Blocks) {
		t.Fatalf("RPO misses blocks: %d vs %d", len(rpo), len(g.Blocks))
	}
	if rpo[0] != g.Entry {
		t.Fatalf("RPO should start at entry")
	}
	pos := map[*cfg.Block]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	// Every non-back edge goes forward in RPO.
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s.Loop == nil && pos[s] < pos[b] {
				t.Fatalf("forward edge b%d->b%d goes backward in RPO:\n%s", b.Index, s.Index, g)
			}
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	src := `
(define (f (a int64)) int64
  (let ((mutable x 0))
    (if (and (< a 9) (< 0 a)) (set! x a) (set! x 1))
    (dotimes (i 3) (set! x (+ x i)))
    x))
`
	g1 := buildFn(t, src, "f").String()
	g2 := buildFn(t, src, "f").String()
	if g1 != g2 {
		t.Fatalf("nondeterministic build:\n%s\n---\n%s", g1, g2)
	}
}
