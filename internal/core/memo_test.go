package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"bitc/internal/analysis"
	"bitc/internal/ast"
	"bitc/internal/bench"
	"bitc/internal/core"
	"bitc/internal/corpus"
	"bitc/internal/factstore"
	"bitc/internal/parser"
	"bitc/internal/types"
)

// coldRender loads text with a cold parser.Parse and types.Check, the way
// LoadAnalysis did before it had a memo, and renders the result.
func coldRender(name, text string) string {
	prog, diags := parser.Parse(name, text)
	if err := diags.ErrOrNil(); err != nil {
		return core.RenderFrontEnd(nil, fmt.Errorf("parse: %w", err))
	}
	info, cdiags := types.Check(prog)
	if err := cdiags.ErrOrNil(); err != nil {
		return core.RenderFrontEnd(nil, fmt.Errorf("typecheck: %w", err))
	}
	return core.RenderFrontEnd(&core.Program{Name: name, AST: prog, Info: info}, nil)
}

// memoRender loads text through LoadAnalysis and renders the result.
func memoRender(name, text string) string {
	return core.RenderFrontEnd(core.LoadAnalysis(name, text))
}

// memoInputs lists the texts the memo is held to: every .bitc file in the
// repository, the E1 kernels and the 1000-function corpus.
func memoInputs(t *testing.T) (names, texts []string) {
	t.Helper()
	var files []string
	for _, root := range []string{"../../examples", "../../internal/core/testdata", "../../benchmark/testdata"} {
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() && strings.HasSuffix(path, ".bitc") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		names, texts = append(names, f), append(texts, string(b))
	}
	for _, k := range bench.KernelNames() {
		src, _ := bench.KernelSource(k)
		names, texts = append(names, "kernel/"+k), append(texts, src)
	}
	return append(names, "corpus/1000x25"), append(texts, corpus.Text(1000, 25))
}

// defSpans parses text cold and returns its definitions (nil if it does
// not parse).
func defSpans(text string) []ast.Def {
	prog, diags := parser.Parse("script", text)
	if diags.HasErrors() {
		return nil
	}
	return prog.Defs
}

// splice replaces text[a:b] with s.
func splice(text string, a, b int, s string) string { return text[:a] + s + text[b:] }

// editStep is one edit of an edit script: it returns the edited text, or
// the text unchanged when the program has nothing it applies to.
type editStep struct {
	name string
	edit func(text string, defs []ast.Def) string
}

// funcs returns the functions among defs.
func funcs(defs []ast.Def) []*ast.DefineFunc {
	var out []*ast.DefineFunc
	for _, d := range defs {
		if f, ok := d.(*ast.DefineFunc); ok {
			out = append(out, f)
		}
	}
	return out
}

// firstIntLit returns the first integer literal in f's body.
func firstIntLit(f *ast.DefineFunc) *ast.IntLit {
	var lit *ast.IntLit
	for _, e := range f.Body {
		ast.Walk(e, func(e ast.Expr) bool {
			if l, ok := e.(*ast.IntLit); ok && lit == nil {
				lit = l
			}
			return lit == nil
		})
	}
	return lit
}

// editScript is the sequence of edits every input goes through; the memo
// must equal a cold load after each one.
var editScript = []editStep{
	{"same-length body edit", func(text string, defs []ast.Def) string {
		fs := funcs(defs)
		for k := len(fs) / 2; k < len(fs); k++ {
			if lit := firstIntLit(fs[k]); lit != nil {
				end := int(lit.SpanV.End)
				d := text[end-1]
				if d < '0' || d > '9' {
					continue
				}
				return splice(text, end-1, end, string('0'+(d-'0'+3)%10))
			}
		}
		return text
	}},
	{"length-changing body edit above most definitions", func(text string, defs []ast.Def) string {
		for _, f := range funcs(defs) {
			e := f.Body[0]
			a, b := int(e.Span().Start), int(e.Span().End)
			return splice(text, a, b, "(begin "+text[a:b]+")")
		}
		return text
	}},
	{"comment and bitc:ignore lines inserted", func(text string, defs []ast.Def) string {
		if len(defs) < 2 {
			return text
		}
		at := int(defs[len(defs)/2].Span().Start)
		return splice(text, at, at, "; an inserted comment\n; bitc:ignore BITC-DEAD001 BITC-TRUNC001\n")
	}},
	{"header edit", func(text string, defs []ast.Def) string {
		fs := funcs(defs)
		if len(fs) == 0 {
			return text
		}
		f := fs[len(fs)/3]
		at := int(f.Body[0].Span().Start)
		if len(f.Contract.Requires) > 0 {
			at = int(f.Contract.Requires[0].Span().Start)
		}
		return splice(text, at, at, ":pure ")
	}},
	{"header edit reverted", func(text string, defs []ast.Def) string {
		return strings.Replace(text, ":pure ", "", 1)
	}},
	{"struct edit", func(text string, defs []ast.Def) string {
		for _, d := range defs {
			if s, ok := d.(*ast.DefStruct); ok {
				at := int(s.SpanV.Start) + len("(defstruct "+s.Name)
				return splice(text, at, at, " :boxed :packed")
			}
		}
		return text
	}},
	{"struct edit reverted", func(text string, defs []ast.Def) string {
		return strings.Replace(text, " :boxed :packed", "", 1)
	}},
	{"definition added", func(text string, defs []ast.Def) string {
		at := len(text)
		if len(defs) > 0 {
			at = int(defs[len(defs)/2].Span().Start)
		}
		return splice(text, at, at, "(define (memo-added (x int64)) int64 (+ x 1))\n")
	}},
	{"definitions reordered", func(text string, defs []ast.Def) string {
		if len(defs) < 2 {
			return text
		}
		k := len(defs) / 2
		a, b := defs[k-1].Span(), defs[k].Span()
		first, second := text[a.Start:a.End], text[b.Start:b.End]
		return text[:a.Start] + second + text[a.End:b.Start] + first + text[b.End:]
	}},
	{"definition deleted", func(text string, defs []ast.Def) string {
		for _, d := range defs {
			if d.DefName() == "memo-added" {
				return splice(text, int(d.Span().Start), int(d.Span().End), "")
			}
		}
		return text
	}},
	{"parse error", func(text string, defs []ast.Def) string {
		if len(defs) == 0 {
			return text
		}
		at := int(defs[len(defs)/2].Span().Start)
		return splice(text, at, at, "(memo-parse-error ")
	}},
	{"parse error fixed", func(text string, defs []ast.Def) string {
		return strings.Replace(text, "(memo-parse-error ", "", 1)
	}},
	{"type error", func(text string, defs []ast.Def) string {
		fs := funcs(defs)
		if len(fs) == 0 {
			return text
		}
		e := fs[len(fs)/2].Body[0]
		a, b := int(e.Span().Start), int(e.Span().End)
		return splice(text, a, b, "(begin (memo-undefined 1) "+text[a:b]+")")
	}},
	{"type error fixed", func(text string, defs []ast.Def) string {
		return strings.Replace(text, "(memo-undefined 1) ", "", 1)
	}},
}

// TestLoadMemoEqualsCold runs the edit script over every input and holds
// LoadAnalysis to a cold parse and check after each step, with the shared
// renderer. The texts a step cannot parse keep the definitions of the last
// text that did, so the fix after an error is applied to the right place.
func TestLoadMemoEqualsCold(t *testing.T) {
	core.ResetMemo()
	defer core.ResetMemo()
	names, texts := memoInputs(t)
	for n, name := range names {
		text := texts[n]
		before, err := core.LoadAnalysis(name, text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		beforeRender := core.RenderFrontEnd(before, nil)
		if got, want := beforeRender, coldRender(name, text); got != want {
			t.Fatalf("%s: initial load differs from cold:\n%s", name, firstDiff(got, want))
		}
		defs := defSpans(text)
		for _, step := range editScript {
			text = step.edit(text, defs)
			if d := defSpans(text); d != nil {
				defs = d
			}
			got, want := memoRender(name, text), coldRender(name, text)
			if got != want {
				t.Errorf("%s: after %s, memoised load differs from cold:\n%s", name, step.name, firstDiff(got, want))
				break
			}
		}
		if after := core.RenderFrontEnd(before, nil); after != beforeRender {
			t.Errorf("%s: a program loaded before the script changed:\n%s", name, firstDiff(after, beforeRender))
		}
	}
}

// firstDiff shows the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestLoadMemoCosts pins what the memo does on the corpus: a
// length-changing edit of one body parses one form and checks one body,
// with no full check and no cold load, and a struct edit takes exactly one
// full check.
func TestLoadMemoCosts(t *testing.T) {
	core.ResetMemo()
	defer core.ResetMemo()
	text := corpus.Text(1000, 25)
	if _, err := core.LoadAnalysis("corpus.bitc", text); err != nil {
		t.Fatal(err)
	}
	type counts struct{ forms, bodies, coldChecks, coldLoads int }
	read := func() counts {
		var c counts
		c.forms, c.bodies, c.coldChecks, c.coldLoads = core.MemoCounts()
		return c
	}
	load := func(text string) counts {
		t.Helper()
		before := read()
		if _, err := core.LoadAnalysis("corpus.bitc", text); err != nil {
			t.Fatal(err)
		}
		after := read()
		return counts{after.forms - before.forms, after.bodies - before.bodies,
			after.coldChecks - before.coldChecks, after.coldLoads - before.coldLoads}
	}

	// A statement inserted into function 500 of 1000 moves every later
	// definition.
	edited := corpus.InsertStatement(text, 500)
	if got, want := load(edited), (counts{forms: 1, bodies: 1}); got != want {
		t.Errorf("body edit of function 500: %+v, want %+v", got, want)
	}
	if got, want := load(edited), (counts{}); got != want {
		t.Errorf("identical text: %+v, want %+v", got, want)
	}
	structEdit := strings.Replace(edited, "(defstruct St ", "(defstruct St :packed ", 1)
	if got, want := load(structEdit), (counts{forms: 1, coldChecks: 1}); got != want {
		t.Errorf("struct edit: %+v, want %+v", got, want)
	}
	if got, want := memoRender("corpus.bitc", structEdit), coldRender("corpus.bitc", structEdit); got != want {
		t.Errorf("after the struct edit, memoised load differs from cold:\n%s", firstDiff(got, want))
	}
}

// TestLoadMemoOpenSignature holds the closed-environment condition: h's
// parameter type is left open by its header and fixed by a call in f, so
// an edit of f's body can change h's type and must not be checked alone.
// pad keeps the program large enough that the edit is not a cold load.
func TestLoadMemoOpenSignature(t *testing.T) {
	core.ResetMemo()
	defer core.ResetMemo()
	base := "(define (f) int64 (h 1))\n(define (h x) int64 7)\n(define (pad) int64 (+ 1 (+ 2 (+ 3 (+ 4 5)))))\n"
	if _, err := core.LoadAnalysis("open.bitc", base); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(base, "(h 1)", "5", 1)
	if got, want := memoRender("open.bitc", edited), coldRender("open.bitc", edited); got != want {
		t.Errorf("memoised load differs from cold:\n%s", firstDiff(got, want))
	}
	if _, bodies, coldChecks, _ := core.MemoCounts(); bodies != 0 || coldChecks != 1 {
		t.Errorf("edit in an open environment: %d bodies re-checked and %d full checks, want 0 and 1", bodies, coldChecks)
	}
}

// TestLoadMemoConcurrentReaders reads a memo-loaded program on other
// goroutines, analyzing and rendering it, while LoadAnalysis serves edits
// of it from the memo, which share its AST and types. Under -race
// (scripts/check.sh) any write a load makes to what an earlier Program
// holds is reported. The global flags has an unannotated type holding a
// bound variable, and probe, whose body every edit re-checks, unifies with
// it.
func TestLoadMemoConcurrentReaders(t *testing.T) {
	core.ResetMemo()
	defer core.ResetMemo()
	text := corpus.Text(100, 25) + "(define flags (make-vector 4 #t))\n(define (probe (i int64)) bool (vector-ref flags i))\n"
	base, err := core.LoadAnalysis("corpus.bitc", text)
	if err != nil {
		t.Fatal(err)
	}
	want := coldRender("corpus.bitc", text)
	stop := make(chan struct{})
	done := make(chan error, 2)
	go func() {
		_, err := base.Analyze(analysis.Options{})
		done <- err
	}()
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
				core.RenderFrontEnd(base, nil)
			}
		}
	}()
	edited := strings.Replace(text, "(vector-ref flags i)", "(vector-ref flags (+ i 0))", 1)
	for i := 0; i < 20; i++ {
		next := edited
		if i%2 == 1 {
			next = text
		}
		if _, err := core.LoadAnalysis("corpus.bitc", next); err != nil {
			t.Fatal(err)
		}
	}
	if _, bodies, _, _ := core.MemoCounts(); bodies != 20 {
		t.Errorf("%d bodies re-checked, want 20", bodies)
	}
	close(stop)
	for g := 0; g < 2; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := core.RenderFrontEnd(base, nil); got != want {
		t.Errorf("the base program changed under the edits:\n%s", firstDiff(got, want))
	}
}

// TestLoadMemoHeapFlat drives the analyze -watch loop through the memo:
// one-function edits, each a different function, loaded by LoadAnalysis
// and re-analysed against a shared store. The live heap must not grow
// with the edit count beyond one source text and the Info tables' two
// pointers per expression number the edits used, which the memo reclaims
// when it renumbers. A definition the memo keeps across edits must not pin
// the text it was parsed from: a name sliced out of one edit's text would
// keep that whole text alive for as long as the definition lives.
func TestLoadMemoHeapFlat(t *testing.T) {
	core.ResetMemo()
	defer core.ResetMemo()
	const nfuncs, k, warmEdits, edits = 240, 24, 16, 64
	text := corpus.Text(nfuncs, k)
	if _, err := core.LoadAnalysis("corpus.bitc", text); err != nil {
		t.Fatal(err)
	}
	store := factstore.New()
	var numbered int32    // the last program's ExprCount
	edit := func(i int) { // i < nfuncs: each edit dirties a different function
		text = corpus.EditOne(text, i)
		prog, err := core.LoadAnalysis("corpus.bitc", text)
		if err != nil {
			t.Fatal(err)
		}
		numbered = prog.AST.ExprCount
		if _, err := prog.AnalyzeWithStore(analysis.Options{}, store); err != nil {
			t.Fatal(err)
		}
		store.Prune(8)
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < warmEdits; i++ {
		edit(i)
	}
	early, earlyNumbered := liveHeap(), numbered
	for i := warmEdits; i < warmEdits+edits; i++ {
		edit(i)
	}
	late := liveHeap()
	runtime.KeepAlive(store)
	if _, bodies, _, _ := core.MemoCounts(); bodies != warmEdits+edits {
		t.Errorf("%d bodies re-checked over %d edits", bodies, warmEdits+edits)
	}
	tables := 16 * uint64(numbered-earlyNumbered)
	t.Logf("live heap %d -> %d bytes over %d edits; source text %d bytes, table growth %d bytes", early, late, edits, len(text), tables)
	if late > early+uint64(len(text))+tables {
		t.Errorf("live heap grew by %d bytes over %d edits, more than one source text (%d bytes) and the tables' growth (%d bytes)",
			late-early, edits, len(text), tables)
	}
}

// TestLoadMemoConcurrentLoads calls LoadAnalysis from several goroutines
// at once, each editing its own file, so the one memo entry passes from
// name to name. Every load must still render as its cold load does.
func TestLoadMemoConcurrentLoads(t *testing.T) {
	core.ResetMemo()
	defer core.ResetMemo()
	base := corpus.Text(50, 25)
	type load struct{ name, text, want string }
	var scripts [3][]load
	for g := range scripts {
		name := fmt.Sprintf("g%d.bitc", g)
		for i := 0; i < 8; i++ {
			text := base
			if i%2 == 1 {
				text = corpus.EditOne(base, g*10+i)
			}
			scripts[g] = append(scripts[g], load{name, text, coldRender(name, text)})
		}
	}
	errs := make(chan string, len(scripts))
	for _, script := range scripts {
		go func() {
			for _, l := range script {
				if got := memoRender(l.name, l.text); got != l.want {
					errs <- fmt.Sprintf("%s: memoised load differs from cold:\n%s", l.name, firstDiff(got, l.want))
					return
				}
			}
			errs <- ""
		}()
	}
	for range scripts {
		if msg := <-errs; msg != "" {
			t.Error(msg)
		}
	}
}
