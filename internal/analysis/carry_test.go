package analysis_test

import (
	"strings"
	"sync"
	"testing"

	"bitc/internal/analysis"
	"bitc/internal/ast"
	"bitc/internal/core"
	"bitc/internal/corpus"
	"bitc/internal/factstore"
	"bitc/internal/types"
)

// carryTail follows the corpus in TestCarriedKeysEqualFresh: a struct only
// used as a parameter type, a global read by a function, a function (hx)
// whose scheme and summary its unedited caller observes, another (hv) that
// hx refers to without calling it, so the two are in different flow
// components, and a local named like a function the script adds and
// deletes, and a global whose type the script changes.
const carryTail = `(defstruct Pt (x int64))
(define gextra int64 5)
(define (px (p Pt)) int64 (field p x))
(define (hv (a int64)) int64 a)
(define (hx (a int64)) int64 (let ((f hv)) (+ a gextra)))
(define (hy) unit (println (hx 3)))
(define (hq) int64 (let ((hw 1)) hw))
(define gflag int64 1)
(define (hp) unit (println gflag))
`

// replaceOnce replaces the one occurrence of old in s, failing the test if
// there is none.
func replaceOnce(t *testing.T, s, old, nw string) string {
	t.Helper()
	if !strings.Contains(s, old) {
		t.Fatalf("edit script: %q not found", old)
	}
	return strings.Replace(s, old, nw, 1)
}

// TestCarriedKeysEqualFresh runs an edit script through the memoised front
// end and one fact store, as bitc analyze -watch does. After every step,
// the keys the warm run derived, reusing those of the run before wherever
// their inputs were unchanged, must equal the keys of a run into a fresh
// store, which derives every key; and the two reports must render alike.
// The script covers body edits of both lengths (the longer one moves the
// spans in one function's summary, so its value changes), a callee body
// edit, an edit that adds a call, so the graph changes, a
// header change of hv, which changes hx's envSig and so its summary key
// but no key of its unedited caller's own, a header change of hx whose new
// scheme that caller observes (both take the full-check path), a struct
// field edit, a global initialiser edit, a global type change, an added, a
// renamed and a deleted function (whose name an unedited function also
// binds as a local), and a reorder.
func TestCarriedKeysEqualFresh(t *testing.T) {
	const name = "carry.bitc"
	base := corpus.Text(300, 25) + carryTail
	steps := []struct {
		name string
		edit func(string) string
	}{
		{"cold", func(s string) string { return s }},
		{"no-op", func(s string) string { return s }},
		{"edit-one", func(s string) string { return corpus.EditOne(s, 130) }},
		{"insert-statement", func(s string) string { return corpus.InsertStatement(s, 150) }},
		{"callee-body", func(s string) string {
			return replaceOnce(t, s, "(+ a gextra)", "(+ gextra a)")
		}},
		{"new-call", func(s string) string { return replaceOnce(t, s, "(let ((hw 1)) hw)", "(let ((hw 1)) (hy) hw)") }},
		{"referent-header", func(s string) string {
			return replaceOnce(t, s, "(define (hv (a int64)) int64 a)", "(define (hv (a int64)) int32 (cast int32 a))")
		}},
		{"header", func(s string) string {
			return replaceOnce(t, s, "(define (hx (a int64)) int64 (let ((f hv)) (+ gextra a)))",
				"(define (hx (a int64)) int32 (let ((f hv)) (cast int32 (+ a gextra))))")
		}},
		{"struct-field", func(s string) string {
			return replaceOnce(t, s, "(defstruct Pt (x int64))", "(defstruct Pt (x int64) (y int64))")
		}},
		{"global-init", func(s string) string {
			return replaceOnce(t, s, "(define gextra int64 5)", "(define gextra int64 6)")
		}},
		{"global-type", func(s string) string {
			return replaceOnce(t, s, "(define gflag int64 1)", "(define gflag bool #t)")
		}},
		{"add-function", func(s string) string { return s + "(define (hz) unit (hy))\n" }},
		{"rename", func(s string) string { return replaceOnce(t, s, "(define (hz)", "(define (hw)") }},
		{"delete-function", func(s string) string { return replaceOnce(t, s, "(define (hw) unit (hy))\n", "") }},
		{"reorder", func(s string) string {
			px := "(define (px (p Pt)) int64 (field p x))\n"
			return replaceOnce(t, s, px, "") + px
		}},
		{"back-to-base", func(string) string { return base }},
	}
	for _, opts := range []analysis.Options{{Parallelism: 1}, {}} {
		store := factstore.New()
		text := base
		for _, step := range steps {
			text = step.edit(text)
			prog, err := core.LoadAnalysis(name, text)
			if err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
			warm, err := prog.AnalyzeWithStore(opts, store)
			if err != nil {
				t.Fatal(err)
			}
			fresh := factstore.New()
			cold, err := prog.AnalyzeWithStore(opts, fresh)
			if err != nil {
				t.Fatal(err)
			}
			if err := analysis.CompareCarriedKeys(store, fresh, name); err != nil {
				t.Errorf("%s: %v", step.name, err)
			}
			if renderAll(t, warm) != renderAll(t, cold) {
				t.Errorf("%s: warm report differs from a fresh store's", step.name)
			}
		}
	}
}

// TestKeyWorkPerEdit holds the key pipeline to work proportional to an
// edit: a one-function edit of the 1000- and the 4000-function corpus
// hashes and renders exactly as much at both sizes, no more than the
// edited flow component's keys need, and a re-analysis of unchanged text
// hashes and renders nothing.
func TestKeyWorkPerEdit(t *testing.T) {
	const k, edited = 25, 512 // function 512 is 12th of its 25-function cluster
	work := map[int]analysis.KeyWork{}
	for _, n := range []int{1000, 4000} {
		name := "keywork.bitc"
		text := corpus.Text(n, k)
		store := factstore.New()
		run := func(text string) analysis.KeyWork {
			prog, err := core.LoadAnalysis(name, text)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := prog.AnalyzeWithStore(analysis.Options{}, store); err != nil {
				t.Fatal(err)
			}
			return analysis.CarriedKeyWork(store, name)
		}
		cold := run(text)
		if noop := run(text); noop != (analysis.KeyWork{}) {
			t.Errorf("n=%d: re-analysing unchanged text cost %+v, want nothing", n, noop)
		}
		work[n] = run(corpus.EditOne(text, edited))
		t.Logf("n=%d: cold %+v, one edit %+v", n, cold, work[n])
	}
	if work[1000] != work[4000] {
		t.Errorf("one edit cost %+v at 1000 functions but %+v at 4000", work[1000], work[4000])
	}
	// One source slice, its traits, its envSig, its component's key, one
	// summary key per SCC of the 25-function component: at most 2k.
	if w := work[1000]; w.Hashes == 0 || w.Hashes > 2*k || w.Renders > k {
		t.Errorf("one edit cost %+v, want 1..%d hashes and at most %d renders", w, 2*k, k)
	}
}

// TestRunWithStoreConcurrently: two goroutines analyse alternating edits
// of one program against one store, so each run may find the other's keys
// carried; they share the parsed and checked programs, as readers. Every reuse is checked by equality, so each report must still
// render as a fresh store's does (and the race detector must stay quiet).
func TestRunWithStoreConcurrently(t *testing.T) {
	base := corpus.Text(200, 10)
	texts := []string{base, corpus.EditOne(base, 37), corpus.InsertStatement(base, 121)}
	want := make([]string, len(texts))
	progs := make([]*ast.Program, len(texts))
	infos := make([]*types.Info, len(texts))
	for i, text := range texts {
		_, want[i] = runStore(t, text, analysis.Options{}, factstore.New())
		progs[i], infos[i] = check(t, text)
	}
	store := factstore.New()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				j := (i + g) % len(texts)
				rep, err := analysis.RunWithStore(progs[j], infos[j], analysis.Options{}, store)
				if err != nil {
					t.Error(err)
					return
				}
				if renderAll(t, rep) != want[j] {
					t.Errorf("goroutine %d, run %d: report differs from a fresh store's", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCarriedKeysAcrossSelections: runs on one file may select different
// analyzers, so a run may find keys carried from a run that derived fewer
// of them (no graph without a points-to or summary analyzer, no aggKey
// without a summary one, no bundle keys without a per-function one) or
// bundled other analyzers.
// Whatever was carried, the keys must equal a fresh store's.
func TestCarriedKeysAcrossSelections(t *testing.T) {
	const name = "select.bitc"
	base := corpus.Text(120, 12)
	store := factstore.New()
	for i, c := range []struct {
		text string
		opts analysis.Options
	}{
		{base, analysis.Options{}},
		{base, analysis.Options{Enable: []string{"definit"}}}, // no flow
		{corpus.EditOne(base, 30), analysis.Options{}},
		{corpus.EditOne(base, 30), analysis.Options{Enable: []string{"escape"}}}, // no summaries
		{base, analysis.Options{Enable: []string{"race"}}},                       // no bundles
		{base, analysis.Options{Enable: []string{"race", "definit"}}},
		{base, analysis.Options{}},
	} {
		prog, err := core.LoadAnalysis(name, c.text)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := prog.AnalyzeWithStore(c.opts, store)
		if err != nil {
			t.Fatal(err)
		}
		fresh := factstore.New()
		cold, err := prog.AnalyzeWithStore(c.opts, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if err := analysis.CompareCarriedKeys(store, fresh, name); err != nil {
			t.Errorf("run %d (%v): %v", i, c.opts.Enable, err)
		}
		if renderAll(t, warm) != renderAll(t, cold) {
			t.Errorf("run %d (%v): warm report differs from a fresh store's", i, c.opts.Enable)
		}
	}
}
