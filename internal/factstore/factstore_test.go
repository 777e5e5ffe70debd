package factstore

import (
	"strconv"
	"strings"
	"testing"

	"bitc/internal/parser"
	"bitc/internal/source"
)

func TestHashDelimited(t *testing.T) {
	if Hash("ab", "c") == Hash("a", "bc") {
		t.Fatal("Hash must be length-delimited, not a plain concatenation")
	}
	if Hash("x") != Hash("x") {
		t.Fatal("Hash must be deterministic")
	}
	if Hash() == Hash("") {
		t.Fatal("empty part must differ from no parts")
	}
}

func TestStoreBasics(t *testing.T) {
	s := New()
	s.BeginRun()
	if _, ok := s.Get("k"); ok {
		t.Fatal("unexpected hit on empty store")
	}
	s.Put("k", 42)
	v, ok := s.Get("k")
	if !ok || v.(int) != 42 {
		t.Fatalf("Get = %v, %v; want 42, true", v, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 || st.Runs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStorePrune(t *testing.T) {
	s := New()
	s.BeginRun()
	s.Put("old", 1)
	s.BeginRun()
	s.Put("new", 2)
	s.Get("new")
	// keepRuns=0: drop everything not touched this generation.
	if n := s.Prune(0); n != 1 {
		t.Fatalf("Prune dropped %d entries; want 1", n)
	}
	if _, ok := s.Get("old"); ok {
		t.Fatal("pruned entry still present")
	}
	if _, ok := s.Get("new"); !ok {
		t.Fatal("recently used entry was pruned")
	}
}

// TestStoreGetMany: a batch large enough to be split across goroutines
// returns each key's fact or nil, counts hits and misses like single Gets,
// and marks every hit recently used.
func TestStoreGetMany(t *testing.T) {
	s := New()
	s.BeginRun()
	keys := make([]string, 3000)
	for i := range keys {
		keys[i] = strconv.Itoa(i)
		if i%2 == 0 {
			s.Put(keys[i], i)
		}
	}
	s.Put("untouched", -1)
	s.BeginRun()
	for i, v := range s.GetMany(keys) {
		if (i%2 == 0) != (v != nil) || v != nil && v.(int) != i {
			t.Fatalf("GetMany[%d] = %v", i, v)
		}
	}
	if st := s.Stats(); st.Hits != 1500 || st.Misses != 1500 {
		t.Fatalf("stats = %+v; want 1500 hits and 1500 misses", st)
	}
	if n := s.Prune(0); n != 1 {
		t.Fatalf("Prune dropped %d entries; want only the untouched one", n)
	}
}

const testProg = `(defstruct Pt (x int64) (y int64))
(define gorigin Pt (make Pt :x 0 :y 0))
(define (norm (p Pt)) int64
  (+ (field p x) (field p y)))
(define (shift (p Pt)) int64
  (norm (make Pt :x (+ (field p x) 1) :y (field p y))))
`

func parse(t *testing.T, text string) *Index {
	t.Helper()
	prog, diags := parser.Parse("test.bitc", text)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	return NewIndex(prog, nil)
}

// funcKey returns the content hash of function name's raw source ("" when
// the function does not exist in the parse).
func funcKey(ix *Index, name string) string {
	di, _ := ix.Def("f:" + name)
	return di.Hash
}

func TestIndexFuncKeys(t *testing.T) {
	ix := parse(t, testProg)
	if funcKey(ix, "norm") == "" || funcKey(ix, "shift") == "" {
		t.Fatal("missing func keys")
	}
	if funcKey(ix, "norm") == funcKey(ix, "shift") {
		t.Fatal("distinct functions must have distinct keys")
	}
	if funcKey(ix, "nope") != "" {
		t.Fatal("unknown function must have empty key")
	}
	if _, ok := ix.Def("s:Pt"); !ok {
		t.Fatal("struct def missing from index")
	}
	if _, ok := ix.Def("v:gorigin"); !ok {
		t.Fatal("global def missing from index")
	}
}

func TestIndexKeyStability(t *testing.T) {
	ix1 := parse(t, testProg)
	// Prepend a comment: every def shifts, but raw slices are unchanged, so
	// content keys and the types signature must not move.
	ix2 := parse(t, ";; leading comment\n\n"+testProg)
	if funcKey(ix1, "norm") != funcKey(ix2, "norm") {
		t.Fatal("func key changed under a pure position shift")
	}
	if ix1.TypesSig() != ix2.TypesSig() {
		t.Fatal("types signature changed under a pure position shift")
	}
	// Edit one function body: only that function's key changes.
	edited := parse(t, ";; leading comment\n\n"+
		`(defstruct Pt (x int64) (y int64))
(define gorigin Pt (make Pt :x 0 :y 0))
(define (norm (p Pt)) int64
  (+ (field p y) (field p x)))
(define (shift (p Pt)) int64
  (norm (make Pt :x (+ (field p x) 1) :y (field p y))))
`)
	if funcKey(edited, "norm") == funcKey(ix2, "norm") {
		t.Fatal("edited function kept its key")
	}
	if funcKey(edited, "shift") != funcKey(ix2, "shift") {
		t.Fatal("untouched function lost its key")
	}
	if edited.TypesSig() != ix2.TypesSig() {
		t.Fatal("types signature changed under a function-body edit")
	}
	// Edit the struct: the types signature must change.
	structEdit := parse(t, `(defstruct Pt (x int64) (y int64) (z int64))
(define gorigin Pt (make Pt :x 0 :y 0))
(define (norm (p Pt)) int64
  (+ (field p x) (field p y)))
(define (shift (p Pt)) int64
  (norm (make Pt :x (+ (field p x) 1) :y (field p y))))
`)
	if structEdit.TypesSig() == ix1.TypesSig() {
		t.Fatal("types signature ignored a struct edit")
	}
}

func TestRelAbsRoundTrip(t *testing.T) {
	base := parse(t, testProg)
	shifted := parse(t, ";; moved\n\n"+testProg)
	norm, _ := base.Def("f:norm")
	// An interior span of norm (its whole body minus a byte at each end).
	inner := source.Span{Start: norm.Span.Start + 3, End: norm.Span.End - 2}
	rel := base.Rel(inner)
	if rel.Owner != "f:norm" {
		t.Fatalf("owner = %q; want f:norm", rel.Owner)
	}
	// Rebase against the shifted parse: same relative offsets, new absolute.
	abs := shifted.Abs(rel)
	snorm, _ := shifted.Def("f:norm")
	want := source.Span{Start: snorm.Span.Start + 3, End: snorm.Span.End - 2}
	if abs != want {
		t.Fatalf("Abs = %+v; want %+v", abs, want)
	}
	// Round trip on the same index is the identity.
	if got := base.Abs(rel); got != inner {
		t.Fatalf("round trip = %+v; want %+v", got, inner)
	}
	// Unknown owner yields an invalid span.
	if sp := base.Abs(RelSpan{Owner: "f:zzz", Start: 1, End: 2}); sp.IsValid() {
		t.Fatal("Abs of unknown owner must be invalid")
	}
	// Invalid spans pass through unharmed.
	if sp := base.Abs(base.Rel(source.Span{Start: source.NoPos, End: source.NoPos})); sp.IsValid() {
		t.Fatal("invalid span must stay invalid")
	}
}

// TestIndexReuse: an index built against an earlier one hashes only the
// definitions whose text changed, yet equals an index built from nothing,
// whether the definitions moved, changed or were reordered; and the carry
// slot is outside the store's accounting.
func TestIndexReuse(t *testing.T) {
	build := func(text string, prev *Index) *Index {
		t.Helper()
		prog, diags := parser.Parse("test.bitc", text)
		if diags.HasErrors() {
			t.Fatalf("parse: %v", diags)
		}
		return NewIndex(prog, prev)
	}
	base := build(testProg, nil)
	if base.Hashed() != 5 {
		t.Fatalf("cold index hashed %d times, want 4 definitions and the types signature", base.Hashed())
	}
	edited := ";; moved\n" + strings.Replace(testProg, "(field p x) 1)", "(field p x) 2)", 1)
	reordered := testProg[strings.Index(testProg, "(define (norm"):] + testProg[:strings.Index(testProg, "(define (norm")]
	for _, c := range []struct {
		name, text string
		hashed     int
	}{
		{"same", testProg, 0},
		{"moved-and-edited", edited, 1},
		{"reordered", reordered, 0},
	} {
		warm, cold := build(c.text, base), build(c.text, nil)
		if warm.Hashed() != c.hashed {
			t.Errorf("%s: hashed %d times, want %d", c.name, warm.Hashed(), c.hashed)
		}
		if warm.TypesSig() != cold.TypesSig() {
			t.Errorf("%s: types signature differs from a cold index's", c.name)
		}
		for _, key := range []string{"s:Pt", "v:gorigin", "f:norm", "f:shift"} {
			w, _ := warm.Def(key)
			k, _ := cold.Def(key)
			if w != k {
				t.Errorf("%s: %s = %+v, want %+v", c.name, key, w, k)
			}
			if rel := cold.Rel(source.Span{Start: k.Span.Start + 1, End: k.Span.End}); warm.Rel(warm.Abs(rel)) != rel {
				t.Errorf("%s: %s: spans do not round-trip", c.name, key)
			}
		}
	}

	s := New()
	s.BeginRun()
	s.SetCarry("a.bitc", 1)
	if s.Carry("a.bitc") != 1 || s.Carry("b.bitc") != nil {
		t.Fatal("carry is not kept per file")
	}
	if st := s.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 || s.Prune(0) != 0 {
		t.Fatalf("carry shows in the store's accounting: %+v", st)
	}
	if s.Carry("a.bitc") != 1 {
		t.Fatal("Prune dropped a carry")
	}
}
