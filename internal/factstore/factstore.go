// Package factstore is the content-hashed fact cache behind bitc's
// incremental analysis driver.
//
// The store maps opaque string keys — SHA-256 content hashes assembled by
// the driver from a definition's source text, its type environment, its
// points-to flow component, and its callees' summary keys — to analysis
// facts (traits, bottom-up function summaries, per-function findings).
// Because a key embeds everything its fact was derived from, invalidation
// is free: an edit changes the hashes, the lookups miss, and only the
// dirty entries are recomputed. Stale entries are evicted by generation
// once no recent run has touched them.
//
// Spans inside cached facts are stored relative to the top-level
// definition that contains them (RelSpan), so a fact survives edits that
// merely shift its definition within the file; the Index of the current
// parse rebases them to absolute offsets on the way out.
//
// Besides its entries, a store keeps one carried value per file name
// (Carry, SetCarry): the keys analysis.RunWithStore derived in its last
// run on that file, so the next run derives only the keys whose inputs
// changed. The
// carry is not an entry and never shows in the store's accounting.
package factstore

import (
	"crypto/sha256"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"bitc/internal/ast"
	"bitc/internal/par"
	"bitc/internal/source"
)

// Hash combines parts into an opaque SHA-256 content hash (returned as a
// raw 32-byte string, suitable as a map key). Keys built from it are
// order-sensitive and unambiguous (parts are length-delimited). The
// incremental driver calls this on very hot paths, so the scratch buffer is
// pooled and the digest is one-shot.
func Hash(parts ...string) string {
	buf := hashBufPool.Get().(*[]byte)
	b := (*buf)[:0]
	var n [8]byte
	for _, p := range parts {
		l := len(p)
		for i := 0; i < 8; i++ {
			n[i] = byte(l >> (8 * i))
		}
		b = append(b, n[:]...)
		b = append(b, p...)
	}
	sum := sha256.Sum256(b)
	*buf = b
	hashBufPool.Put(buf)
	return string(sum[:])
}

var hashBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// Stats reports cache effectiveness for one store.
type Stats struct {
	Runs    uint64 // BeginRun calls
	Entries int    // live entries
	Hits    uint64 // Get calls that found a value
	Misses  uint64 // Get calls that found nothing
	Puts    uint64 // Put calls
	Evicted uint64 // entries dropped by Prune
}

type entry struct {
	val  any
	used atomic.Uint64 // generation of the last hit (or the put)
}

// Store is an in-memory content-addressed fact cache. It is safe for
// concurrent use; values are stored by reference and must be treated as
// immutable by both producer and consumer.
type Store struct {
	mu      sync.Mutex
	entries map[string]*entry
	carry   map[string]any
	gen     uint64
	hits    uint64
	misses  uint64
	puts    uint64
	evicted uint64
}

// New creates an empty store.
func New() *Store {
	return &Store{entries: map[string]*entry{}, carry: map[string]any{}}
}

// Carry returns what the last SetCarry for file left, or nil. The slot is
// outside the entry map: it is not counted as a hit, a miss or an entry,
// and Prune never drops it. The incremental analysis keeps there the keys
// it derived for a file, so that the next run on that file can reuse every
// key whose inputs it finds unchanged.
func (s *Store) Carry(file string) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.carry[file]
}

// SetCarry replaces file's carried value. Like a fact, v must not be
// written once it is handed over: concurrent runs read it.
func (s *Store) SetCarry(file string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.carry[file] = v
}

// BeginRun opens a new analysis generation: hit/miss accounting and
// recency tracking attribute subsequent traffic to it.
func (s *Store) BeginRun() {
	s.mu.Lock()
	s.gen++
	s.mu.Unlock()
}

// Get returns the fact stored under key, marking it recently used.
func (s *Store) Get(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	e.used.Store(s.gen)
	return e.val, true
}

// GetMany is Get over a batch of keys: vals[i] is the fact stored under
// keys[i], or nil on a miss (facts are never nil). A warm incremental run
// probes the store a few times per function; on a large program those
// probes are mostly cache misses, so the batch is split across the cores.
func (s *Store) GetMany(keys []string) (vals []any) {
	vals = make([]any, len(keys))
	s.mu.Lock()
	defer s.mu.Unlock()
	var hits atomic.Uint64
	par.Chunks(len(keys), 0, 1024, func(lo, hi int) {
		n := uint64(0)
		for i := lo; i < hi; i++ {
			if e, ok := s.entries[keys[i]]; ok {
				e.used.Store(s.gen)
				vals[i] = e.val
				n++
			}
		}
		hits.Add(n)
	})
	s.hits += hits.Load()
	s.misses += uint64(len(keys)) - hits.Load()
	return vals
}

// Put stores a fact under key, overwriting any previous value.
func (s *Store) Put(key string, val any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	e := &entry{val: val}
	e.used.Store(s.gen)
	s.entries[key] = e
}

// Prune drops every entry not touched within the last keepRuns
// generations and returns how many were evicted. A long-running watch
// daemon calls this to keep the store bounded by the program's current
// contents rather than its whole edit history.
func (s *Store) Prune(keepRuns uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for k, e := range s.entries {
		if e.used.Load()+keepRuns < s.gen {
			delete(s.entries, k)
			dropped++
		}
	}
	s.evicted += uint64(dropped)
	return dropped
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Runs: s.gen, Entries: len(s.entries),
		Hits: s.hits, Misses: s.misses, Puts: s.puts, Evicted: s.evicted,
	}
}

// ---------------------------------------------------------------------------
// Definition index and span rebasing
// ---------------------------------------------------------------------------

// RelSpan is a span expressed relative to the start of the top-level
// definition that contains it. Owner is the definition's kind-qualified
// name ("" means the span was not inside any definition and Start/End are
// absolute offsets).
type RelSpan struct {
	Owner      string
	Start, End int
}

// DefInfo describes one top-level definition of the current parse.
type DefInfo struct {
	Span source.Span
	// Hash is the SHA-256 of the definition's raw source slice — the
	// funcKey ingredient for functions, and the invalidation unit for
	// every other definition kind.
	Hash string
}

// Index maps the current parse's top-level definitions to their spans and
// content hashes, and rebases RelSpans against them. An Index is never
// written after NewIndex returns, so a later NewIndex may read it while
// other goroutines use it.
type Index struct {
	file *source.File

	// keys, spans and hashes describe each definition by position in the
	// program's Defs: its kind-qualified key, its span and its DefInfo.Hash.
	keys   []string
	spans  []source.Span
	hashes []string
	// pos maps a key to the position of the last definition with that key.
	pos map[string]int
	// ordered supports owner lookup by binary search over start offsets.
	ordered  []ownerSpan
	typesSig string
	// hashed counts the SHA-256 digests NewIndex computed.
	hashed int
}

type ownerSpan struct {
	start, end int
	owner      string
}

// defKind is the prefix that qualifies a definition's name by kind in the
// index's keys ("f:norm", "s:Pt"), so a struct and a function sharing a
// name cannot collide.
func defKind(d ast.Def) string {
	switch d.(type) {
	case *ast.DefineFunc:
		return "f:"
	case *ast.DefineVar:
		return "v:"
	case *ast.DefStruct:
		return "s:"
	case *ast.DefUnion:
		return "u:"
	case *ast.External:
		return "x:"
	}
	return "?:"
}

// NewIndex builds the index for one parsed program. prev, if not nil, is
// the index of an earlier parse, of any text: a definition whose key and
// source slice equal those of a definition in prev takes prev's hash
// instead of hashing its slice again, and the key table, the owner order
// and the types signature are prev's whenever what they are built from is
// unchanged. Every reuse is decided by comparing content, so any prev
// yields the same index as none.
func NewIndex(prog *ast.Program, prev *Index) *Index {
	if prev == nil {
		prev = &Index{}
	}
	n := len(prog.Defs)
	ix := &Index{
		file:   prog.File,
		keys:   make([]string, n),
		spans:  make([]source.Span, n),
		hashes: make([]string, n),
	}
	sameKeys := n == len(prev.keys)
	for i, d := range prog.Defs {
		ix.spans[i] = d.Span()
		kind, name := defKind(d), d.DefName()
		if pk := prev.keyAt(i); len(pk) == len(kind)+len(name) && pk[:len(kind)] == kind && pk[len(kind):] == name {
			ix.keys[i] = pk
		} else {
			ix.keys[i] = kind + name
			sameKeys = false
		}
	}
	if sameKeys {
		ix.pos = prev.pos
	} else {
		ix.pos = make(map[string]int, n)
		for i, k := range ix.keys {
			ix.pos[k] = i
		}
	}

	// Hashing a definition's source is the one pass over the program text
	// an incremental run makes; an unchanged definition skips it, and the
	// rest is spread over the cores.
	var hashed atomic.Int64
	par.Chunks(n, 0, 1024, func(lo, hi int) {
		h := 0
		for i := lo; i < hi; i++ {
			j, ok := i, sameKeys
			if !ok {
				j, ok = prev.pos[ix.keys[i]]
			}
			s, valid := ix.slice(i)
			if ok {
				if ps, pvalid := prev.slice(j); valid == pvalid && s == ps {
					ix.hashes[i] = prev.hashes[j]
					continue
				}
			}
			if valid {
				ix.hashes[i] = Hash(s)
			} else {
				ix.hashes[i] = Hash("nospan")
			}
			h++
		}
		hashed.Add(int64(h))
	})
	ix.hashed = int(hashed.Load())

	if sameKeys && slices.Equal(ix.spans, prev.spans) {
		ix.ordered = prev.ordered
	} else {
		ix.ordered = make([]ownerSpan, 0, n)
		for i, sp := range ix.spans {
			if sp.IsValid() {
				ix.ordered = append(ix.ordered, ownerSpan{int(sp.Start), int(sp.End), ix.keys[i]})
			}
		}
		less := func(i, j int) bool { return ix.ordered[i].start < ix.ordered[j].start }
		if !sort.SliceIsSorted(ix.ordered, less) {
			sort.Slice(ix.ordered, less)
		}
	}

	if ix.fileName() == prev.fileName() && ix.sameTypeDefs(prev) {
		ix.typesSig = prev.typesSig
	} else {
		ix.typesSig = ix.hashTypes()
		ix.hashed++
	}
	return ix
}

func (ix *Index) keyAt(i int) string {
	if i < len(ix.keys) {
		return ix.keys[i]
	}
	return ""
}

// slice returns the source text of the i-th definition, and false if its
// span does not lie in the text.
func (ix *Index) slice(i int) (string, bool) {
	sp := ix.spans[i]
	if ix.file == nil || !sp.IsValid() || int(sp.End) > len(ix.file.Text) || sp.Start > sp.End {
		return "", false
	}
	return ix.file.Text[sp.Start:sp.End], true
}

func (ix *Index) fileName() string {
	if ix.file == nil {
		return ""
	}
	return ix.file.Name
}

// isTypeDef reports whether key names a definition the types signature
// covers: every kind but functions.
func isTypeDef(key string) bool { return len(key) > 1 && key[0] != 'f' }

// sameTypeDefs reports whether ix and prev hold the same non-function
// definitions with the same hashes, in the same order.
func (ix *Index) sameTypeDefs(prev *Index) bool {
	if prev.typesSig == "" {
		return false
	}
	j := 0
	for i, k := range ix.keys {
		if !isTypeDef(k) {
			continue
		}
		for j < len(prev.keys) && !isTypeDef(prev.keys[j]) {
			j++
		}
		if j == len(prev.keys) || prev.keys[j] != k || prev.hashes[j] != ix.hashes[i] {
			return false
		}
		j++
	}
	for ; j < len(prev.keys); j++ {
		if isTypeDef(prev.keys[j]) {
			return false
		}
	}
	return true
}

// hashTypes hashes the file name plus the raw text of every non-function
// definition, by key.
func (ix *Index) hashTypes() string {
	parts := []string{"types"}
	if ix.file != nil {
		parts = append(parts, ix.file.Name)
	}
	keys := make([]string, 0, len(ix.pos))
	for k := range ix.pos {
		if isTypeDef(k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, k, ix.hashes[ix.pos[k]])
	}
	return Hash(parts...)
}

// Hashed reports how many SHA-256 digests NewIndex computed: one per
// definition it could not take from prev, and one for a types signature
// it could not take from prev.
func (ix *Index) Hashed() int { return ix.hashed }

// SameKeys reports whether ix and prev index definitions of the same kinds
// and names in the same order.
func (ix *Index) SameKeys(prev *Index) bool { return slices.Equal(ix.keys, prev.keys) }

// Def returns the info for a kind-qualified definition key.
func (ix *Index) Def(key string) (DefInfo, bool) {
	i, ok := ix.pos[key]
	if !ok {
		return DefInfo{}, false
	}
	return DefInfo{Span: ix.spans[i], Hash: ix.hashes[i]}, true
}

// HashAt returns the content hash of the program's i-th definition.
func (ix *Index) HashAt(i int) string { return ix.hashes[i] }

// TypesSig hashes the file name plus the raw text of every non-function
// definition, in key order. Any change to the type environment — a struct
// or union layout, a global's declaration, an external's signature —
// changes the signature and with it every function-level key that embeds
// it.
func (ix *Index) TypesSig() string { return ix.typesSig }

// Rel encodes an absolute span relative to its owning definition. Spans
// outside every definition are kept absolute with an empty owner.
func (ix *Index) Rel(sp source.Span) RelSpan {
	if !sp.IsValid() {
		return RelSpan{Start: int(sp.Start), End: int(sp.End)}
	}
	i := sort.Search(len(ix.ordered), func(i int) bool {
		return ix.ordered[i].start > int(sp.Start)
	}) - 1
	if i >= 0 && int(sp.Start) >= ix.ordered[i].start && int(sp.End) <= ix.ordered[i].end {
		o := ix.ordered[i]
		return RelSpan{Owner: o.owner, Start: int(sp.Start) - o.start, End: int(sp.End) - o.start}
	}
	return RelSpan{Start: int(sp.Start), End: int(sp.End)}
}

// Abs rebases a RelSpan against the current parse. Rebasing a span whose
// owner no longer exists yields an invalid span — the driver's keys embed
// the owner's content hash precisely so that this cannot happen on a
// cache hit.
func (ix *Index) Abs(r RelSpan) source.Span {
	if r.Owner == "" {
		return source.Span{Start: source.Pos(r.Start), End: source.Pos(r.End)}
	}
	i, ok := ix.pos[r.Owner]
	if !ok || !ix.spans[i].IsValid() {
		return source.Span{Start: source.NoPos, End: source.NoPos}
	}
	return source.Span{
		Start: ix.spans[i].Start + source.Pos(r.Start),
		End:   ix.spans[i].Start + source.Pos(r.End),
	}
}
