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
package factstore

import (
	"crypto/sha256"
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
	gen     uint64
	hits    uint64
	misses  uint64
	puts    uint64
	evicted uint64
}

// New creates an empty store.
func New() *Store {
	return &Store{entries: map[string]*entry{}}
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
// content hashes, and rebases RelSpans against them.
type Index struct {
	file *source.File
	defs map[string]DefInfo

	// hashes holds each definition's DefInfo.Hash by position in the
	// program's Defs.
	hashes []string
	// ordered supports owner lookup by binary search over start offsets.
	ordered []ownerSpan
	// typesSig memoises TypesSig.
	typesSig string
}

type ownerSpan struct {
	start, end int
	owner      string
}

// DefKey qualifies a definition name by kind so a struct and a function
// sharing a name cannot collide in the index.
func DefKey(d ast.Def) string {
	switch d.(type) {
	case *ast.DefineFunc:
		return "f:" + d.DefName()
	case *ast.DefineVar:
		return "v:" + d.DefName()
	case *ast.DefStruct:
		return "s:" + d.DefName()
	case *ast.DefUnion:
		return "u:" + d.DefName()
	case *ast.External:
		return "x:" + d.DefName()
	}
	return "?:" + d.DefName()
}

// NewIndex builds the index for one parsed program.
func NewIndex(prog *ast.Program) *Index {
	ix := &Index{
		file:    prog.File,
		defs:    make(map[string]DefInfo, len(prog.Defs)),
		ordered: make([]ownerSpan, 0, len(prog.Defs)),
		hashes:  make([]string, len(prog.Defs)),
	}
	// Hashing every definition's source is the one pass over the whole
	// program text an incremental run makes, so it is spread over the cores.
	par.Chunks(len(prog.Defs), 0, 1024, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ix.hashes[i] = ix.hashSlice(prog.Defs[i].Span())
		}
	})
	for i, d := range prog.Defs {
		sp := d.Span()
		key := DefKey(d)
		ix.defs[key] = DefInfo{Span: sp, Hash: ix.hashes[i]}
		if sp.IsValid() {
			ix.ordered = append(ix.ordered, ownerSpan{int(sp.Start), int(sp.End), key})
		}
	}
	sort.Slice(ix.ordered, func(i, j int) bool { return ix.ordered[i].start < ix.ordered[j].start })
	return ix
}

func (ix *Index) hashSlice(sp source.Span) string {
	if ix.file == nil || !sp.IsValid() || int(sp.End) > len(ix.file.Text) || sp.Start > sp.End {
		return Hash("nospan")
	}
	return Hash(ix.file.Text[sp.Start:sp.End])
}

// Def returns the info for a kind-qualified definition key.
func (ix *Index) Def(key string) (DefInfo, bool) {
	di, ok := ix.defs[key]
	return di, ok
}

// HashAt returns the content hash of the program's i-th definition.
func (ix *Index) HashAt(i int) string { return ix.hashes[i] }

// TypesSig hashes the file name plus the raw text of every non-function
// definition, in order. Any change to the type environment — a struct or
// union layout, a global's declaration, an external's signature — changes
// the signature and with it every function-level key that embeds it.
func (ix *Index) TypesSig() string {
	if ix.typesSig != "" {
		return ix.typesSig
	}
	parts := []string{"types"}
	if ix.file != nil {
		parts = append(parts, ix.file.Name)
	}
	keys := make([]string, 0, len(ix.defs))
	for k := range ix.defs {
		if len(k) > 1 && k[0] != 'f' {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, k, ix.defs[k].Hash)
	}
	ix.typesSig = Hash(parts...)
	return ix.typesSig
}

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
	di, ok := ix.defs[r.Owner]
	if !ok || !di.Span.IsValid() {
		return source.Span{Start: source.NoPos, End: source.NoPos}
	}
	return source.Span{
		Start: di.Span.Start + source.Pos(r.Start),
		End:   di.Span.Start + source.Pos(r.End),
	}
}
