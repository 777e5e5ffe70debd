package parser

import (
	"strings"

	"bitc/internal/lexer"
	"bitc/internal/source"
)

// sexp is the generic S-expression layer the parser builds before recognising
// special forms. Keeping this layer separate makes form recognition plain
// pattern matching instead of token juggling.
type sexp struct {
	span source.Span
	tok  *lexer.Token // atom payload; nil for lists
	list []*sexp      // a list's children, possibly none; nil for atoms
}

func (s *sexp) isList() bool { return s.tok == nil }

// sym returns the symbol text if s is a symbol atom, else "".
func (s *sexp) sym() string {
	if s.tok != nil && s.tok.Kind == lexer.Symbol {
		return s.tok.Text
	}
	return ""
}

// keyword returns the keyword text (with leading colon) if s is a keyword.
func (s *sexp) keyword() string {
	if s.tok != nil && s.tok.Kind == lexer.Keyword {
		return s.tok.Text
	}
	return ""
}

// head returns the leading symbol of a list, or "".
func (s *sexp) head() string {
	if s.isList() && len(s.list) > 0 {
		return s.list[0].sym()
	}
	return ""
}

// reader builds sexps from a token stream with one token of lookahead, one
// top-level form at a time. Its nodes, atom tokens and child lists are
// carved from slabs of scratch that forms rewinds after each top-level
// form, so the scratch is bounded by the largest form, not by the file.
// Nothing in the AST points into the scratch: names are substrings of the
// file (or copies, under own) and payloads are copied into the nodes.
type reader struct {
	lx    *lexer.Lexer
	diags *source.Diagnostics
	tok   lexer.Token // lookahead: the next token, not yet consumed

	nodes slab[sexp]
	atoms slab[lexer.Token]
	kids  slab[*sexp]
	// stack holds the children read so far of every list still open,
	// innermost last; closeList moves a list's children off it.
	stack []*sexp
	// own makes each atom's text a copy instead of a substring of the file,
	// so the names in the AST do not keep the whole text alive.
	own bool
}

// newReader starts a reader at byte offset from of file, which must lie
// between tokens, sizing its first chunks for n bytes of text but for no
// more than about one large function.
func newReader(file *source.File, diags *source.Diagnostics, from, n int) *reader {
	r := &reader{
		lx:    lexer.NewAt(file, diags, from),
		diags: diags,
		nodes: slab[sexp]{size: min(n/4+16, 1024)},
		atoms: slab[lexer.Token]{size: min(n/6+16, 1024)},
		kids:  slab[*sexp]{size: min(n/4+16, 1024)},
	}
	r.tok = r.lx.Next()
	return r
}

// forms reads the top-level S-expressions until the lookahead token is the
// end of file or starts at or past to, handing each to form as soon as it
// closes and rewinding the scratch once form returns.
func (r *reader) forms(to int, form func(*sexp)) {
	for r.tok.Kind != lexer.EOF && int(r.tok.Span.Start) < to {
		if s := r.read(); s != nil {
			form(s)
		}
		r.nodes.reset()
		r.atoms.reset()
		r.kids.reset()
	}
}

// next consumes the lookahead token and returns it. At end of file it keeps
// returning the EOF token.
func (r *reader) next() lexer.Token {
	t := r.tok
	if t.Kind != lexer.EOF {
		r.tok = r.lx.Next()
	}
	return t
}

// closeList pops the children pushed since base and returns them as a slice
// of exact length.
func (r *reader) closeList(base int) []*sexp {
	list := r.kids.take(len(r.stack) - base)
	copy(list, r.stack[base:])
	r.stack = r.stack[:base]
	return list
}

// atom returns a leaf sexp for tok.
func (r *reader) atom(tok lexer.Token) *sexp {
	t := r.atoms.one()
	*t = tok
	if r.own {
		t.Text = strings.Clone(tok.Text)
	}
	n := r.nodes.one()
	*n = sexp{span: tok.Span, tok: t}
	return n
}

// read parses one S-expression; nil on unrecoverable junk (already reported).
func (r *reader) read() *sexp {
	t := r.next()
	switch t.Kind {
	case lexer.LParen, lexer.LBracket:
		closer := lexer.RParen
		if t.Kind == lexer.LBracket {
			closer = lexer.RBracket
		}
		node := r.nodes.one()
		node.span = t.Span
		base := len(r.stack)
		for {
			switch p := &r.tok; p.Kind {
			case closer:
				node.span = node.span.Union(p.Span)
				r.next()
				node.list = r.closeList(base)
				return node
			case lexer.EOF:
				r.diags.Errorf(t.Span, "unclosed %s", t.Kind)
				node.list = r.closeList(base)
				return node
			case lexer.RParen, lexer.RBracket:
				// Mismatched closer: consume and report, keep going.
				r.diags.Errorf(p.Span, "mismatched %s", p.Kind)
				r.next()
				continue
			}
			if child := r.read(); child != nil {
				r.stack = append(r.stack, child)
				node.span = node.span.Union(child.span)
			}
		}
	case lexer.RParen, lexer.RBracket:
		r.diags.Errorf(t.Span, "unexpected %s", t.Kind)
		return nil
	case lexer.Quote:
		inner := r.read()
		if inner == nil {
			r.diags.Errorf(t.Span, "quote requires a following expression")
			return nil
		}
		// 'x is only used for type variables; represent as (quote x).
		list := r.kids.take(2)
		list[0] = r.atom(lexer.Token{Kind: lexer.Symbol, Text: "quote", Span: t.Span})
		list[1] = inner
		n := r.nodes.one()
		*n = sexp{span: t.Span.Union(inner.span), list: list}
		return n
	case lexer.EOF:
		return nil
	default:
		return r.atom(t)
	}
}

// slab hands out values of T carved from one chunk, so that many small
// objects cost one allocation. A take that does not fit starts a chunk more
// than twice as large, leaving the old one to the values already carved
// from it; reset rewinds the chunk for reuse, zeroing only the prefix handed
// out. Values stay valid until the next reset.
type slab[T any] struct {
	chunk []T
	size  int // capacity of the first chunk
	alloc int // values allocated in chunks, for the scratch-bound test
}

// take returns n zeroed values with capacity n, so appending to the result
// cannot overwrite a neighbour.
func (s *slab[T]) take(n int) []T {
	i := len(s.chunk)
	if i+n > cap(s.chunk) {
		c := max(s.size, 2*cap(s.chunk)+n)
		s.chunk, i = make([]T, 0, c), 0
		s.alloc += c
	}
	s.chunk = s.chunk[:i+n]
	return s.chunk[i : i+n : i+n]
}

// one returns a pointer to one zeroed T.
func (s *slab[T]) one() *T { return &s.take(1)[0] }

// reset zeroes the values handed out since the last reset and rewinds.
func (s *slab[T]) reset() {
	clear(s.chunk)
	s.chunk = s.chunk[:0]
}
