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

// readSexps reads every top-level S-expression in file. Tokens are pulled
// from the lexer one at a time; no token slice is built.
func readSexps(file *source.File, diags *source.Diagnostics) []*sexp {
	r := newReader(file, diags, 0, len(file.Text))
	return r.readForms(len(file.Text))
}

// readRange reads the top-level S-expressions of file that start in the
// byte range [from, to); from must lie between tokens. The last form read
// must end by to and the next token must start exactly at to (the end of
// file token, if to is the end of the text). Otherwise [from, to) is not a
// run of whole forms, as when a comment or string opened inside the range
// runs past it, and readRange reports that as an error. The atoms' text is
// copied out of the file: a definition parsed this way may outlive many
// later versions of the text, and should keep none of them alive.
func readRange(file *source.File, diags *source.Diagnostics, from, to int) []*sexp {
	r := newReader(file, diags, from, to-from)
	r.own = true
	forms := r.readForms(to)
	if int(r.tok.Span.Start) != to {
		diags.Errorf(r.tok.Span, "the forms read from offset %d do not end at offset %d", from, to)
	}
	return forms
}

// readForms reads top-level S-expressions until the lookahead token is the
// end of file or starts at or past to.
func (r *reader) readForms(to int) []*sexp {
	for r.tok.Kind != lexer.EOF && int(r.tok.Span.Start) < to {
		if s := r.read(); s != nil {
			r.stack = append(r.stack, s)
		}
	}
	return r.closeList(0)
}

// reader builds sexps from a token stream with one token of lookahead. Its
// nodes, atom tokens and child lists are carved from per-parse slabs, so a
// parse allocates a few chunks instead of one object per token. Nothing in
// the AST points into the slabs, so they die with the parse.
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
// between tokens, sizing its slabs for n bytes of text.
func newReader(file *source.File, diags *source.Diagnostics, from, n int) *reader {
	// Dense source runs at about one sexp and one child-list slot per 3.7
	// bytes and one atom per 5.6 (the generated corpus; hand-written
	// programs with comments are sparser). First chunks sized from the text
	// at about that rate keep a small program's parse small and hold most of
	// a large one.
	r := &reader{
		lx:    lexer.NewAt(file, diags, from),
		diags: diags,
		nodes: slab[sexp]{size: n/4 + 16},
		atoms: slab[lexer.Token]{size: n/6 + 16},
		kids:  slab[*sexp]{size: n/4 + 16},
	}
	r.tok = r.lx.Next()
	return r
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

// slab hands out values of T carved from chunks, so that many small objects
// cost one allocation per chunk. Chunks after the first are an eighth of its
// size, which bounds the unused tail when the first was sized too small. A
// chunk is never reallocated, so pointers into it stay valid for the slab's
// lifetime.
type slab[T any] struct {
	chunk []T
	size  int // length of the next chunk
}

// take returns n zeroed values with capacity n, so appending to the result
// cannot overwrite a neighbour.
func (s *slab[T]) take(n int) []T {
	if n > s.size {
		return make([]T, n)
	}
	i := len(s.chunk)
	if i+n > cap(s.chunk) {
		s.chunk, i = make([]T, 0, s.size), 0
		s.size = max(s.size/8, 16)
	}
	s.chunk = s.chunk[:i+n]
	return s.chunk[i : i+n : i+n]
}

// one returns a pointer to one zeroed T.
func (s *slab[T]) one() *T { return &s.take(1)[0] }
