// Package lexer tokenizes bitc source text. The surface syntax is
// S-expression based (in the BitC tradition), so the token set is small:
// parentheses, atoms (symbols, keywords, numbers, characters, strings), and
// the quote shorthand.
//
// The parser streams tokens from Lexer.Next one at a time; Tokenize, the
// same loop collected into a slice, serves tests and tools that want the
// whole stream. Symbol, keyword and character-name scans look ASCII bytes up
// in a table built from isSymbolChar and decode only non-ASCII runes.
package lexer

import (
	"fmt"
	"math/bits"
	"strings"
	"unicode"
	"unicode/utf8"

	"bitc/internal/source"
)

// Kind enumerates token kinds.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	LParen
	RParen
	LBracket
	RBracket
	Symbol  // identifiers and operators: foo, +, set!, vector-ref
	Keyword // :packed, :requires — leading colon
	Int     // 42, -7, 0xff, 0b1010
	Float   // 3.14, -0.5, 1e9
	Char    // #\a, #\newline, #\space
	String  // "hello\n"
	Bool    // #t, #f
	Quote   // '
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "end of file"
	case LParen:
		return "'('"
	case RParen:
		return "')'"
	case LBracket:
		return "'['"
	case RBracket:
		return "']'"
	case Symbol:
		return "symbol"
	case Keyword:
		return "keyword"
	case Int:
		return "integer"
	case Float:
		return "float"
	case Char:
		return "character"
	case String:
		return "string"
	case Bool:
		return "boolean"
	case Quote:
		return "quote"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Token is a lexeme with its source span and decoded payload.
type Token struct {
	Kind Kind
	Span source.Span
	Text string // raw text as written

	IntVal   int64   // valid when Kind == Int or Char (code point) or Bool (0/1)
	FloatVal float64 // valid when Kind == Float
	StrVal   string  // decoded value when Kind == String
}

// Lexer walks a source file producing tokens.
type Lexer struct {
	file  *source.File
	diags *source.Diagnostics
	pos   int
}

// New creates a lexer over file, reporting problems into diags.
func New(file *source.File, diags *source.Diagnostics) *Lexer {
	return &Lexer{file: file, diags: diags}
}

// NewAt is New for a lexer that starts at byte offset pos of file, which
// must lie between tokens: outside any token, string or comment.
func NewAt(file *source.File, diags *source.Diagnostics, pos int) *Lexer {
	return &Lexer{file: file, diags: diags, pos: pos}
}

// Tokenize lexes text in one call, returning the token stream (always
// terminated by an EOF token) and any diagnostics.
func Tokenize(name, text string) ([]Token, *source.Diagnostics) {
	file := source.NewFile(name, text)
	diags := source.NewDiagnostics(file)
	lx := New(file, diags)
	// Source text runs at about one token per three bytes. Sizing for one per
	// two up front spares the append growth, which on a large file allocates
	// several times the final slice.
	toks := make([]Token, 0, len(text)/2+1)
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, diags
		}
	}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.file.Text) {
		return 0
	}
	return l.file.Text[l.pos]
}

func (l *Lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.file.Text) {
		return 0
	}
	return l.file.Text[l.pos+off]
}

func (l *Lexer) skipTrivia() {
	for l.pos < len(l.file.Text) {
		c := l.file.Text[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ',':
			l.pos++
		case c == ';': // line comment
			for l.pos < len(l.file.Text) && l.file.Text[l.pos] != '\n' {
				l.pos++
			}
		case c == '#' && l.peekAt(1) == '|': // block comment, nestable
			depth := 1
			l.pos += 2
			for l.pos < len(l.file.Text) && depth > 0 {
				if l.peek() == '#' && l.peekAt(1) == '|' {
					depth++
					l.pos += 2
				} else if l.peek() == '|' && l.peekAt(1) == '#' {
					depth--
					l.pos += 2
				} else {
					l.pos++
				}
			}
			if depth > 0 {
				l.diags.Errorf(span(l.pos, l.pos), "unterminated block comment")
			}
		default:
			return
		}
	}
}

func span(a, b int) source.Span {
	return source.MakeSpan(source.Pos(a), source.Pos(b))
}

// isSymbolChar reports whether c can appear inside a symbol. The set is
// generous, Scheme-style: anything printable that is not a delimiter.
func isSymbolChar(c rune) bool {
	switch c {
	case '(', ')', '[', ']', '"', ';', '\'', ',', '#':
		return false
	}
	return !unicode.IsSpace(c) && unicode.IsPrint(c)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token, emitting diagnostics for malformed input.
func (l *Lexer) Next() Token {
	l.skipTrivia()
	start := l.pos
	if l.pos >= len(l.file.Text) {
		return Token{Kind: EOF, Span: span(start, start)}
	}
	c := l.file.Text[l.pos]
	switch {
	case c == '(':
		l.pos++
		return Token{Kind: LParen, Span: span(start, l.pos), Text: "("}
	case c == ')':
		l.pos++
		return Token{Kind: RParen, Span: span(start, l.pos), Text: ")"}
	case c == '[':
		l.pos++
		return Token{Kind: LBracket, Span: span(start, l.pos), Text: "["}
	case c == ']':
		l.pos++
		return Token{Kind: RBracket, Span: span(start, l.pos), Text: "]"}
	case c == '\'':
		l.pos++
		return Token{Kind: Quote, Span: span(start, l.pos), Text: "'"}
	case c == '"':
		return l.lexString()
	case c == '#':
		return l.lexHash()
	case c == ':':
		return l.lexKeyword()
	case isDigit(c) || ((c == '-' || c == '+') && isDigit(l.peekAt(1))):
		return l.lexNumber()
	default:
		return l.lexSymbol()
	}
}

// symbolByte[c] is isSymbolChar(c) for every ASCII byte c. It is built from
// isSymbolChar itself, so the table and the function cannot disagree.
var symbolByte = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = isSymbolChar(rune(c))
	}
	return t
}()

// scanSymbolChars advances past the longest run of symbol characters. ASCII
// bytes are looked up in symbolByte; only the rest are decoded and checked
// against the unicode tables.
func (l *Lexer) scanSymbolChars() {
	text := l.file.Text
	for l.pos < len(text) {
		if c := text[l.pos]; c < utf8.RuneSelf {
			if !symbolByte[c] {
				return
			}
			l.pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(text[l.pos:])
		if !isSymbolChar(r) {
			return
		}
		l.pos += size
	}
}

func (l *Lexer) lexKeyword() Token {
	start := l.pos
	l.pos++ // consume ':'; later colons are symbol characters
	l.scanSymbolChars()
	text := l.file.Text[start:l.pos]
	if len(text) == 1 {
		l.diags.Errorf(span(start, l.pos), "empty keyword")
	}
	return Token{Kind: Keyword, Span: span(start, l.pos), Text: text}
}

func (l *Lexer) lexSymbol() Token {
	start := l.pos
	l.scanSymbolChars()
	text := l.file.Text[start:l.pos]
	if text == "" {
		// Unlexable byte: report and skip so the lexer always progresses.
		l.pos++
		l.diags.Errorf(span(start, l.pos), "unexpected character %q", l.file.Text[start])
		return l.Next()
	}
	return Token{Kind: Symbol, Span: span(start, l.pos), Text: text}
}

func (l *Lexer) lexNumber() Token {
	start := l.pos
	if c := l.peek(); c == '-' || c == '+' {
		l.pos++
	}
	base := 10
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		base = 16
		l.pos += 2
	} else if l.peek() == '0' && (l.peekAt(1) == 'b' || l.peekAt(1) == 'B') {
		base = 2
		l.pos += 2
	} else if l.peek() == '0' && (l.peekAt(1) == 'o' || l.peekAt(1) == 'O') {
		base = 8
		l.pos += 2
	}
	digitStart := l.pos
	isFloat := false
	for l.pos < len(l.file.Text) {
		c := l.peek()
		switch {
		case isDigit(c),
			base == 16 && ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')),
			c == '_':
			l.pos++
		case base == 10 && c == '.' && isDigit(l.peekAt(1)):
			isFloat = true
			l.pos++
		case base == 10 && (c == 'e' || c == 'E') &&
			(isDigit(l.peekAt(1)) || ((l.peekAt(1) == '+' || l.peekAt(1) == '-') && isDigit(l.peekAt(2)))):
			isFloat = true
			l.pos += 2 // consume 'e' and sign-or-digit; remaining digits loop
		default:
			goto done
		}
	}
done:
	text := l.file.Text[start:l.pos]
	clean := strings.ReplaceAll(text, "_", "")
	tok := Token{Span: span(start, l.pos), Text: text}
	if l.pos == digitStart {
		l.diags.Errorf(tok.Span, "number %q has no digits", text)
		tok.Kind = Int
		return tok
	}
	if isFloat {
		tok.Kind = Float
		var f float64
		if _, err := fmt.Sscanf(clean, "%g", &f); err != nil {
			l.diags.Errorf(tok.Span, "malformed float literal %q", text)
		}
		tok.FloatVal = f
		return tok
	}
	tok.Kind = Int
	neg := false
	s := clean
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	} else {
		s = strings.TrimPrefix(s, "+")
	}
	switch base {
	case 16:
		s = strings.TrimPrefix(s, "0x")
		s = strings.TrimPrefix(s, "0X")
	case 2:
		s = strings.TrimPrefix(s, "0b")
		s = strings.TrimPrefix(s, "0B")
	case 8:
		s = strings.TrimPrefix(s, "0o")
		s = strings.TrimPrefix(s, "0O")
	}
	// A positive literal may use all 64 bits (it wraps to a negative int64);
	// a negative one may reach magnitude 2^63, the most negative int64.
	var v uint64
	for i := 0; i < len(s); i++ {
		d := digitVal(s[i])
		if d < 0 || d >= base {
			l.diags.Errorf(tok.Span, "digit %q invalid in base-%d literal", s[i], base)
			break
		}
		hi, lo := bits.Mul64(v, uint64(base))
		nv, carry := bits.Add64(lo, uint64(d), 0)
		if hi != 0 || carry != 0 || (neg && nv > 1<<63) {
			l.diags.Errorf(tok.Span, "integer literal %q overflows 64 bits", text)
			break
		}
		v = nv
	}
	if neg {
		tok.IntVal = -int64(v)
	} else {
		tok.IntVal = int64(v)
	}
	return tok
}

func digitVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	default:
		return -1
	}
}

var namedChars = map[string]rune{
	"newline": '\n',
	"space":   ' ',
	"tab":     '\t',
	"return":  '\r',
	"nul":     0,
	"null":    0,
}

func (l *Lexer) lexHash() Token {
	start := l.pos
	l.pos++ // '#'
	switch l.peek() {
	case 't':
		l.pos++
		return Token{Kind: Bool, Span: span(start, l.pos), Text: "#t", IntVal: 1}
	case 'f':
		l.pos++
		return Token{Kind: Bool, Span: span(start, l.pos), Text: "#f", IntVal: 0}
	case '\\':
		l.pos++
		nameStart := l.pos
		l.scanSymbolChars()
		name := l.file.Text[nameStart:l.pos]
		tok := Token{Kind: Char, Span: span(start, l.pos), Text: l.file.Text[start:l.pos]}
		switch {
		case name == "" && l.pos < len(l.file.Text):
			// Delimiter character like #\( — take one rune literally.
			r, size := utf8.DecodeRuneInString(l.file.Text[l.pos:])
			l.pos += size
			tok.Span = span(start, l.pos)
			tok.IntVal = int64(r)
		case len(name) == 1:
			r, _ := utf8.DecodeRuneInString(name)
			tok.IntVal = int64(r)
		default:
			if r, ok := namedChars[name]; ok {
				tok.IntVal = int64(r)
			} else {
				l.diags.Errorf(tok.Span, "unknown character name %q", name)
			}
		}
		return tok
	default:
		l.diags.Errorf(span(start, l.pos+1), "unexpected '#' sequence")
		l.pos++
		return l.Next()
	}
}

func (l *Lexer) lexString() Token {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.file.Text) {
		c := l.file.Text[l.pos]
		switch c {
		case '"':
			l.pos++
			return Token{Kind: String, Span: span(start, l.pos), Text: l.file.Text[start:l.pos], StrVal: b.String()}
		case '\\':
			l.pos++
			if l.pos >= len(l.file.Text) {
				break
			}
			e := l.file.Text[l.pos]
			l.pos++
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '0':
				b.WriteByte(0)
			case '\\', '"':
				b.WriteByte(e)
			case 'x':
				hi, lo := digitVal(l.peek()), digitVal(l.peekAt(1))
				if hi < 0 || hi > 15 || lo < 0 || lo > 15 {
					l.diags.Errorf(span(l.pos-2, l.pos), `\x escape needs two hex digits`)
				} else {
					b.WriteByte(byte(hi<<4 | lo))
					l.pos += 2
				}
			default:
				l.diags.Errorf(span(l.pos-2, l.pos), "unknown escape \\%c", e)
			}
		case '\n':
			l.diags.Errorf(span(start, l.pos), "unterminated string literal")
			l.pos++
			return Token{Kind: String, Span: span(start, l.pos), Text: l.file.Text[start:l.pos], StrVal: b.String()}
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	l.diags.Errorf(span(start, l.pos), "unterminated string literal")
	return Token{Kind: String, Span: span(start, l.pos), Text: l.file.Text[start:l.pos], StrVal: b.String()}
}
