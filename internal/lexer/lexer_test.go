package lexer

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func kindsOf(toks []Token) []Kind {
	ks := make([]Kind, len(toks))
	for i, t := range toks {
		ks[i] = t.Kind
	}
	return ks
}

func lexOK(t *testing.T, text string) []Token {
	t.Helper()
	toks, diags := Tokenize("t.bitc", text)
	if diags.HasErrors() {
		t.Fatalf("lex %q: %v", text, diags)
	}
	return toks
}

func TestBasicTokens(t *testing.T) {
	toks := lexOK(t, "(foo bar-baz set! +)")
	want := []Kind{LParen, Symbol, Symbol, Symbol, Symbol, RParen, EOF}
	got := kindsOf(toks)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	if toks[1].Text != "foo" || toks[2].Text != "bar-baz" || toks[3].Text != "set!" || toks[4].Text != "+" {
		t.Errorf("texts wrong: %q %q %q %q", toks[1].Text, toks[2].Text, toks[3].Text, toks[4].Text)
	}
}

func TestBrackets(t *testing.T) {
	toks := lexOK(t, "[a]")
	want := []Kind{LBracket, Symbol, RBracket, EOF}
	if fmt.Sprint(kindsOf(toks)) != fmt.Sprint(want) {
		t.Fatalf("kinds = %v", kindsOf(toks))
	}
}

func TestIntegers(t *testing.T) {
	cases := map[string]int64{
		"0":                   0,
		"42":                  42,
		"-7":                  -7,
		"+13":                 13,
		"0xff":                255,
		"0xFF":                255,
		"0b1010":              10,
		"0o17":                15,
		"1_000":               1000,
		"-0x10":               -16,
		"9223372036854775807": 9223372036854775807,
	}
	for text, want := range cases {
		toks := lexOK(t, text)
		if toks[0].Kind != Int {
			t.Errorf("%q: kind = %v", text, toks[0].Kind)
			continue
		}
		if toks[0].IntVal != want {
			t.Errorf("%q = %d, want %d", text, toks[0].IntVal, want)
		}
	}
}

func TestFloats(t *testing.T) {
	cases := map[string]float64{
		"3.14":   3.14,
		"-0.5":   -0.5,
		"1e9":    1e9,
		"2.5e-3": 2.5e-3,
		"1E+2":   100,
	}
	for text, want := range cases {
		toks := lexOK(t, text)
		if toks[0].Kind != Float {
			t.Errorf("%q: kind = %v, want Float", text, toks[0].Kind)
			continue
		}
		if toks[0].FloatVal != want {
			t.Errorf("%q = %g, want %g", text, toks[0].FloatVal, want)
		}
	}
}

func TestMinusIsSymbolWithoutDigit(t *testing.T) {
	toks := lexOK(t, "(- a 1)")
	if toks[1].Kind != Symbol || toks[1].Text != "-" {
		t.Errorf("got %v %q", toks[1].Kind, toks[1].Text)
	}
}

func TestBooleans(t *testing.T) {
	toks := lexOK(t, "#t #f")
	if toks[0].Kind != Bool || toks[0].IntVal != 1 {
		t.Errorf("#t = %v/%d", toks[0].Kind, toks[0].IntVal)
	}
	if toks[1].Kind != Bool || toks[1].IntVal != 0 {
		t.Errorf("#f = %v/%d", toks[1].Kind, toks[1].IntVal)
	}
}

func TestChars(t *testing.T) {
	cases := map[string]rune{
		`#\a`:       'a',
		`#\Z`:       'Z',
		`#\newline`: '\n',
		`#\space`:   ' ',
		`#\tab`:     '\t',
		`#\0`:       '0',
	}
	for text, want := range cases {
		toks := lexOK(t, text)
		if toks[0].Kind != Char || toks[0].IntVal != int64(want) {
			t.Errorf("%q = %v/%d, want Char/%d", text, toks[0].Kind, toks[0].IntVal, want)
		}
	}
}

func TestBadCharName(t *testing.T) {
	_, diags := Tokenize("t", `#\bogusname`)
	if !diags.HasErrors() {
		t.Fatal("expected error for unknown char name")
	}
}

func TestStrings(t *testing.T) {
	cases := map[string]string{
		`"hello"`:       "hello",
		`"a\nb"`:        "a\nb",
		`"tab\there"`:   "tab\there",
		`"quote\"in"`:   `quote"in`,
		`"back\\slash"`: `back\slash`,
		`"hex\x41!"`:    "hexA!",
		`""`:            "",
	}
	for text, want := range cases {
		toks := lexOK(t, text)
		if toks[0].Kind != String || toks[0].StrVal != want {
			t.Errorf("%s = %v/%q, want String/%q", text, toks[0].Kind, toks[0].StrVal, want)
		}
	}
}

func TestUnterminatedString(t *testing.T) {
	_, diags := Tokenize("t", `"abc`)
	if !diags.HasErrors() {
		t.Fatal("expected unterminated string error")
	}
	_, diags = Tokenize("t", "\"abc\ndef\"")
	if !diags.HasErrors() {
		t.Fatal("expected error for newline in string")
	}
}

func TestKeywords(t *testing.T) {
	toks := lexOK(t, ":packed :requires")
	if toks[0].Kind != Keyword || toks[0].Text != ":packed" {
		t.Errorf("got %v %q", toks[0].Kind, toks[0].Text)
	}
	if toks[1].Text != ":requires" {
		t.Errorf("got %q", toks[1].Text)
	}
}

func TestComments(t *testing.T) {
	toks := lexOK(t, "a ; line comment\nb #| block #| nested |# comment |# c")
	var syms []string
	for _, tk := range toks {
		if tk.Kind == Symbol {
			syms = append(syms, tk.Text)
		}
	}
	if strings.Join(syms, " ") != "a b c" {
		t.Errorf("symbols = %v", syms)
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	_, diags := Tokenize("t", "#| never closed")
	if !diags.HasErrors() {
		t.Fatal("expected unterminated block comment error")
	}
}

func TestQuoteToken(t *testing.T) {
	toks := lexOK(t, "'a")
	if toks[0].Kind != Quote || toks[1].Kind != Symbol {
		t.Errorf("kinds = %v", kindsOf(toks))
	}
}

func TestSpansCoverText(t *testing.T) {
	text := "(define x 42)"
	toks := lexOK(t, text)
	for _, tk := range toks[:len(toks)-1] {
		if !tk.Span.IsValid() || tk.Span.End <= tk.Span.Start {
			t.Errorf("token %q has degenerate span %+v", tk.Text, tk.Span)
		}
		got := text[tk.Span.Start:tk.Span.End]
		if got != tk.Text {
			t.Errorf("span text %q != token text %q", got, tk.Text)
		}
	}
}

func TestIntegerOverflowReported(t *testing.T) {
	_, diags := Tokenize("t", "99999999999999999999999999")
	if !diags.HasErrors() {
		t.Fatal("expected overflow diagnostic")
	}
}

// TestIntegerOverflowBounds holds the 64-bit limits exactly: a positive
// literal may use all 64 bits (wrapping to a negative int64), a negative one
// may reach -2^63, and one digit more in either direction is an error, not a
// silently wrapped value.
func TestIntegerOverflowBounds(t *testing.T) {
	cases := []struct {
		text     string
		want     int64
		overflow bool
	}{
		{"18446744073709551615", -1, false},
		{"9223372036854775807", math.MaxInt64, false},
		{"-9223372036854775808", math.MinInt64, false},
		{"0xFFFFFFFFFFFFFFFF", -1, false},
		{"-0x8000000000000000", math.MinInt64, false},
		{"18446744073709551616", 0, true},
		{"30000000000000000000", 0, true},
		{"0x1FFFFFFFFFFFFFFFF", 0, true},
		{"0b11111111111111111111111111111111111111111111111111111111111111111", 0, true},
		{"-18446744073709551615", 0, true},
		{"-9223372036854775809", 0, true},
		{"-0x8000000000000001", 0, true},
	}
	for _, c := range cases {
		toks, diags := Tokenize("t", c.text)
		if toks[0].Kind != Int {
			t.Errorf("%s: kind = %v, want Int", c.text, toks[0].Kind)
			continue
		}
		if c.overflow {
			if !diags.HasErrors() || !strings.Contains(diags.Error(), "overflows 64 bits") {
				t.Errorf("%s: diagnostics %q, want an overflow error", c.text, diags.Error())
			}
			continue
		}
		if diags.HasErrors() {
			t.Errorf("%s: unexpected error %v", c.text, diags)
		} else if toks[0].IntVal != c.want {
			t.Errorf("%s = %d, want %d", c.text, toks[0].IntVal, c.want)
		}
	}
}

// TestSymbolTableMatchesIsSymbolChar checks the ASCII fast path against the
// function it is built from, byte by byte.
func TestSymbolTableMatchesIsSymbolChar(t *testing.T) {
	for c := 0; c < utf8.RuneSelf; c++ {
		if symbolByte[c] != isSymbolChar(rune(c)) {
			t.Errorf("byte %#x: table says %v, isSymbolChar says %v", c, symbolByte[c], isSymbolChar(rune(c)))
		}
	}
}

func TestCommaIsWhitespace(t *testing.T) {
	toks := lexOK(t, "a, b")
	if len(toks) != 3 { // a b EOF
		t.Fatalf("tokens = %v", kindsOf(toks))
	}
}

// Property: the lexer always terminates and always ends with EOF, for
// arbitrary byte soup.
func TestLexerTotal(t *testing.T) {
	check := func(raw []byte) bool {
		toks, _ := Tokenize("fuzz", string(raw))
		return len(toks) > 0 && toks[len(toks)-1].Kind == EOF
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: lexing the rendered text of an integer round-trips its value.
func TestIntRoundTrip(t *testing.T) {
	check := func(v int64) bool {
		toks, diags := Tokenize("rt", fmt.Sprintf("%d", v))
		return !diags.HasErrors() && toks[0].Kind == Int && toks[0].IntVal == v
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	for k := EOF; k <= Quote; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind string")
	}
}
