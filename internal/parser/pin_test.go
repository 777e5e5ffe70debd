package parser_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"bitc/internal/ast"
	"bitc/internal/bench"
	"bitc/internal/corpus"
	"bitc/internal/parser"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/parse-pin.txt")

const pinFile = "testdata/parse-pin.txt"

// pinInput is one named source text the parse pin covers.
type pinInput struct{ name, text string }

// malformedInputs exercise the reader's and the lexer's error paths. Their
// pinned digests cover the rendered diagnostics as well as the recovered tree.
var malformedInputs = []pinInput{
	{"unclosed-list", "(define (f) int64 (+ 1 2)"},
	{"mismatched-bracket", "(define (f) int64 (+ 1 ] 2))"},
	{"crossed-brackets", "[(])"},
	{"quote-before-close", "(define (f) int64 (g '))"},
	{"stray-close", "(define (f) int64 1))\n(define (g) int64 2)"},
	{"quote-at-eof", "(define (f (x 'a)) 'a x) '"},
	{"unterminated-string", "(define (f) string \"abc\n(define (g) int64 1)"},
	{"unterminated-block-comment", "(define (f) int64 1) #| never closed"},
	{"bad-hash", "(define (f) int64 (+ #q 1))"},
	{"empty-keyword", "(defstruct p : (a int64))"},
	{"overflow-decimal", "(define (f) int64 30000000000000000000)"},
	{"overflow-hex", "(define (f) int64 0x1FFFFFFFFFFFFFFFF)"},
	{"overflow-negative", "(define (f) int64 (+ -18446744073709551615 -9223372036854775809))"},
	{"non-ascii-symbol", "(define (é (ünï int64)) int64 (+ ünï 1))\n(define (g) int64 (x\u200by \xff 1))"},
	{"after-many-good", corpus.Text(60, 5) + "(define (g) int64 (+ 1 2]\n42\n'x\n(define (h) int64 (let ((a 1)) a))"},
}

// streamInputs exercise a reader that forms one top-level form at a time:
// a form far larger than the first scratch chunk followed by small forms,
// and (suppress ...) forms spread over consecutive definitions.
var streamInputs = []pinInput{
	{"let2000-then-corpus", corpus.LetShape(2000) + corpus.Text(40, 5)},
	{"suppress-consecutive", `(define (f (x int64)) int64 (suppress "BITC-TRUNC001" (+ x 1)))
(define (g (x int64)) int64 (let ((y (suppress "BITC-DEAD001" 1))) (suppress "BITC-TRUNC001" x)))
(define (h) int64 (suppress "BITC-X" 1 2))
(define (k) int64 (+ (suppress "BITC-A" 1) (suppress "BITC-B" 2)))
`},
}

// pinInputs lists every input the parse pin covers, in a fixed order.
func pinInputs(t *testing.T) []pinInput {
	t.Helper()
	var ins []pinInput
	var files []string
	for _, root := range []string{"../../examples", "../../internal/core/testdata"} {
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
		rel, err := filepath.Rel("../..", f)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, pinInput{filepath.ToSlash(rel), string(b)})
	}
	for _, k := range bench.KernelNames() {
		src, _ := bench.KernelSource(k)
		ins = append(ins, pinInput{"kernel/" + k, src})
	}
	ins = append(ins, pinInput{"corpus/200x24", corpus.Text(200, 24)})
	for _, s := range streamInputs {
		ins = append(ins, pinInput{"stream/" + s.name, s.text})
	}
	for _, m := range malformedInputs {
		ins = append(ins, pinInput{"malformed/" + m.name, m.text})
	}
	return ins
}

// parseDigest hashes everything Parse hands back: the printed program, the
// kind and span of every definition and of every expression ast.Walk
// reaches, the suppressions, and the rendered diagnostics.
func parseDigest(name, text string) string {
	prog, diags := parser.Parse(name, text)
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", ast.PrintProgram(prog))
	for _, d := range prog.Defs {
		fmt.Fprintf(h, "def %T %v\n", d, d.Span())
		ast.WalkDef(d, func(e ast.Expr) bool {
			fmt.Fprintf(h, "%T %v\n", e, e.Span())
			return true
		})
	}
	fmt.Fprintf(h, "suppressions %v\n", prog.Suppressions)
	fmt.Fprintf(h, "diags %s\n", diags.Error())
	e, ediags := parser.ParseExpr(text)
	fmt.Fprintf(h, "expr %s\n", ast.Print(e))
	ast.Walk(e, func(e ast.Expr) bool {
		fmt.Fprintf(h, "%T %v\n", e, e.Span())
		return true
	})
	fmt.Fprintf(h, "expr diags %s\n", ediags.Error())
	return hex.EncodeToString(h.Sum(nil))
}

// TestParsePin checks Parse and ParseExpr against pinned digests, so any
// change to the tree, its spans or its rendered diagnostics shows; the order
// of diags.List may change, the rendered text may not. Regenerate
// deliberately with -update and review which inputs moved.
func TestParsePin(t *testing.T) {
	ins := pinInputs(t)
	if *updatePin {
		var b strings.Builder
		for _, in := range ins {
			fmt.Fprintf(&b, "%s %s\n", in.name, parseDigest(in.name, in.text))
		}
		if err := os.WriteFile(pinFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(pinFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed pin line %q", sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(ins) {
		t.Errorf("%s pins %d inputs, the test has %d", pinFile, len(want), len(ins))
	}
	for _, in := range ins {
		if got := parseDigest(in.name, in.text); got != want[in.name] {
			t.Errorf("%s: parse digest %s, pinned %q", in.name, got, want[in.name])
		}
	}
}
