package parser_test

import (
	"fmt"
	"strings"
	"testing"

	"bitc/internal/corpus"
	"bitc/internal/parser"
)

// maxScratchPerByte bounds the reader's scratch per byte of a file that is
// one large form. A nested let takes about 54 bytes of scratch per byte of
// text at any depth: its nodes, atom tokens and child lists, plus the
// chunks it outgrew on the way, which doubling keeps under the size of the
// last one.
const maxScratchPerByte = 64

// TestParseScratchBound holds the reader's scratch, counted in bytes of
// slab chunks allocated, to the largest top-level form rather than the
// file: the reader rewinds its scratch after each form and keeps what a
// large form grew it to.
//
// What the counter cannot see: it counts the chunks the slabs allocate,
// not the reader's stack of open lists, which is bounded by the widest
// list, nor anything the former allocates for the AST.
func TestParseScratchBound(t *testing.T) {
	scratch := func(name, text string) int {
		t.Helper()
		_, diags, b := parser.ParseScratch(name, text)
		if diags.HasErrors() {
			t.Fatalf("%s: %v", name, diags)
		}
		t.Logf("%s: %d bytes of text, %d of scratch", name, len(text), b)
		return b
	}
	small, large := scratch("corpus-1000", corpus.Text(1000, 25)), scratch("corpus-4000", corpus.Text(4000, 25))
	if small != large {
		t.Errorf("the 4000-function corpus takes %d bytes of scratch, the 1000-function one %d; want the same", large, small)
	}
	for _, n := range []int{1000, 4000} {
		text := corpus.LetShape(n)
		if b := scratch(fmt.Sprintf("let-%d", n), text); b > maxScratchPerByte*len(text) {
			t.Errorf("let-%d: %d bytes of scratch for a %d-byte form, want at most %d per byte", n, b, len(text), maxScratchPerByte)
		}
	}
	// A large form grows the scratch to hold it, possibly over two forms
	// (the chunk it ends in holds at least half of it); later forms reuse it.
	let := corpus.LetShape(2000)
	if alone, then := scratch("let-2000", let), scratch("let-2000-then-corpus", let+corpus.Text(1000, 25)); then != alone {
		t.Errorf("small forms after a large one take %d more bytes of scratch, want none", then-alone)
	}
	if two, eight := scratch("let-2000x2", strings.Repeat(let, 2)), scratch("let-2000x8", strings.Repeat(let, 8)); eight != two {
		t.Errorf("six more copies of a large form take %d more bytes of scratch, want none", eight-two)
	}
}
