package core_test

import (
	"strings"
	"testing"

	"bitc/internal/core"
)

// FuzzLoad drives the entire front end (lexer, parser, type checker,
// compiler, optimiser) with arbitrary inputs. The invariant is total
// robustness: any input may be rejected with diagnostics, none may panic.
// `go test` runs the seed corpus; `go test -fuzz=FuzzLoad ./internal/core`
// explores further.
func FuzzLoad(f *testing.F) {
	seeds := []string{
		`(define (main) int64 42)`,
		`(defstruct p :packed (a (bitfield uint8 4)) (b (bitfield uint8 4)))`,
		`(defunion l (N) (C (h int64) (t l)))`,
		`(define (f (x int64)) int64 :requires (> x 0) :ensures (> %result 0) (+ x 1))`,
		`(define (f) unit (with-region r (alloc-in r (vector 1 2 3)) ()))`,
		`(define (f) int64 (let ((mutable i 0)) (while (< i 9) :invariant (>= i 0) (set! i (+ i 1))) i))`,
		`(define (f) unit (atomic (with-lock m (assert #t))))`,
		"(define (f)", // unbalanced
		")))((",
		`#| nested #| comment |# |# (define x 1)`,
		"\x00\xff\xfe",
		`(define (f (x 'a)) 'a x)`,
		// The reader's error paths: mismatched and crossed closers, a quote
		// with nothing or an open list after it, unterminated string, block
		// comment and character, a lone closer, and a 10,000-deep nest.
		`(a ] b)`,
		`[(])`,
		`'`,
		`'(`,
		`"abc`,
		`#|`,
		`#\`,
		`)`,
		strings.Repeat("(", 10000) + strings.Repeat(")", 10000),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := core.Load("fuzz.bitc", src, core.DefaultConfig)
		if err == nil && prog == nil {
			t.Fatal("nil program with nil error")
		}
	})
}
