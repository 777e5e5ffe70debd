package core_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bitc/internal/core"
)

// loadBudget is the wall time one FuzzLoad input's core.Load may take. Every
// seed and every input the fuzzer has kept loads in a few milliseconds, and
// under the race detector in well under a tenth of the budget, so only a
// stage whose cost grows faster than its input comes near it.
const loadBudget = 2 * time.Second

// FuzzLoad drives the entire front end (lexer, parser, type checker,
// compiler, optimiser) with arbitrary inputs. The invariant is total
// robustness: any input may be rejected with diagnostics, none may panic,
// and none may take longer than loadBudget to load, so a super-linear
// blow-up fails like a panic does. `go test` runs the seed corpus;
// `go test -fuzz=FuzzLoad ./internal/core` explores further.
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
		start := time.Now()
		prog, err := core.Load("fuzz.bitc", src, core.DefaultConfig)
		if d := time.Since(start); d > loadBudget {
			t.Fatalf("core.Load took %v on a %d-byte input, past the %v per-input budget", d.Round(time.Millisecond), len(src), loadBudget)
		}
		if err == nil && prog == nil {
			t.Fatal("nil program with nil error")
		}
	})
}

// FuzzLoadMemo is the memoised front end's differential fuzzer. Each input
// is a base text and a splice: del bytes at offset at are replaced by ins.
// LoadAnalysis loads the base, then the spliced text; the second load,
// served from the memo where it can be, must render exactly as a cold
// parse and check of the spliced text does, or fail with the same error.
// The seeds are the repository's .bitc files with small edits.
func FuzzLoadMemo(f *testing.F) {
	for _, root := range []string{"../../examples", "testdata", "../../benchmark/testdata"} {
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() || !strings.HasSuffix(path, ".bitc") {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			n := uint16(len(b) / 2)
			f.Add(string(b), n, uint8(0), " ")
			f.Add(string(b), n, uint8(3), "(+ 1 2)")
			f.Add(string(b), uint16(0), uint8(0), "; bitc:ignore BITC-DEAD001\n")
			return nil
		})
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, base string, at uint16, del uint8, ins string) {
		core.ResetMemo()
		a := min(int(at), len(base))
		b := min(a+int(del), len(base))
		edited := base[:a] + ins + base[b:]
		core.LoadAnalysis("fuzz.bitc", base)
		got, want := memoRender("fuzz.bitc", edited), coldRender("fuzz.bitc", edited)
		if got != want {
			t.Fatalf("memoised load differs from cold:\n%s", firstDiff(got, want))
		}
	})
}
