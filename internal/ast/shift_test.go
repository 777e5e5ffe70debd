package ast_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bitc/internal/ast"
	"bitc/internal/parser"
)

// TestShiftDefMatchesParse holds ShiftDef to the parser: every definition
// of every .bitc file under examples/ and internal/core/testdata/, shifted
// by delta, must equal the same definition parsed from the text with delta
// bytes of blank lines in front, node for node, IDs included.
func TestShiftDefMatchesParse(t *testing.T) {
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
	if len(files) == 0 {
		t.Fatal("no .bitc files found")
	}
	const delta = 7
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, diags := parser.Parse(f, string(b))
		if diags.HasErrors() {
			t.Fatalf("%s: %v", f, diags)
		}
		moved, _ := parser.Parse(f, strings.Repeat("\n", delta)+string(b))
		for i, d := range prog.Defs {
			if got := ast.ShiftDef(d, delta); !reflect.DeepEqual(got, moved.Defs[i]) {
				t.Errorf("%s: %s shifted by %d differs from its parse %d bytes later", f, d.DefName(), delta, delta)
			}
			if back := ast.ShiftDef(moved.Defs[i], -delta); !reflect.DeepEqual(back, d) {
				t.Errorf("%s: %s shifted by %d does not return to its parse", f, d.DefName(), -delta)
			}
		}
	}
}

func TestSameHeader(t *testing.T) {
	parse := func(src string) *ast.DefineFunc {
		prog, diags := parser.Parse("h.bitc", src)
		if diags.HasErrors() {
			t.Fatalf("%s: %v", src, diags)
		}
		return prog.Defs[0].(*ast.DefineFunc)
	}
	base := parse("(define (f (x int64) (v (vector 'a))) int64 x)")
	for src, same := range map[string]bool{
		"  (define (f (x int64) (v (vector 'a))) int64 (+ x 1))": true,
		"(define (f (x int64) (v (vector 'b))) int64 x)":         false,
		"(define (f (x int32) (v (vector 'a))) int64 x)":         false,
		"(define (f (y int64) (v (vector 'a))) int64 y)":         false,
		"(define (f (x int64) (v (vector 'a))) x)":               false,
		"(define (f (x int64) (v (vector 'a))) int64 :pure x)":   false,
		"(define (g (x int64) (v (vector 'a))) int64 x)":         false,
		"(define (f (x int64)) int64 x)":                         false,
	} {
		if got := ast.SameHeader(base, parse(src)); got != same {
			t.Errorf("SameHeader(%q) = %v, want %v", src, got, same)
		}
	}
}
