package types_test

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
	"bitc/internal/types"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/info-pin.txt")

const pinFile = "testdata/info-pin.txt"

// pinInput is one named source text the Info pin covers.
type pinInput struct{ name, text string }

// pinInputs lists every input the Info pin covers, in a fixed order: the
// .bitc files under examples/ and internal/core/testdata/, the E1 kernels,
// the 1000-function corpus and small instances of the scaling shapes.
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
	ins = append(ins,
		pinInput{"corpus/1000x25", corpus.Text(1000, 25)},
		pinInput{"shape/set-body-200", corpus.SetBodyShape(200)},
		pinInput{"shape/nest-300", corpus.NestShape(300)},
		pinInput{"shape/let-100", corpus.LetShape(100)},
	)
	return ins
}

// infoDigest hashes what Check hands back: for every expression ast.WalkDef
// reaches, its kind, span and settled type; for every variable reference,
// the kind and name of the symbol it resolves to; every function scheme and
// global type; and the diagnostics in the order they were reported.
func infoDigest(name, text string) string {
	prog, _ := parser.Parse(name, text)
	info, diags := types.Check(prog)
	h := sha256.New()
	for _, d := range prog.Defs {
		fmt.Fprintf(h, "def %s\n", d.DefName())
		ast.WalkDef(d, func(e ast.Expr) bool {
			fmt.Fprintf(h, "%T %v %s\n", e, e.Span(), info.TypeOf(e))
			if v, ok := e.(*ast.VarRef); ok {
				if sym := info.Use(v); sym != nil {
					fmt.Fprintf(h, "use %s %s\n", sym.Kind, sym.Name)
				} else {
					fmt.Fprintf(h, "use none\n")
				}
			}
			return true
		})
	}
	names := make([]string, 0, len(info.Funcs))
	for n := range info.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := info.Funcs[n]
		fmt.Fprintf(h, "func %s %s %d\n", n, s.Type, len(s.Vars))
	}
	names = names[:0]
	for n := range info.Globals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "global %s %s\n", n, info.Globals[n])
	}
	for _, dg := range diags.List {
		fmt.Fprintf(h, "diag %v %s %s\n", dg.Span, dg.Severity, dg.Message)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestInfoPin checks Check against pinned digests, so any change to a
// recorded type, a resolved use, a scheme or a diagnostic (including the
// order diagnostics are reported in) shows. Regenerate deliberately with
// -update and review which inputs moved.
func TestInfoPin(t *testing.T) {
	ins := pinInputs(t)
	if *updatePin {
		var b strings.Builder
		for _, in := range ins {
			fmt.Fprintf(&b, "%s %s\n", in.name, infoDigest(in.name, in.text))
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
		if got := infoDigest(in.name, in.text); got != want[in.name] {
			t.Errorf("%s: info digest %s, pinned %q", in.name, got, want[in.name])
		}
	}
}
