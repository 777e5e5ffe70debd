package compiler_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"bitc/internal/bench"
	"bitc/internal/compiler"
	"bitc/internal/corpus"
	"bitc/internal/ir"
	"bitc/internal/opt"
	"bitc/internal/parser"
	"bitc/internal/serve"
	"bitc/internal/types"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/ir-pin.txt")

const pinFile = "testdata/ir-pin.txt"

// pinInput is one named source text the IR pin covers.
type pinInput struct{ name, text string }

// pinInputs lists every input the IR pin covers, in a fixed order: the
// .bitc files under examples/, internal/core/testdata/ and
// benchmark/testdata/, the E1 kernels, three widths of the 1000-function
// corpus, small instances of the scaling shapes and the service's two
// generated programs as `bitc serve -emit-program` prints them.
func pinInputs(t testing.TB) []pinInput {
	t.Helper()
	var ins []pinInput
	var files []string
	for _, root := range []string{"../../examples", "../../internal/core/testdata", "../../benchmark/testdata"} {
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
	for k := 24; k <= 26; k++ {
		ins = append(ins, pinInput{fmt.Sprintf("corpus/1000x%d", k), corpus.Text(1000, k)})
	}
	ins = append(ins,
		pinInput{"shape/set-body-200", corpus.SetBodyShape(200)},
		pinInput{"shape/nest-300", corpus.NestShape(300)},
		pinInput{"shape/let-100", corpus.LetShape(100)},
		pinInput{"shape/if-100", corpus.IfShape(100)},
	)
	for _, kind := range []string{"shard", "twopc"} {
		src, err := serve.EmitProgram(kind, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, pinInput{"serve/" + kind, src})
	}
	return ins
}

// pinConfig is one compiler and optimiser setting the pin digests.
type pinConfig struct {
	level     opt.Level
	contracts bool
}

func (c pinConfig) String() string {
	s := fmt.Sprintf("O%d", c.level)
	if c.contracts {
		s += "+contracts"
	}
	return s
}

var pinConfigs = []pinConfig{
	{opt.O0, false}, {opt.O1, false}, {opt.O2, false},
	{opt.O0, true}, {opt.O1, true}, {opt.O2, true},
}

// irDigest hashes what Compile and Optimize hand back under one setting:
// the whole module as renderModule writes it, the compiler's diagnostics
// and every field of the optimiser's Result.
func irDigest(name, text string, cfg pinConfig) string {
	h := sha256.New()
	prog, diags := parser.Parse(name, text)
	if diags.HasErrors() {
		fmt.Fprintf(h, "parse error %v\n", diags)
		return hex.EncodeToString(h.Sum(nil))
	}
	info, cdiags := types.Check(prog)
	if cdiags.HasErrors() {
		fmt.Fprintf(h, "check error %v\n", cdiags)
		return hex.EncodeToString(h.Sum(nil))
	}
	mod, mdiags := compiler.Compile(prog, info, compiler.Options{EmitContracts: cfg.contracts})
	for _, dg := range mdiags.List {
		fmt.Fprintf(h, "diag %v %s %s\n", dg.Span, dg.Severity, dg.Message)
	}
	res := opt.Optimize(mod, cfg.level)
	renderModule(h, mod)
	fmt.Fprintf(h, "result %+v\n", *res)
	return hex.EncodeToString(h.Sum(nil))
}

// renderModule writes every field of a module: unlike ir.Module.String,
// which prints what a reader of dump-ir needs, it leaves out nothing the
// VM, the bounds prover or the unboxing statistics could read.
func renderModule(w io.Writer, mod *ir.Module) {
	fmt.Fprintf(w, "entry %d\n", mod.Entry)
	names := make([]string, 0, len(mod.FuncIdx))
	for n := range mod.FuncIdx {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "funcidx %s %d\n", n, mod.FuncIdx[n])
	}
	for _, set := range [][]string{mapKeys(mod.Structs), mapKeys(mod.Unions)} {
		fmt.Fprintf(w, "types %v\n", set)
	}
	for i, g := range mod.Globals {
		fmt.Fprintf(w, "global %d %s init=%d type=%s\n", i, g.Name, g.Init, typeStr(g.Type))
	}
	for i, x := range mod.Externs {
		fmt.Fprintf(w, "extern %d %s %s params=%s result=%s\n", i, x.Name, x.CSymbol, typesStr(x.Params), typeStr(x.Result))
	}
	for i, f := range mod.Funcs {
		fmt.Fprintf(w, "func %d %s params=%d regs=%d types=%s result=%s captures=%v\n",
			i, f.Name, f.NumParams, f.NumRegs, typesStr(f.Params), typeStr(f.Result), f.CaptureRegs)
		for bi, blk := range f.Blocks {
			fmt.Fprintf(w, "b%d id=%d\n", bi, blk.ID)
			for _, in := range blk.Instrs {
				fmt.Fprintf(w, "  %s dst=%d a=%d b=%d args=%v imm=%d fimm=%x str=%q ckind=%d bits=%d signed=%t float=%t type=%s nobox=%t region=%d pos=%d\n",
					in.Op, in.Dst, in.A, in.B, in.Args, in.Imm, math.Float64bits(in.FImm), in.Str, in.CKind,
					in.NumBits, in.Signed, in.Float, typeStr(in.Type), in.NoBox, in.Region, in.Pos)
			}
			tm := blk.Term
			fmt.Fprintf(w, "  term kind=%d cond=%d to=%d else=%d val=%d\n", tm.Kind, tm.Cond, tm.To, tm.Else, tm.Val)
		}
	}
}

func mapKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func typeStr(t *types.Type) string {
	if t == nil {
		return "-"
	}
	return t.String()
}

func typesStr(ts []*types.Type) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = typeStr(t)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// TestIRPin checks Compile and Optimize against pinned digests at O0, O1
// and O2, with and without contracts, so any change to an instruction
// field, a block, a function's header, the module tables, a compile
// diagnostic or an optimiser count shows. Regenerate deliberately with
// -update and review which inputs moved.
func TestIRPin(t *testing.T) {
	ins := pinInputs(t)
	if *updatePin {
		var b strings.Builder
		for _, in := range ins {
			for _, cfg := range pinConfigs {
				fmt.Fprintf(&b, "%s@%s %s\n", in.name, cfg, irDigest(in.name, in.text, cfg))
			}
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
		key, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed pin line %q", sc.Text())
		}
		want[key] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(ins)*len(pinConfigs) {
		t.Errorf("%s pins %d digests, the test has %d", pinFile, len(want), len(ins)*len(pinConfigs))
	}
	for _, in := range ins {
		for _, cfg := range pinConfigs {
			key := in.name + "@" + cfg.String()
			if got := irDigest(in.name, in.text, cfg); got != want[key] {
				t.Errorf("%s: IR digest %s, pinned %q", key, got, want[key])
			}
		}
	}
}

// TestCompileConcurrently compiles and optimises one checked program from
// several goroutines at once, as serve's shards and the memo tests load
// programs side by side: no scratch state may be shared between calls, so
// every module must render as a lone call's does, and `go test -race`
// must stay quiet.
func TestCompileConcurrently(t *testing.T) {
	src := corpus.Text(200, 25) + corpus.LetShape(50)
	prog, diags := parser.Parse("c.bitc", src)
	if diags.HasErrors() {
		t.Fatal(diags)
	}
	info, cdiags := types.Check(prog)
	if cdiags.HasErrors() {
		t.Fatal(cdiags)
	}
	render := func() string {
		mod, _ := compiler.Compile(prog, info, compiler.Options{})
		opt.Optimize(mod, opt.O2)
		h := sha256.New()
		renderModule(h, mod)
		return hex.EncodeToString(h.Sum(nil))
	}
	want := render()
	got := make([]string, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = render()
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("goroutine %d: module digest %s, a lone call gives %s", i, g, want)
		}
	}
}
