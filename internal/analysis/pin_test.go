package analysis_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"bitc/internal/analysis"
	"bitc/internal/ast"
	"bitc/internal/bench"
	"bitc/internal/cfg"
	"bitc/internal/corpus"
	"bitc/internal/parser"
	"bitc/internal/pointsto"
	"bitc/internal/types"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/analysis-pin.txt")

const pinFile = "testdata/analysis-pin.txt"

// pinInput is one named source text the analysis pin covers.
type pinInput struct{ name, text string }

// pinInputs lists every input the analysis pin covers, in a fixed order:
// the .bitc files under examples/, internal/core/testdata/ and
// benchmark/testdata/ (every tracked .bitc file), the E1 kernels, three widths of the
// 1000-function corpus and small instances of the scaling shapes.
func pinInputs(t *testing.T) []pinInput {
	t.Helper()
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
	var ins []pinInput
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
		pinInput{"shape/mov-chain-50", corpus.MovChainShape(50)},
	)
	return ins
}

// analysisDigest hashes what the analyses report on one text: the -strict
// JSON report of every analyzer, the bounds proof set, the points-to
// objects with what each expression, function result and global may point
// to, the region-lifetime escapes and uses, and the interprocedural
// summaries. A text that does not check hashes its diagnostics alone.
func analysisDigest(t *testing.T, name, text string) string {
	h := sha256.New()
	prog, pdiags := parser.Parse(name, text)
	if pdiags.HasErrors() {
		fmt.Fprintf(h, "parse %s\n", pdiags.Error())
		return hex.EncodeToString(h.Sum(nil))
	}
	info, diags := types.Check(prog)
	if diags.HasErrors() {
		fmt.Fprintf(h, "check %s\n", diags.Error())
		return hex.EncodeToString(h.Sum(nil))
	}

	rep, err := analysis.Run(prog, info, analysis.Options{Strict: true, Parallelism: 1})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fmt.Fprintf(h, "report %s\n", js.Bytes())

	ps := analysis.BoundsProofs(prog, info)
	pos := make([]int, 0, len(ps.Elidable()))
	for p := range ps.Elidable() {
		pos = append(pos, p)
	}
	sort.Ints(pos)
	fmt.Fprintf(h, "bounds %d/%d %v\n", ps.Proved, ps.Sites, pos)

	cfgs := map[*ast.DefineFunc]*cfg.Graph{}
	for _, d := range prog.Defs {
		if fn, ok := d.(*ast.DefineFunc); ok {
			cfgs[fn] = cfg.Build(fn, info)
		}
	}
	pts := pointsto.Analyze(prog, info, cfgs)
	digestPointsTo(h, prog, info, pts)
	lt := pointsto.CheckLifetimes(prog, info, pts)
	for _, e := range lt.Escapes {
		fmt.Fprintf(h, "escape %v %s region=%s alloc=%d\n", e.Span, e, e.Region, e.Alloc.ID)
	}
	for _, u := range lt.Uses {
		fmt.Fprintf(h, "use-after-exit %v %s region=%s alloc=%d\n", u.Span, u.Fn, u.Region, u.Alloc.ID)
	}
	digestSummaries(h, analysis.ComputeSummaries(prog, info, pts))
	return hex.EncodeToString(h.Sum(nil))
}

func objIDs(objs []*pointsto.Object) []int {
	ids := make([]int, len(objs))
	for i, o := range objs {
		ids[i] = o.ID
	}
	return ids
}

func digestPointsTo(h io.Writer, prog *ast.Program, info *types.Info, pts *pointsto.Result) {
	for _, o := range pts.Objects() {
		fmt.Fprintf(h, "obj %d %s %s %v fn=%s region=%s leaked=%t global=%t in=%v\n",
			o.ID, o.Kind, o.TypeName, o.Span, o.Fn, o.RegionSrc,
			pts.Leaked(o), pts.GlobalReachable(o), pts.GlobalsOf(o))
	}
	for _, d := range prog.Defs {
		switch d := d.(type) {
		case *ast.DefineFunc:
			fmt.Fprintf(h, "ret %s %v\n", d.Name, objIDs(pts.RetObjects(d.Name)))
		case *ast.DefineVar:
			fmt.Fprintf(h, "global %s %v\n", d.Name, objIDs(pts.GlobalObjects(d.Name)))
		}
		ast.WalkDef(d, func(e ast.Expr) bool {
			if objs := pts.ExprObjects(e); len(objs) > 0 {
				fmt.Fprintf(h, "expr %T %v %v\n", e, e.Span(), objIDs(objs))
			}
			return true
		})
	}
}

func digestSummaries(h io.Writer, s *analysis.Summaries) {
	for _, r := range s.Races {
		fmt.Fprintf(h, "race %v\n", r)
	}
	fmt.Fprintf(h, "lock-edges %v\nlock-self %v\n", s.LockEdges, s.LockSelf)
	for _, a := range s.SharedAccesses {
		fmt.Fprintf(h, "access %v\n", a)
	}
	fmt.Fprintf(h, "nested %v\neffects %v\nretries %v\n", s.NestedAtomics, s.AtomicEffects, s.RetryLoops)
}

// TestAnalysisPin checks the analyses against pinned digests, so any change
// to a finding, a proved bounds site, a points-to set, a lifetime report or
// a summary shows. Regenerate deliberately with -update and review which
// inputs moved.
func TestAnalysisPin(t *testing.T) {
	ins := pinInputs(t)
	if *updatePin {
		var b strings.Builder
		for _, in := range ins {
			fmt.Fprintf(&b, "%s %s\n", in.name, analysisDigest(t, in.name, in.text))
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
		if got := analysisDigest(t, in.name, in.text); got != want[in.name] {
			t.Errorf("%s: analysis digest %s, pinned %q", in.name, got, want[in.name])
		}
	}
}
