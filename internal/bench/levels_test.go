package bench

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bitc/internal/core"
	"bitc/internal/ir"
	"bitc/internal/opt"
)

// TestO2IsO1PlusUnboxing pins what the optimisation levels mean: O2 runs
// the O1 passes and then only annotates NoBox, so a module loaded at O2
// with every NoBox cleared is exactly the module O1 gives. It covers every
// .bitc file in the repository plus the E1 kernels and the E8 bank
// programs.
func TestO2IsO1PlusUnboxing(t *testing.T) {
	srcs := map[string]string{}
	for _, root := range []string{"../../examples", "../core/testdata", "../../benchmark/testdata"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || filepath.Ext(path) != ".bitc" {
				return err
			}
			b, err := os.ReadFile(path)
			srcs[path] = string(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(srcs) < 29 {
		t.Fatalf("found only %d .bitc files", len(srcs))
	}
	for _, w := range workloads() {
		srcs["E1 "+w.name] = w.src
	}
	for _, sync := range []string{"none", "coarse", "stm"} {
		srcs["E8 bank-"+sync] = bankSrc(sync, 10)
	}
	for name, src := range srcs {
		o1, err := core.Load(name, src, core.Config{Optimize: opt.O1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		o2, err := core.Load(name, src, core.Config{Optimize: opt.O2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range o2.Module.Funcs {
			for _, blk := range f.Blocks {
				for i := range blk.Instrs {
					blk.Instrs[i].NoBox = false
				}
			}
		}
		if a, b := irDump(o1.Module), irDump(o2.Module); a != b {
			t.Errorf("%s: O2 minus NoBox differs from O1\nO1:\n%s\nO2:\n%s", name, a, b)
		}
	}
}

// irDump renders every field of every instruction, which ir.Module.String
// does not (widths, signedness, source positions).
func irDump(m *ir.Module) string {
	var b strings.Builder
	for _, f := range m.Funcs {
		fmt.Fprintf(&b, "func %s params=%d regs=%d captures=%v\n", f.Name, f.NumParams, f.NumRegs, f.CaptureRegs)
		for _, blk := range f.Blocks {
			fmt.Fprintf(&b, "b%d %+v\n", blk.ID, blk.Term)
			for _, in := range blk.Instrs {
				ty := in.Type
				in.Type = nil
				fmt.Fprintf(&b, "  %+v %v\n", in, ty)
			}
		}
	}
	return b.String()
}
