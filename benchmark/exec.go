package main

import (
	"embed"
	"fmt"
	"strings"
	"time"

	"bitc/internal/core"
	"bitc/internal/vm"
)

// kernel is one E1 kernel: its source in testdata and its entry argument at
// full and at test size.
type kernel struct {
	name     string
	n, short int64
}

// kernels are sized so that one run takes 20-60 ms on a 2-vCPU VM, which
// gives a 15-second run of the benchmark about a hundred samples of each.
var kernels = []kernel{
	{"fib", 24, 18},
	{"vector-sum", 125000, 5000},
	{"struct-walk", 50000, 2000},
	{"insertion-sort", 750, 150},
}

//go:embed testdata/*.bitc
var testdata embed.FS

// lcgInit is the insertion-sort kernel's initial LCG state as written in
// testdata; kernelSource replaces it with lcgState(seed).
const lcgInit = "(mutable seed 12345)"

func lcgState(seed uint64) int64 { return int64((12345 + seed) % (1 << 31)) }

// kernelSource returns a kernel's source with its inputs drawn from seed.
func kernelSource(name string, seed uint64) (string, error) {
	b, err := testdata.ReadFile("testdata/" + name + ".bitc")
	if err != nil {
		return "", err
	}
	src := string(b)
	if name == "insertion-sort" {
		if strings.Count(src, lcgInit) != 1 {
			return "", fmt.Errorf("%s: want exactly one %q", name, lcgInit)
		}
		src = strings.Replace(src, lcgInit, fmt.Sprintf("(mutable seed %d)", lcgState(seed)), 1)
	}
	return src, nil
}

// kernelWant computes entry(n) in Go, without the VM.
func kernelWant(name string, n int64, seed uint64) int64 {
	switch name {
	case "fib":
		a, b := int64(0), int64(1)
		for i := int64(0); i < n; i++ {
			a, b = b, a+b
		}
		return a
	case "insertion-sort": // the sorted vector's last element: the stream's maximum
		s, hi := lcgState(seed), int64(0)
		for i := int64(0); i < n; i++ {
			s = (s*1103515245 + 12345) % 2147483648
			hi = max(hi, s)
		}
		return hi
	}
	return 3 * n * (n - 1) / 2 // vector-sum and struct-walk: the sum of 3i for i < n
}

// execSetups is how many times the exec workloads load their kernels before
// the window opens. A load of all four takes about a millisecond, short
// enough for one moment of a noisy host to move a run's median; so every
// round of the window loads them once more, untimed as an operation.
const execSetups = 20

// execKernels returns the function that runs exec-unboxed or exec-boxed:
// the four kernels, loaded once, then run round-robin, each run on a fresh
// VM. The operation is core.(*Program).RunFunc; the front end runs only in
// set-up.
func execKernels(boxed bool) func(*run) error {
	return func(r *run) error {
		cfg := loadCfg
		if boxed {
			cfg.Mode = vm.Boxed
		}
		srcs := make([]string, len(kernels))
		args := make([]int64, len(kernels))
		for i, k := range kernels {
			src, err := kernelSource(k.name, r.cfg.seed)
			if err != nil {
				return err
			}
			srcs[i], args[i] = src, k.n
			if r.cfg.short {
				args[i] = k.short
			}
		}
		setup := func() ([]*core.Program, error) {
			progs := make([]*core.Program, len(kernels))
			start := time.Now()
			for i, k := range kernels {
				p, err := core.Load(k.name, srcs[i], cfg)
				if err != nil {
					return nil, fmt.Errorf("load %s: %w", k.name, err)
				}
				progs[i] = p
			}
			r.setups = append(r.setups, time.Since(start))
			return progs, nil
		}
		var progs []*core.Program
		for rep := 0; rep < execSetups; rep++ {
			var err error
			if progs, err = setup(); err != nil {
				return err
			}
		}
		if r.tr != nil {
			if err := r.execProgramCounts(srcs, cfg); err != nil {
				return err
			}
		}
		for i := range kernels {
			if _, _, err := progs[i].RunFunc("entry", vm.IntValue(args[i])); err != nil {
				return fmt.Errorf("warm-up %s: %w", kernels[i].name, err)
			}
		}

		var stats vm.Stats
		var allocBytes, runs float64
		check := func(i int, got vm.Value, m *vm.VM) error {
			k := kernels[i]
			if want := kernelWant(k.name, args[i], r.cfg.seed); got.I != want {
				return fmt.Errorf("entry(%d) = %d, want %d", args[i], got.I, want)
			}
			r.layer["vm.instrs."+k.name] = float64(m.Stats.Instrs)
			stats.Instrs += m.Stats.Instrs
			stats.ICHits += m.Stats.ICHits
			stats.ICMisses += m.Stats.ICMisses
			stats.BoxAllocs += m.Stats.BoxAllocs
			return nil
		}
		runNS := map[string][]float64{}
		r.openWindow()
		r.loop(func() {
			for i, k := range kernels {
				arg := vm.IntValue(args[i])
				var got vm.Value
				var m *vm.VM
				a0 := totalAlloc()
				d, err := timed(func() (err error) {
					got, m, err = progs[i].RunFunc("entry", arg)
					return err
				})
				allocBytes += float64(totalAlloc() - a0)
				runs++
				if err == nil {
					err = check(i, got, m)
				}
				r.record(k.name, false, d, err)
				if r.tr == nil {
					continue
				}
				opts := vm.Options{Mode: cfg.Mode, BoundsElide: progs[i].Proofs.Elidable()}
				_, d, err = r.tr.root(k.name, "run", func(id int) (err error) {
					r.tr.child(id, "vm.new", func() { m = vm.New(progs[i].Module, opts) })
					d := r.tr.child(id, "vm.run", func() { got, err = m.RunFunc("entry", arg) })
					runNS[k.name] = append(runNS[k.name], float64(d.Nanoseconds()))
					return err
				})
				if err == nil {
					err = check(i, got, m)
				}
				r.record(k.name, true, d, err)
			}
			if _, err := setup(); err != nil {
				r.verify("set-up", err)
			}
		})
		for i, k := range kernels {
			if err := r.measureRSS(k.name, func() error {
				_, _, err := progs[i].RunFunc("entry", vm.IntValue(args[i]))
				return err
			}); err != nil {
				return err
			}
		}

		for _, k := range kernels {
			r.layer["vm.ns_per_instr."+k.name] = ratio(p10(runNS[k.name]), r.layer["vm.instrs."+k.name])
		}
		r.layer["vm.ic_hit_ratio"] = ratio(float64(stats.ICHits), float64(stats.ICHits+stats.ICMisses))
		r.layer["vm.box_allocs_per_kinstr"] = ratio(float64(stats.BoxAllocs), float64(stats.Instrs)/1000)
		r.layer["vm.go_alloc_mb_per_op"] = ratio(allocBytes, runs) / (1 << 20)
		return nil
	}
}

// execProgramCounts loads each kernel stage by stage, outside the measured
// operations, for the compiler, optimiser and prover counts of the programs
// the exec workloads run, and times the VM's decode of each: the first call
// on a fresh VM, entry(1), which decodes the whole module.
func (r *run) execProgramCounts(srcs []string, cfg core.Config) error {
	var decodeNS float64
	for i, k := range kernels {
		var s *staged
		_, _, err := r.tr.root("setup", "load", func(id int) (err error) {
			s, err = loadStaged(r.tr, id, k.name, srcs[i], cfg)
			return err
		})
		if err != nil {
			return fmt.Errorf("load %s: %w", k.name, err)
		}
		r.addProgramCounts(s)
		m := vm.New(s.mod, vm.Options{Mode: cfg.Mode, BoundsElide: s.proofs.Elidable()})
		_, d, err := r.tr.root("setup", "vm.decode", func(int) error {
			_, err := m.RunFunc("entry", vm.IntValue(1))
			return err
		})
		if err != nil {
			return fmt.Errorf("decode %s: %w", k.name, err)
		}
		decodeNS += float64(d.Nanoseconds())
	}
	r.layer["vm.decode_ns_per_instr"] = decodeNS / r.layer["opt.ir_instrs"]
	return nil
}
