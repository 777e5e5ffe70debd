package vm_test

// dispatch_test.go holds the fidelity suite for the fused interpreter: it
// must match the switch interpreter, its oracle, on value, traps, core
// counters, and observable event stream. It also pins the decoded listings
// of two E1 kernels as golden files, so fusion changes are reviewed as diffs.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bitc/internal/bench"
	"bitc/internal/core"
	"bitc/internal/ir"
	"bitc/internal/obs"
	"bitc/internal/opt"
	"bitc/internal/vm"
)

var updateGolden = flag.Bool("update", false, "rewrite disasm golden files")

// dispatchModes are the strategies the differential tests sweep.
var dispatchModes = []vm.DispatchMode{vm.DispatchFused, vm.DispatchSwitch}

// coreCounters extracts the dispatch-independent subset of vm.Stats.
// Switches can legitimately differ (a fused slot may overshoot the quantum
// by its width minus one, shifting preemption points), and ICHits/ICMisses
// only exist on decoded paths — everything else must match exactly.
func coreCounters(s vm.Stats) map[string]uint64 {
	return map[string]uint64{
		"instrs":       s.Instrs,
		"calls":        s.Calls,
		"allocs":       s.Allocs,
		"heapBytes":    s.HeapBytes,
		"boxAllocs":    s.BoxAllocs,
		"boxBytes":     s.BoxBytes,
		"boxReads":     s.BoxReads,
		"fieldReads":   s.FieldReads,
		"fieldWrites":  s.FieldWrites,
		"vecOps":       s.VecOps,
		"txCommits":    s.TxCommits,
		"txAborts":     s.TxAborts,
		"externCalls":  s.ExternCalls,
		"regionAllocs": s.RegionAllocs,
	}
}

// runDispatch loads src under the given mode/representation and runs entry.
func runDispatch(t *testing.T, src, entry string, d vm.DispatchMode, rep vm.RepMode, rec *obs.Recorder, args ...vm.Value) (vm.Value, *vm.VM, string, error) {
	t.Helper()
	var out bytes.Buffer
	prog, err := core.Load("t.bitc", src, core.Config{
		Optimize: opt.O2,
		Mode:     rep,
		Dispatch: d,
		Stdout:   &out,
		Observer: rec,
	})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	val, machine, rerr := prog.RunFunc(entry, args...)
	return val, machine, out.String(), rerr
}

// TestDispatchDifferentialKernels runs the four E1 kernels under both
// dispatch strategies in both representations and demands identical values,
// stdout, and core counters.
func TestDispatchDifferentialKernels(t *testing.T) {
	sizes := map[string]int64{"fib": 16, "vector-sum": 2000, "struct-walk": 800, "insertion-sort": 80}
	for _, name := range bench.KernelNames() {
		src, ok := bench.KernelSource(name)
		if !ok {
			t.Fatalf("no kernel %q", name)
		}
		for _, rep := range []vm.RepMode{vm.Unboxed, vm.Boxed} {
			t.Run(fmt.Sprintf("%s/%v", name, rep), func(t *testing.T) {
				type result struct {
					val  string
					out  string
					cnt  map[string]uint64
					err  error
					mode vm.DispatchMode
				}
				var base *result
				for _, d := range dispatchModes {
					val, machine, out, err := runDispatch(t, src, "entry", d, rep, nil, vm.IntValue(sizes[name]))
					// Compare rendered values: boxed results are fresh heap
					// boxes, so struct equality would compare pointers.
					r := &result{val: val.String(), out: out, cnt: coreCounters(machine.Stats), err: err, mode: d}
					if base == nil {
						base = r
						continue
					}
					if (r.err == nil) != (base.err == nil) || (r.err != nil && r.err.Error() != base.err.Error()) {
						t.Fatalf("%v err = %v, %v err = %v", base.mode, base.err, r.mode, r.err)
					}
					if r.val != base.val {
						t.Errorf("%v value = %v, %v value = %v", base.mode, base.val, r.mode, r.val)
					}
					if r.out != base.out {
						t.Errorf("stdout differs between %v and %v", base.mode, r.mode)
					}
					for k, v := range base.cnt {
						if r.cnt[k] != v {
							t.Errorf("counter %s: %v=%d %v=%d", k, base.mode, v, r.mode, r.cnt[k])
						}
					}
				}
			})
		}
	}
}

// reprSrc carries strings and the IEEE-754 edge values through every place
// a Value lives: registers, a vector, a struct field, a box (under Boxed),
// and an atomic block's buffered writes. Floats travel as bits and strings
// as OString objects, so each rendering below pins the representation.
const reprSrc = `
(defstruct cell (x float64) (tag string))
(define (strs (n int64)) string
  (let ((s (string-append "ab" "cd")) (u (substring "hello world" 6 11)))
    (println s) (println u)
    (println (string-ref s (+ n 2)))
    (println (< s u)) (println (= s "abcd")) (println (= s u))
    (println (min s u)) (println (max s u))
    (println (string-length (string-append s u)))
    (string-append (min s u) (max "zz" u))))
(define (floats (n int64)) float64
  (let ((zero (cast float64 (- n n))) (one (cast float64 (+ n 1))))
    (let ((nan (/ zero zero)) (pinf (/ one zero))
          (ninf (/ (- zero one) zero)) (nzero (neg zero)))
      (let ((v (vector nan pinf ninf nzero)) (c (make cell :x nzero :tag "t")))
        (println nan) (println pinf) (println ninf) (println nzero)
        (println (vector-ref v 0)) (println (vector-ref v 3)) (println (field c x))
        (atomic
          (set-field! c x (vector-ref v 2))
          (vector-set! v 0 (field c x)))
        (println (field c x)) (println (vector-ref v 0))
        (println (= nan nan)) (println (< ninf pinf)) (println (= nzero zero))
        (println (field c tag))
        (+ (vector-ref v 3) nzero)))))
(define (main) float64
  (println (strs 0))
  (floats 0))
(define (bad (n int64)) char
  (string-ref (substring "abc" n 3) 5))
`

const reprOut = `abcd
world
#\c
#t
#t
#f
abcd
world
9
abcdzz
NaN
+Inf
-Inf
-0
NaN
-0
-0
-Inf
-Inf
#f
#t
#t
t
`

// TestDispatchDifferentialRepresentation runs reprSrc under both dispatch
// strategies in both representations. Values, stdout, traps and core
// counters must agree, and the output must match the pinned rendering.
func TestDispatchDifferentialRepresentation(t *testing.T) {
	for _, rep := range []vm.RepMode{vm.Unboxed, vm.Boxed} {
		for _, c := range []struct{ entry, val, trap string }{
			{"main", "-0", ""},
			{"bad", "", "trap: string index 5 out of range 0..1"},
		} {
			t.Run(fmt.Sprintf("%s/%v", c.entry, rep), func(t *testing.T) {
				var baseCnt map[string]uint64
				for _, d := range dispatchModes {
					var args []vm.Value
					if c.entry == "bad" {
						args = []vm.Value{vm.IntValue(1)}
					}
					val, machine, out, err := runDispatch(t, reprSrc, c.entry, d, rep, nil, args...)
					if c.trap != "" {
						if err == nil || err.Error() != c.trap {
							t.Fatalf("%v: err = %v, want %q", d, err, c.trap)
						}
					} else if err != nil {
						t.Fatalf("%v: %v", d, err)
					} else if val.String() != c.val || out != reprOut {
						t.Errorf("%v: value %s, stdout:\n%s\nwant value %s, stdout:\n%s", d, val.String(), out, c.val, reprOut)
					}
					cnt := coreCounters(machine.Stats)
					if baseCnt == nil {
						baseCnt = cnt
						continue
					}
					for k, v := range baseCnt {
						if cnt[k] != v {
							t.Errorf("counter %s: %v=%d %v=%d", k, dispatchModes[0], v, d, cnt[k])
						}
					}
				}
			})
		}
	}
}

// TestDispatchDifferentialExamples sweeps the checked-in example programs
// (main entry, printed output included) across dispatch strategies.
func TestDispatchDifferentialExamples(t *testing.T) {
	files, err := filepath.Glob("../../examples/progs/*.bitc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, file := range files {
		src, rerr := os.ReadFile(file)
		if rerr != nil {
			t.Fatal(rerr)
		}
		t.Run(filepath.Base(file), func(t *testing.T) {
			var baseVal, baseOut string
			var baseCnt map[string]uint64
			for i, d := range dispatchModes {
				val, machine, out, rerr := runDispatch(t, string(src), "main", d, vm.Unboxed, nil)
				if rerr != nil {
					t.Fatalf("%v: %v", d, rerr)
				}
				if i == 0 {
					baseVal, baseOut, baseCnt = val.String(), out, coreCounters(machine.Stats)
					continue
				}
				if val.String() != baseVal || out != baseOut {
					t.Errorf("%v diverges: value %v vs %v", d, val.String(), baseVal)
				}
				for k, v := range baseCnt {
					if got := coreCounters(machine.Stats)[k]; got != v {
						t.Errorf("%v counter %s = %d, want %d", d, k, got, v)
					}
				}
			}
		})
	}
}

// obsSrc is a single-threaded program exercising calls, allocation, STM
// commits, regions, and field/vector inline caches — a dense event stream
// whose logical-clock timestamps must come out identical whatever the
// dispatch strategy.
const obsSrc = `
(defstruct acct (bal int64))
(define (bump (a acct)) unit
  (atomic (set-field! a bal (+ (field a bal) 1))))
(define (entry (n int64)) int64
  (let ((a (make acct :bal 0)) (v (make-vector n 2)))
    (dotimes (i n)
      (bump a)
      (vector-set! v i (+ (vector-ref v i) i)))
    (with-region r
      (let ((tmp (alloc-in r (make acct :bal 7))))
        (set-field! a bal (+ (field a bal) (field tmp bal)))))
    (field a bal)))
`

// TestDispatchDifferentialObserver compares full observer event streams
// across dispatch strategies. Scheduler-granularity events (run, switch)
// are excluded: fused slots may overshoot a quantum by width-1, legally
// shifting quantum boundaries. Every other event — calls, allocs, tx
// commits, region enter/exit — must match in kind, thread, logical
// timestamp, name, and argument.
func TestDispatchDifferentialObserver(t *testing.T) {
	type flatEvent struct {
		Kind obs.EventKind
		Tid  int64
		Ts   uint64
		Dur  uint64
		Name string
		Arg  int64
	}
	collect := func(d vm.DispatchMode) []flatEvent {
		rec := vm.NewRecorder(obs.Options{Trace: true, Deterministic: true})
		val, _, _, err := runDispatch(t, obsSrc, "entry", d, vm.Unboxed, rec, vm.IntValue(50))
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if val.I != 57 {
			t.Fatalf("%v: value = %d, want 57", d, val.I)
		}
		rec.Finish()
		var evs []flatEvent
		for _, e := range rec.Events() {
			if e.Kind == obs.EvRun || e.Kind == obs.EvSwitch {
				continue
			}
			evs = append(evs, flatEvent{e.Kind, e.Tid, e.Ts, e.Dur, e.Name, e.Arg})
		}
		return evs
	}
	base := collect(vm.DispatchFused)
	if len(base) == 0 {
		t.Fatal("no events recorded")
	}
	for _, d := range dispatchModes[1:] {
		evs := collect(d)
		if len(evs) != len(base) {
			t.Fatalf("%v: %d events, fused has %d", d, len(evs), len(base))
		}
		for i := range evs {
			if evs[i] != base[i] {
				t.Errorf("%v event %d = %+v, fused has %+v", d, i, evs[i], base[i])
			}
		}
	}
}

// stmSpawnSrc transfers between two accounts from two threads; whatever the
// interleaving, atomicity conserves the total.
const stmSpawnSrc = `
(defstruct acct (bal int64))
(define a1 acct (make acct :bal 1000))
(define a2 acct (make acct :bal 0))
(define (transfer (n int64)) unit
  (dotimes (i n)
    (atomic
      (set-field! a1 bal (- (field a1 bal) 1))
      (set-field! a2 bal (+ (field a2 bal) 1)))))
(define (entry (n int64)) int64
  (let ((t1 (spawn (transfer n))) (t2 (spawn (transfer n))))
    (join t1) (join t2)
    (atomic (+ (field a1 bal) (field a2 bal)))))
`

// TestDispatchDifferentialSTMThreads checks the one place dispatch modes may
// legally diverge — preemption points — still preserves STM invariants: the
// interleaving can differ, the conserved total cannot.
func TestDispatchDifferentialSTMThreads(t *testing.T) {
	for _, d := range dispatchModes {
		val, machine, _, err := runDispatch(t, stmSpawnSrc, "entry", d, vm.Unboxed, nil, vm.IntValue(200))
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if val.I != 1000 {
			t.Errorf("%v: total = %d, want 1000 (STM invariant broken)", d, val.I)
		}
		if machine.Stats.TxCommits < 401 {
			t.Errorf("%v: txCommits = %d, want >= 401", d, machine.Stats.TxCommits)
		}
	}
}

// TestDispatchDifferentialTraps holds the fused loop's accounting exact
// where a slot ends early. Without an observer and with the budget out of
// reach, the loop charges a superinstruction's whole width up front, so a
// trap in a component before the last must refund the rest; a budget about
// to run out sends the quantum down the exact path, which charges per
// component and so must stop inside a slot exactly where the switch
// interpreter stops. Values, trap text and core counters must agree under
// both representations. The budget cases sweep MaxSteps, several quanta in,
// over more than a quantum plus the widest slot, so the budget runs out at
// every slot boundary of the loop (inside each pair, on each absorbed
// branch) and at every distance from a quantum's start, where the loop
// picks the fast or the exact path. Each case pins the fused slot it is
// about.
func TestDispatchDifferentialTraps(t *testing.T) {
	cases := []struct {
		name, src string
		arg       int64
		slot      string // a fused slot the program must contain
		steps     uint64 // first MaxSteps of the sweep; 0 = unlimited
		span      uint64 // number of MaxSteps values swept
		trap      string
	}{
		{"vecref-trap-in-component-1", `
(define (get (v (vector int64)) (i int64)) int64 (+ (vector-ref v i) i))
(define (entry (n int64)) int64
  (let ((v (make-vector 4 7)) (mutable acc 0))
    (dotimes (i 4) (set! acc (+ acc (get v i))))
    (+ acc (get v n))))`, 9, "fuse[vecref.ic+add.i]", 0, 1,
			"trap: vector index 9 out of range 0..3"},
		{"div-by-zero-in-component-2", `
(define (entry (n int64)) int64
  (let ((mutable acc 0))
    (dotimes (i 50) (set! acc (+ acc i)))
    (+ acc (/ n 0))))`, 7, "+div.i]", 0, 1,
			"trap: division by zero"},
		{"budget-inside-pair", `
(define (entry (n int64)) int64
  (let ((mutable acc 0))
    (dotimes (i n) (set! acc (+ (* acc 3) i)))
    acc))`, 1000, "+mul.i]", 300, 72,
			"trap: instruction budget exhausted"},
		{"budget-on-absorbed-branch", `
(defstruct c (x int64))
(define (entry (n int64)) int64
  (let ((o (make c :x 0)))
    (while (< (field o x) n) (set-field! o x (+ (field o x) 1)))
    (field o x)))`, 1000, "fuse[getfield.ic+lt.i+br]", 300, 72,
			"trap: instruction budget exhausted"},
	}
	for _, c := range cases {
		for _, rep := range []vm.RepMode{vm.Unboxed, vm.Boxed} {
			t.Run(fmt.Sprintf("%s/%v", c.name, rep), func(t *testing.T) {
				progs := map[vm.DispatchMode]*core.Program{}
				for _, d := range dispatchModes {
					prog, err := core.Load("t.bitc", c.src, core.Config{Optimize: opt.O2, Mode: rep, Dispatch: d})
					if err != nil {
						t.Fatalf("load: %v", err)
					}
					progs[d] = prog
				}
				var listing strings.Builder
				for _, fn := range progs[vm.DispatchFused].Module.Funcs {
					l, err := progs[vm.DispatchFused].NewVM().DisasmFunc(fn.Name)
					if err != nil {
						t.Fatal(err)
					}
					listing.WriteString(l)
				}
				if !strings.Contains(listing.String(), c.slot) {
					t.Fatalf("no %s slot in the fused listing:\n%s", c.slot, listing.String())
				}
				for k := c.steps; k < c.steps+c.span; k++ {
					var base map[string]uint64
					for _, d := range dispatchModes {
						machine := vm.New(progs[d].Module, vm.Options{Mode: rep, Dispatch: d, MaxSteps: k})
						_, err := machine.RunFunc("entry", vm.IntValue(c.arg))
						if err == nil || err.Error() != c.trap {
							t.Fatalf("MaxSteps=%d %v: err = %v, want %q", k, d, err, c.trap)
						}
						cnt := coreCounters(machine.Stats)
						if base == nil {
							base = cnt
							continue
						}
						for name, want := range base {
							if cnt[name] != want {
								t.Errorf("MaxSteps=%d counter %s: %v=%d %v=%d",
									k, name, dispatchModes[0], want, d, cnt[name])
							}
						}
					}
				}
			})
		}
	}
}

// TestICVectorIdentityInvalidation warms a vector-access site on one object,
// then routes a different vector through the same site: the monomorphic
// cache must miss, recover through the slow path, and re-fill.
func TestICVectorIdentityInvalidation(t *testing.T) {
	src := `
(define (sum (v (vector int64)) (k int64)) int64
  (let ((mutable acc 0))
    (dotimes (i k) (set! acc (+ acc (vector-ref v i))))
    acc))
(define (entry (n int64)) int64
  (let ((a (make-vector n 1)) (b (make-vector n 2)))
    (+ (sum a n) (sum b n))))
`
	val, machine, _, err := runDispatch(t, src, "entry", vm.DispatchFused, vm.Unboxed, nil, vm.IntValue(100))
	if err != nil {
		t.Fatal(err)
	}
	if val.I != 300 {
		t.Fatalf("value = %d, want 300", val.I)
	}
	s := machine.Stats
	if s.ICHits < 150 {
		t.Errorf("icHits = %d, want >= 150 (cache not warming)", s.ICHits)
	}
	if s.ICMisses < 2 {
		t.Errorf("icMisses = %d, want >= 2 (one fill per vector identity)", s.ICMisses)
	}
	if s.ICMisses > 10 {
		t.Errorf("icMisses = %d, suspiciously high for two identities", s.ICMisses)
	}
}

// TestICVectorBoundsThroughWarmCache proves a warmed vector cache still
// traps out-of-range indexes with the slow path's exact message.
func TestICVectorBoundsThroughWarmCache(t *testing.T) {
	src := `
(define (ref (v (vector int64)) (i int64)) int64 (vector-ref v i))
(define (entry (n int64)) int64
  (let ((v (make-vector 4 9)))
    (dotimes (i 4) (ref v i))
    (ref v 99)))
`
	_, machine, _, err := runDispatch(t, src, "entry", vm.DispatchFused, vm.Unboxed, nil, vm.IntValue(0))
	if err == nil {
		t.Fatal("expected bounds trap")
	}
	if !strings.Contains(err.Error(), "vector index 99 out of range 0..3") {
		t.Errorf("trap = %v, want the slow path's exact bounds message", err)
	}
	if machine.Stats.ICHits < 3 {
		t.Errorf("icHits = %d, want >= 3 (site should have warmed first)", machine.Stats.ICHits)
	}
}

// TestICFieldRegionBypass routes a region-allocated object through a field
// site warmed on a heap object of the same shape: the per-hit region check
// must decline the fast path so region accounting stays exact.
func TestICFieldRegionBypass(t *testing.T) {
	src := `
(defstruct p (x int64))
(define (get (o p)) int64 (field o x))
(define (entry (n int64)) int64
  (let ((h (make p :x 5)))
    (let ((mutable acc 0))
      (dotimes (i n) (set! acc (+ acc (get h))))
      (with-region r
        (let ((rg (alloc-in r (make p :x 3))))
          (set! acc (+ acc (get rg)))))
      acc)))
`
	val, machine, _, err := runDispatch(t, src, "entry", vm.DispatchFused, vm.Unboxed, nil, vm.IntValue(10))
	if err != nil {
		t.Fatal(err)
	}
	if val.I != 53 {
		t.Fatalf("value = %d, want 53", val.I)
	}
	if machine.Stats.ICHits < 5 {
		t.Errorf("icHits = %d, want >= 5", machine.Stats.ICHits)
	}
	if machine.Stats.ICMisses < 1 {
		t.Errorf("icMisses = %d, want >= 1 (region object must decline fast path)", machine.Stats.ICMisses)
	}
}

// TestICFieldSTMBuffering warms a field-read site outside any transaction,
// then reads through it inside an atomic block that has buffered a write:
// the transaction check must route to the slow path so the read observes
// the buffered value, not the committed one.
func TestICFieldSTMBuffering(t *testing.T) {
	src := `
(defstruct c (v int64))
(define (get (o c)) int64 (field o v))
(define (entry (n int64)) int64
  (let ((o (make c :v 1)))
    (let ((mutable acc 0))
      (dotimes (i n) (set! acc (+ acc (get o))))
      (atomic
        (set-field! o v 42)
        (set! acc (get o)))
      acc)))
`
	val, machine, _, err := runDispatch(t, src, "entry", vm.DispatchFused, vm.Unboxed, nil, vm.IntValue(8))
	if err != nil {
		t.Fatal(err)
	}
	if val.I != 42 {
		t.Fatalf("value = %d, want 42 (in-txn read must see buffered write)", val.I)
	}
	if machine.Stats.ICHits < 5 {
		t.Errorf("icHits = %d, want >= 5 (site warmed before the transaction)", machine.Stats.ICHits)
	}
}

// TestUnimplementedOpcodeTrap builds a module by hand around an opcode the
// VM does not implement and pins the enriched trap message: it must name
// the function and the block:pc of the offending instruction.
func TestUnimplementedOpcodeTrap(t *testing.T) {
	f := &ir.Func{Name: "bogus", NumRegs: 1}
	b := f.NewBlock()
	b.Instrs = append(b.Instrs, ir.Instr{Op: ir.Op(250), Dst: 0})
	b.Term = ir.Terminator{Kind: ir.TermReturn, Val: 0}
	mod := &ir.Module{
		Funcs:   []*ir.Func{f},
		FuncIdx: map[string]int{"bogus": 0},
		Entry:   -1,
	}
	for _, d := range dispatchModes {
		machine := vm.New(mod, vm.Options{Dispatch: d})
		_, err := machine.RunFunc("bogus")
		if err == nil {
			t.Fatalf("%v: expected unimplemented-opcode trap", d)
		}
		msg := err.Error()
		if !strings.Contains(msg, "unimplemented opcode") ||
			!strings.Contains(msg, "bogus") || !strings.Contains(msg, "b0:0") {
			t.Errorf("%v: trap = %q, want function name and b0:0 position", d, msg)
		}
	}
}

// TestDisasmGolden pins the decoded/fused listings of two E1 kernels.
// Regenerate with `go test ./internal/vm -run TestDisasmGolden -update`
// and review the diff: every fusion or specialization change shows up here.
func TestDisasmGolden(t *testing.T) {
	for _, name := range []string{"fib", "insertion-sort"} {
		t.Run(name, func(t *testing.T) {
			src, ok := bench.KernelSource(name)
			if !ok {
				t.Fatalf("no kernel %q", name)
			}
			prog, err := core.Load(name, src, core.Config{Optimize: opt.O2})
			if err != nil {
				t.Fatal(err)
			}
			machine := prog.NewVM()
			var b strings.Builder
			for i, fn := range prog.Module.Funcs {
				listing, derr := machine.DisasmFunc(fn.Name)
				if derr != nil {
					t.Fatal(derr)
				}
				if i > 0 {
					b.WriteString("\n")
				}
				b.WriteString(listing)
			}
			got := b.String()
			golden := filepath.Join("testdata", "disasm_"+name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("listing differs from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
			}
		})
	}
}
