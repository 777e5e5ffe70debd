package vm_test

// elide_test.go is the fidelity suite for proof-guided bounds-check elision:
// running with core.Config.BoundsElide must be observationally identical to
// running without it — same values, same stdout, same trap messages, same
// counters (including icHits/icMisses, whose accounting the elided handlers
// preserve), and the same timestamped observer stream. The only permitted
// difference is the absence of the fast-path bounds compare at sites the
// static prover discharged.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bitc/internal/analysis"
	"bitc/internal/bench"
	"bitc/internal/core"
	"bitc/internal/obs"
	"bitc/internal/opt"
	"bitc/internal/source"
	"bitc/internal/vm"
)

// runElide loads src with or without bounds elision and runs entry.
func runElide(t *testing.T, src string, elide bool, d vm.DispatchMode, rep vm.RepMode, rec *obs.Recorder, args ...vm.Value) (*core.Program, vm.Value, *vm.VM, string, error) {
	t.Helper()
	var out bytes.Buffer
	prog, err := core.Load("t.bitc", src, core.Config{
		Optimize:    opt.O2,
		Mode:        rep,
		Dispatch:    d,
		Stdout:      &out,
		Observer:    rec,
		BoundsElide: elide,
	})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	val, machine, rerr := prog.RunFunc("entry", args...)
	return prog, val, machine, out.String(), rerr
}

// icCounters is coreCounters plus the IC hit/miss pair: under a fixed
// dispatch mode, elision must not move a single access between the fast and
// slow paths.
func icCounters(s vm.Stats) map[string]uint64 {
	m := coreCounters(s)
	m["icHits"] = s.ICHits
	m["icMisses"] = s.ICMisses
	return m
}

// TestBoundsElisionDifferentialKernels sweeps the E1 kernels across all
// dispatch strategies and both representations: elided and unelided runs
// must agree on value, stdout, error, and every counter.
func TestBoundsElisionDifferentialKernels(t *testing.T) {
	sizes := map[string]int64{"fib": 16, "vector-sum": 2000, "struct-walk": 800, "insertion-sort": 80}
	anyProved := false
	for _, name := range bench.KernelNames() {
		src, ok := bench.KernelSource(name)
		if !ok {
			t.Fatalf("no kernel %q", name)
		}
		for _, rep := range []vm.RepMode{vm.Unboxed, vm.Boxed} {
			for _, d := range dispatchModes {
				t.Run(fmt.Sprintf("%s/%v/%v", name, rep, d), func(t *testing.T) {
					_, bval, bvm, bout, berr := runElide(t, src, false, d, rep, nil, vm.IntValue(sizes[name]))
					prog, eval, evm, eout, eerr := runElide(t, src, true, d, rep, nil, vm.IntValue(sizes[name]))
					if prog.Proofs != nil && prog.Proofs.Proved > 0 {
						anyProved = true
					}
					if (berr == nil) != (eerr == nil) || (berr != nil && berr.Error() != eerr.Error()) {
						t.Fatalf("err drifted: baseline %v, elided %v", berr, eerr)
					}
					if bval.String() != eval.String() {
						t.Errorf("value drifted: baseline %v, elided %v", bval, eval)
					}
					if bout != eout {
						t.Errorf("stdout drifted under elision")
					}
					bc, ec := icCounters(bvm.Stats), icCounters(evm.Stats)
					for k, v := range bc {
						if ec[k] != v {
							t.Errorf("counter %s: baseline=%d elided=%d", k, v, ec[k])
						}
					}
				})
			}
		}
	}
	if !anyProved {
		t.Error("no kernel had prover-discharged sites: the differential ran nothing elided")
	}
}

// mixedTrapSrc has a proven site (v[0], elided) followed by loop and tail
// accesses the prover cannot discharge against the constant length 4; with
// n > 4 the loop traps exactly as the unelided VM does.
const mixedTrapSrc = `
(define (entry (n int64)) int64
  (let ((v (make-vector 4 0)))
    (vector-set! v 0 7)
    (dotimes (i n) (vector-set! v i i))
    (vector-ref v n)))
`

// narrowWrapSrc indexes with `(+ c 1)` over an int8 c refined to
// [100, 127]: exactly that is [101, 128], but int8 arithmetic wraps, so
// c = 127 yields index -128. The second loop iteration reuses the vector,
// so the access runs on the inline-cache fast path, where an elided site
// has no bounds compare left to trap.
const narrowWrapSrc = `
(define (get (b int8)) int64
  (let ((v (make-vector 200 7)) (mutable acc 0))
    (dotimes (k 2)
      (let ((c (if (= k 0) (cast int8 100) b)))
        (if (>= c 100)
            (set! acc (+ acc (vector-ref v (cast int64 (+ c 1)))))
            ())))
    acc))
(define (entry) int64 (get (cast int8 127)))
`

// TestBoundsElisionExternNarrowResult: a proof may rely on an extern's
// declared result type, so a host function returning 300 for a uint8
// result must reach the program as 44, not as an index past the proved
// [0, 255] (the second iteration runs on the inline-cache fast path).
func TestBoundsElisionExternNarrowResult(t *testing.T) {
	src := `
(external next-byte (-> () uint8) "next_byte")
(define (entry) int64
  (let ((v (make-vector 256 7)) (mutable acc 0))
    (dotimes (k 2)
      (set! acc (+ acc (+ (vector-ref v (cast int64 (next-byte))) (cast int64 (next-byte))))))
    acc))
`
	for _, d := range dispatchModes {
		for _, elide := range []bool{false, true} {
			prog, err := core.Load("t.bitc", src, core.Config{Optimize: opt.O2, Dispatch: d, BoundsElide: elide})
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if elide && (prog.Proofs == nil || prog.Proofs.Proved == 0) {
				t.Fatalf("%v: the uint8-indexed site was not proved", d)
			}
			machine := prog.NewVM()
			machine.Externs["next_byte"] = func([]int64) int64 { return 300 }
			val, err := machine.RunFunc("entry")
			if err != nil || val.I != 2*(7+44) {
				t.Fatalf("%v/elide=%v: got %v, %v; want %d", d, elide, val, err, 2*(7+44))
			}
		}
	}
}

// shadowedPlusSrc indexes through a local closure named +: (+ k 0) is
// 100*k, so the access at k = 1 is out of range, and no analysis may read
// the call as the builtin.
const shadowedPlusSrc = `
(define (entry) int64
  (let ((v (make-vector 10 7))
        (mutable acc 0)
        (+ (lambda ((a int64) (b int64)) int64 (* a 100))))
    (dotimes (k 3) (set! acc (vector-ref v (+ k 0))))
    acc))
`

// TestBoundsElisionTrapIdentical: elision must not change which access
// traps or the trap message (the VM's `vector index %d out of range 0..%d`),
// and neither a wrapped narrow-integer index nor one computed by a local
// that shadows a builtin may reach an elided handler. The table of local
// closures named after every head a pass dispatches on
// (internal/corpus/testdata/shadowed, each entry run on 50) joins the cases.
func TestBoundsElisionTrapIdentical(t *testing.T) {
	type trapCase struct {
		name, src, trap string
		args            []vm.Value
		wantProved      bool
	}
	cases := []trapCase{
		{"mixed", mixedTrapSrc, "vector index 4 out of range 0..3", []vm.Value{vm.IntValue(9)}, true},
		{"narrow-wrap", narrowWrapSrc, "vector index -128 out of range 0..199", nil, false},
		{"shadowed-builtin", shadowedPlusSrc, "vector index 100 out of range 0..9", nil, false},
	}
	files, err := filepath.Glob("../corpus/testdata/shadowed/*.bitc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no shadowed-head programs: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, trap, ok := strings.Cut(string(b), "; trap: ")
		if !ok {
			t.Fatalf("%s: no trap line", f)
		}
		trap, _, _ = strings.Cut(trap, "\n")
		cases = append(cases, trapCase{filepath.Base(f), string(b), trap, []vm.Value{vm.IntValue(50)}, false})
	}
	for _, c := range cases {
		for _, d := range dispatchModes {
			_, _, _, _, berr := runElide(t, c.src, false, d, vm.Unboxed, nil, c.args...)
			prog, _, _, _, eerr := runElide(t, c.src, true, d, vm.Unboxed, nil, c.args...)
			if berr == nil || eerr == nil {
				t.Fatalf("%s/%v: expected traps, got baseline=%v elided=%v", c.name, d, berr, eerr)
			}
			if berr.Error() != eerr.Error() {
				t.Fatalf("%s/%v: trap drifted: baseline %q, elided %q", c.name, d, berr, eerr)
			}
			if !strings.Contains(berr.Error(), c.trap) {
				t.Fatalf("%s/%v: unexpected trap %q", c.name, d, berr)
			}
			if c.wantProved && (prog.Proofs == nil || prog.Proofs.Proved == 0) {
				t.Fatalf("%s/%v: proven v[0] site missing from proof set", c.name, d)
			}
			if !c.wantProved && prog.Proofs != nil && prog.Proofs.Proved != 0 {
				t.Fatalf("%s/%v: %d sites proved, want none", c.name, d, prog.Proofs.Proved)
			}
		}
	}
}

// fuzzSrc fills a vector through a PRNG and reads it back through
// data-dependent in-range indices: the prover discharges the sites
// symbolically, and no fuzzed index stream may ever reach the trap.
const fuzzSrc = `
(define (entry (n int64) (seed int64)) int64
  (let ((v (make-vector n 0)))
    (let ((mutable s seed) (mutable acc 0))
      (dotimes (i n)
        (set! s (mod (+ (* s 1103515245) 12345) 2147483648))
        (vector-set! v i s))
      (dotimes (i n)
        (set! acc (+ acc (vector-ref v (- (- n 1) i)))))
      acc)))
`

// TestBoundsElisionFuzzedInRange runs fuzzed index streams over proven
// sites: elided and unelided runs agree and neither traps.
func TestBoundsElisionFuzzedInRange(t *testing.T) {
	for _, n := range []int64{1, 2, 7, 64, 1000} {
		for seed := int64(1); seed <= 5; seed++ {
			_, bval, bvm, _, berr := runElide(t, fuzzSrc, false, vm.DispatchFused, vm.Unboxed, nil, vm.IntValue(n), vm.IntValue(seed))
			prog, eval, evm, _, eerr := runElide(t, fuzzSrc, true, vm.DispatchFused, vm.Unboxed, nil, vm.IntValue(n), vm.IntValue(seed))
			if berr != nil || eerr != nil {
				t.Fatalf("n=%d seed=%d: trap on in-range stream: baseline=%v elided=%v", n, seed, berr, eerr)
			}
			if bval.I != eval.I {
				t.Fatalf("n=%d seed=%d: value drifted: %d vs %d", n, seed, bval.I, eval.I)
			}
			if bvm.Stats.ICHits != evm.Stats.ICHits || bvm.Stats.ICMisses != evm.Stats.ICMisses {
				t.Fatalf("n=%d seed=%d: IC counters drifted", n, seed)
			}
			if prog.Proofs.Proved == 0 {
				t.Fatal("fuzz kernel has no proven sites; test is vacuous")
			}
		}
	}
}

// TestBoundsElisionObserverStream: the timestamped observer event stream is
// part of observable behaviour and must be identical under elision.
func TestBoundsElisionObserverStream(t *testing.T) {
	src, _ := bench.KernelSource("insertion-sort")
	type flatEvent struct {
		Kind obs.EventKind
		Tid  int64
		Ts   uint64
		Dur  uint64
		Name string
		Arg  int64
	}
	collect := func(elide bool) []flatEvent {
		rec := vm.NewRecorder(obs.Options{Trace: true, Deterministic: true})
		_, _, _, _, err := runElide(t, src, elide, vm.DispatchFused, vm.Unboxed, rec, vm.IntValue(60))
		if err != nil {
			t.Fatalf("elide=%v: %v", elide, err)
		}
		rec.Finish()
		var evs []flatEvent
		for _, e := range rec.Events() {
			evs = append(evs, flatEvent{e.Kind, e.Tid, e.Ts, e.Dur, e.Name, e.Arg})
		}
		return evs
	}
	base := collect(false)
	elided := collect(true)
	if len(base) == 0 {
		t.Fatal("no events recorded")
	}
	if len(elided) != len(base) {
		t.Fatalf("event count drifted: %d vs %d", len(elided), len(base))
	}
	for i := range base {
		if base[i] != elided[i] {
			t.Fatalf("event %d drifted: %+v vs %+v", i, base[i], elided[i])
		}
	}
}

// TestBoundsElisionDisasmMarks: elided sites carry the `!` label suffix in
// the decoded listing, and only when a proof set was supplied.
func TestBoundsElisionDisasmMarks(t *testing.T) {
	src, _ := bench.KernelSource("vector-sum")
	load := func(elide bool) *vm.VM {
		prog, err := core.Load("t.bitc", src, core.Config{Optimize: opt.O2, BoundsElide: elide})
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		return prog.NewVM()
	}
	plain, err := load(false).DisasmFunc("entry")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain, ".ic!") {
		t.Errorf("baseline disasm contains elided labels:\n%s", plain)
	}
	elided, err := load(true).DisasmFunc("entry")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(elided, "vecref.ic!") || !strings.Contains(elided, "vecset.ic!") {
		t.Errorf("elided disasm missing vecref.ic!/vecset.ic! labels:\n%s", elided)
	}
}

// BenchmarkBoundsElision times the vector-heavy E1 kernels with and
// without proof-guided elision; the ratio is the prover's runtime payoff
// (BENCH_E1.json commits it as boundsElisionSpeedup).
func BenchmarkBoundsElision(b *testing.B) {
	for _, name := range []string{"vector-sum", "insertion-sort"} {
		src, _ := bench.KernelSource(name)
		arg := map[string]int64{"vector-sum": 200000, "insertion-sort": 2000}[name]
		for _, elide := range []bool{false, true} {
			mode := "checked"
			if elide {
				mode = "elided"
			}
			b.Run(name+"/"+mode, func(b *testing.B) {
				prog, err := core.Load(name, src, core.Config{Optimize: opt.O2, BoundsElide: elide})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := prog.RunFunc("entry", vm.IntValue(arg)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestBoundsStaticTrapAgreement: every BITC-BOUND001 site the analyzer
// reports must actually trap when the flagged code executes — the static
// error is the twin of the dynamic trap, never a false alarm.
func TestBoundsStaticTrapAgreement(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"constant", `
		  (define (entry (n int64)) int64
		    (let ((v (make-vector 5 0)))
		      (vector-ref v 9)))`},
		{"symbolic", `
		  (define (entry (n int64)) int64
		    (let ((v (make-vector n 0)))
		      (vector-ref v n)))`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := core.Load("t.bitc", c.src, core.Config{Optimize: opt.O2})
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			rep, err := prog.Analyze(analysis.Options{Enable: []string{"bounds"}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.CountBySeverity(source.Error) == 0 {
				t.Fatal("no BOUND001 reported")
			}
			_, _, rerr := prog.RunFunc("entry", vm.IntValue(3))
			if rerr == nil || !strings.Contains(rerr.Error(), "out of range") {
				t.Fatalf("statically flagged site did not trap: %v", rerr)
			}
		})
	}
}
