package core_test

import (
	"strings"
	"testing"
	"testing/quick"

	"bitc/internal/analysis"
	"bitc/internal/core"
	"bitc/internal/layout"
	"bitc/internal/verify"
	"bitc/internal/vm"
)

const sample = `
(defstruct point :packed (x uint16) (y uint16))
(define (dist2 (p point)) int64
  :requires #t
  (let ((dx (cast int64 (field p x))) (dy (cast int64 (field p y))))
    (+ (* dx dx) (* dy dy))))
(define (main) int64
  (dist2 (make point :x 3 :y 4)))
`

func TestLoadAndRun(t *testing.T) {
	p, err := core.Load("sample", sample, core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	val, machine, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if val.I != 25 {
		t.Fatalf("main = %d", val.I)
	}
	if machine.Stats.Instrs == 0 {
		t.Error("no instrumentation")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := core.Load("bad", "(define", core.DefaultConfig); err == nil ||
		!strings.Contains(err.Error(), "parse") {
		t.Errorf("parse error not surfaced: %v", err)
	}
	if _, err := core.Load("bad", "(define (f) (+ 1 \"x\"))", core.DefaultConfig); err == nil ||
		!strings.Contains(err.Error(), "typecheck") {
		t.Errorf("type error not surfaced: %v", err)
	}
	if _, err := core.Load("bad", `
	  (define (f) int64
	    (let ((mutable n 0))
	      ((lambda () int64 n))))`, core.DefaultConfig); err == nil ||
		!strings.Contains(err.Error(), "compile") {
		t.Errorf("compile error not surfaced: %v", err)
	}
}

func TestRunFunc(t *testing.T) {
	p := core.MustLoad("s", `(define (double (x int64)) int64 (* x 2))`, core.DefaultConfig)
	val, _, err := p.RunFunc("double", vm.IntValue(21))
	if err != nil {
		t.Fatal(err)
	}
	if val.I != 42 {
		t.Fatalf("got %d", val.I)
	}
}

func TestVerifyThroughFacade(t *testing.T) {
	p := core.MustLoad("s", `
	  (define (inc (x int64)) int64
	    :requires (< x 10)
	    :ensures (> %result x)
	    (+ x 1))`, core.DefaultConfig)
	rep := p.Verify(verify.DefaultOptions)
	if rep.Proved == 0 || rep.Failed != 0 {
		t.Fatalf("verify: %s", rep.Summary())
	}
}

func TestLayoutThroughFacade(t *testing.T) {
	p := core.MustLoad("s", sample, core.DefaultConfig)
	l, err := p.LayoutOf("point", layout.Packed)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size != 4 {
		t.Fatalf("packed point = %d bytes", l.Size)
	}
	if _, err := p.LayoutOf("nosuch", layout.Packed); err == nil {
		t.Error("missing struct accepted")
	}
}

func TestAnalysesThroughFacade(t *testing.T) {
	p := core.MustLoad("s", `
	  (defstruct cell (v int64))
	  (define shared cell (make cell :v 0))
	  (define (w) unit (set-field! shared v 1))
	  (define (main) unit
	    (let ((t1 (spawn (w))) (t2 (spawn (w))))
	      (join t1) (join t2)))`, core.DefaultConfig)
	if races := p.Races(); len(races.Races) == 0 {
		t.Error("race not found through facade")
	}
	p2 := core.MustLoad("s", `
	  (defstruct msg (v int64))
	  (define (leak) msg (with-region r (alloc-in r (make msg :v 1))))`, core.DefaultConfig)
	rep, err := p2.Analyze(analysis.Options{Enable: []string{"escape"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 || rep.Findings[0].Code != analysis.CodeEscape {
		t.Errorf("escape not found through facade: %v", rep.Findings)
	}
}

func TestDumpIR(t *testing.T) {
	p := core.MustLoad("s", sample, core.DefaultConfig)
	irText := p.DumpIR()
	if !strings.Contains(irText, "func dist2") || !strings.Contains(irText, "ret") {
		t.Errorf("IR dump incomplete:\n%s", irText)
	}
}

func TestBoxedConfig(t *testing.T) {
	cfg := core.DefaultConfig
	cfg.Mode = vm.Boxed
	p := core.MustLoad("s", sample, cfg)
	_, machine, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if machine.Stats.BoxAllocs == 0 {
		t.Error("boxed mode made no boxes")
	}
}

func TestContractConfig(t *testing.T) {
	cfg := core.DefaultConfig
	cfg.EmitContracts = true
	p := core.MustLoad("s", `
	  (define (f (x int64)) int64 :requires (> x 0) x)`, cfg)
	if _, _, err := p.RunFunc("f", vm.IntValue(-1)); err == nil {
		t.Error("contract violation not trapped")
	}
	if _, _, err := p.RunFunc("f", vm.IntValue(5)); err != nil {
		t.Errorf("valid call trapped: %v", err)
	}
}

// TestLoadNeverPanics feeds byte soup and near-miss programs through the
// whole pipeline: errors are fine, panics are not.
func TestLoadNeverPanics(t *testing.T) {
	check := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Load panicked on %q: %v", raw, r)
			}
		}()
		_, _ = core.Load("fuzz", string(raw), core.DefaultConfig)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Near-miss programs: structurally plausible but wrong.
	nearMisses := []string{
		"(define (f) int64 (vector-ref))",
		"(define (f (x (vector))) x)",
		"(defstruct s (x (bitfield uint8 0)))",
		"(define (f) (case 1))",
		"(define (f) (with-region))",
		"(define (f) (atomic (atomic (atomic))))",
		"(define (f 'a) 1)",
		"(external x (-> () unit))",
		"((((((((((",
		"(define (f) " + string(make([]byte, 100)) + ")",
		// A nested constructor pattern type-checks but does not compile;
		// its variable's use must be an error, whether its binding number
		// is past every earlier definition's or was a lambda's in one.
		"(defunion e (Num (v int64)) (Neg (x e))) (define (f (x e)) int64 (case x ((Neg (Num v)) v) (_ 0)))",
		"(defunion e (Num (v int64)) (Neg (x e))) (define (g) int64 ((lambda ((a int64)) int64 ((lambda ((b int64)) int64 b) a)) 1)) (define (f (x e)) int64 (case x ((Neg (Num v)) v) (_ 0)))",
	}
	for _, src := range nearMisses {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Load panicked on %q: %v", src, r)
				}
			}()
			_, _ = core.Load("miss", src, core.DefaultConfig)
		}()
	}
}
