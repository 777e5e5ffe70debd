package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// writeProg drops source into a temp .bitc file and returns its path.
func writeProg(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.bitc")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture runs the CLI with stdout redirected to a pipe.
func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	out, _ := os.ReadFile(asFile(r))
	return string(out), runErr
}

// asFile drains a pipe reader into a temp file so capture stays simple.
func asFile(r *os.File) string {
	f, _ := os.CreateTemp("", "out")
	defer f.Close()
	buf := make([]byte, 1<<16)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			f.Write(buf[:n])
		}
		if err != nil {
			break
		}
	}
	return f.Name()
}

const good = `
(defstruct pt (x int32) (y int32))
(defunion opt (None) (Some (v int32)))
(define (main) int64
  (println "hi")
  (+ 40 2))
`

func TestCheckCommand(t *testing.T) {
	out, err := capture(t, []string{"check", writeProg(t, good)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "OK") {
		t.Errorf("output = %q", out)
	}
}

func TestRunCommand(t *testing.T) {
	out, err := capture(t, []string{"run", writeProg(t, good)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hi") || !strings.Contains(out, "=> 42") {
		t.Errorf("output = %q", out)
	}
	if !strings.Contains(out, "[unboxed]") {
		t.Errorf("stats line missing: %q", out)
	}
}

func TestRunBoxedFlag(t *testing.T) {
	out, err := capture(t, []string{"run", "-boxed", writeProg(t, good)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[boxed]") {
		t.Errorf("output = %q", out)
	}
}

func TestRunCustomEntry(t *testing.T) {
	src := `(define (other) int64 7)`
	out, err := capture(t, []string{"run", "-entry", "other", writeProg(t, src)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "=> 7") {
		t.Errorf("output = %q", out)
	}
}

func TestVerifyCommandPass(t *testing.T) {
	src := `(define (f (x int64)) int64 :requires (> x 0) :ensures (> %result 0) (+ x 1))`
	out, err := capture(t, []string{"verify", writeProg(t, src)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "PROVED") || strings.Contains(out, "FAILED") {
		t.Errorf("output = %q", out)
	}
}

func TestVerifyCommandFail(t *testing.T) {
	src := `(define (f (x int64)) int64 :ensures (> %result x) (- x 1))`
	out, err := capture(t, []string{"verify", writeProg(t, src)})
	if err == nil {
		t.Fatal("verify should fail")
	}
	if !strings.Contains(out, "FAILED") || !strings.Contains(out, "counterexample") {
		t.Errorf("output = %q", out)
	}
}

const racy = `
(defstruct cell (v int64))
(define shared cell (make cell :v 0))
(define (w) unit (set-field! shared v 1))
(define (main) unit
  (let ((t1 (spawn (w))) (t2 (spawn (w)))) (join t1) (join t2)))`

func TestAnalyzeCommand(t *testing.T) {
	out, err := capture(t, []string{"analyze", writeProg(t, racy)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "BITC-RACE001") {
		t.Errorf("race not reported: %q", out)
	}
	if !strings.Contains(out, "warning[") || !strings.Contains(out, "findings") {
		t.Errorf("pretty format wrong: %q", out)
	}
}

func TestAnalyzeJSONFlag(t *testing.T) {
	out, err := capture(t, []string{"analyze", "-json", writeProg(t, racy)})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Findings []struct {
			Code string `json:"code"`
		} `json:"findings"`
		Warnings int `json:"warnings"`
	}
	if jerr := json.Unmarshal([]byte(out), &doc); jerr != nil {
		t.Fatalf("invalid JSON: %v\n%s", jerr, out)
	}
	if len(doc.Findings) == 0 || doc.Findings[0].Code != "BITC-RACE001" {
		t.Errorf("findings = %+v", doc.Findings)
	}
}

func TestAnalyzeEnableDisableFlags(t *testing.T) {
	out, err := capture(t, []string{"analyze", "-disable", "race", writeProg(t, racy)})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "BITC-RACE001") {
		t.Errorf("disabled analyzer still ran: %q", out)
	}
	out, err = capture(t, []string{"analyze", "-enable", "deadstore", writeProg(t, racy)})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "BITC-RACE001") {
		t.Errorf("-enable did not restrict the suite: %q", out)
	}
	if err := run([]string{"analyze", "-enable", "bogus", writeProg(t, racy)}); err == nil {
		t.Error("unknown analyzer accepted")
	}
}

func TestAnalyzeSeverityFlagAndExitCode(t *testing.T) {
	// Warnings alone exit 0; -severity error filters them out of the report.
	out, err := capture(t, []string{"analyze", "-severity", "error", writeProg(t, racy)})
	if err != nil {
		t.Fatalf("warnings must not fail the exit-code contract: %v", err)
	}
	if strings.Contains(out, "BITC-RACE001") {
		t.Errorf("severity filter leak: %q", out)
	}
	// An unmarshallable external is error severity: non-zero exit.
	bad := `
	  (external keep (-> ((vector int64)) int64) "keep")
	  (define (main) int64 7)`
	if err := run([]string{"analyze", writeProg(t, bad)}); err == nil {
		t.Error("error-severity findings must make analyze fail")
	}
}

func TestDumpIRCommand(t *testing.T) {
	out, err := capture(t, []string{"dump-ir", writeProg(t, good)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "func main") || !strings.Contains(out, "ret") {
		t.Errorf("output = %q", out)
	}
}

func TestDumpLayoutCommand(t *testing.T) {
	out, err := capture(t, []string{"dump-layout", writeProg(t, good)})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"struct pt (natural)", "struct pt (packed)", "struct pt (boxed)", "union opt"} {
		if !strings.Contains(out, want) {
			t.Errorf("layout dump missing %q:\n%s", want, out)
		}
	}
}

func TestFmtCommand(t *testing.T) {
	out, err := capture(t, []string{"fmt", writeProg(t, "(define   (main)\n   int64\n 1)")})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(define (main) int64 1)") {
		t.Errorf("output = %q", out)
	}
}

func TestErrorPaths(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"bogus", writeProg(t, good)}); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"check"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"check", "/does/not/exist.bitc"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"check", writeProg(t, "(define")}); err == nil {
		t.Error("parse error not surfaced")
	}
	if err := run([]string{"run", "-contracts", writeProg(t,
		`(define (main) int64 (bad-call))`)}); err == nil {
		t.Error("type error not surfaced")
	}
}

func TestRunContractsFlag(t *testing.T) {
	src := `
	  (define (f (x int64)) int64 :requires (> x 5) x)
	  (define (main) int64 (f 1))`
	if err := run([]string{"run", "-contracts", writeProg(t, src)}); err == nil {
		t.Error("contract violation not trapped")
	}
	if err := run([]string{"run", writeProg(t, src)}); err != nil {
		t.Errorf("without -contracts: %v", err)
	}
}

func TestVerifyFlags(t *testing.T) {
	src := `(define (f (x int64)) int64 (/ 100 x))`
	// Default: the div-by-zero VC fails.
	if err := run([]string{"verify", writeProg(t, src)}); err == nil {
		t.Error("unguarded division should fail verification")
	}
	// With -no-divzero it passes (nothing else to prove).
	if err := run([]string{"verify", "-no-divzero", writeProg(t, src)}); err != nil {
		t.Errorf("with -no-divzero: %v", err)
	}
}

func TestVerifyLoopInvariantProgram(t *testing.T) {
	src, err := os.ReadFile("../../examples/progs/contracts.bitc")
	if err != nil {
		t.Fatal(err)
	}
	out, rerr := capture(t, []string{"verify", writeProg(t, string(src))})
	if rerr != nil {
		t.Fatalf("verify failed: %v\n%s", rerr, out)
	}
	if !strings.Contains(out, "loop-invariant") {
		t.Errorf("invariant VCs missing: %s", out)
	}
}

// TestVerifyOutputDeterministic runs `bitc verify` on a program with failing
// conditions 20 times: the verdicts and the counterexample facts it prints
// must be identical each time. Only the per-condition prover time varies.
func TestVerifyOutputDeterministic(t *testing.T) {
	elapsed := regexp.MustCompile(`\([0-9.]+[µmn]?s\)$`)
	render := func() string {
		out, err := capture(t, []string{"verify", "../../examples/progs/sieve.bitc"})
		if err == nil {
			t.Fatal("sieve.bitc has failing conditions; verify should fail")
		}
		lines := strings.Split(out, "\n")
		for i, l := range lines {
			lines[i] = elapsed.ReplaceAllString(l, "")
		}
		return strings.Join(lines, "\n")
	}
	first := render()
	if !strings.Contains(first, "counterexample facts") {
		t.Fatalf("no counterexample printed:\n%s", first)
	}
	for i := 1; i < 20; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d differs from run 0:\n%s\nwant:\n%s", i, got, first)
		}
	}
}
