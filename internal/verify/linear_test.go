package verify_test

import (
	"fmt"
	"testing"

	"bitc/internal/corpus"
	"bitc/internal/parser"
	"bitc/internal/types"
	"bitc/internal/verify"
)

// TestVerifyLinearCost verifies a call chain of 1000 and of 4000
// functions and bounds the verifier's deterministic work counter, not its
// wall time: four times the functions must cost about four times the work.
// Rebuilding the table of callee contracts once per verified function, the
// verifier cost grew with the square of the function count.
func TestVerifyLinearCost(t *testing.T) {
	work := map[int]int{}
	for _, n := range []int{1000, 4000} {
		name := fmt.Sprintf("call-chain-%d", n)
		prog, diags := parser.Parse(name, corpus.CallChainShape(n))
		if diags.HasErrors() {
			t.Fatalf("%s: parse: %v", name, diags)
		}
		info, cdiags := types.Check(prog)
		if cdiags.HasErrors() {
			t.Fatalf("%s: check: %v", name, cdiags)
		}
		_, work[n] = verify.ProgramCounted(prog, info, verify.DefaultOptions)
		t.Logf("%s: work %d", name, work[n])
	}
	if r := float64(work[4000]) / float64(work[1000]); r > 4.4 {
		t.Errorf("verify work grew %.2fx for 4x the functions, want about 4x", r)
	}
}
