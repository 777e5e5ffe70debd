package corpus

import (
	"fmt"
	"strings"
)

// The scaling shapes are generated programs that stress one dimension of a
// stage each: a long body that reuses one mutable variable, a deep
// expression nest, a deep chain of nested scopes, a deep chain of branches,
// a chain of copies written against block order and a long chain of calls.
// The linear-cost tests of the type checker, the compiler, the optimiser,
// the CFG builder and the verifier run them at growing sizes (the copy
// chain only the optimiser's, the call chain only the verifier's); the Info
// and IR pins cover small instances of the others.

// SetBodyShape is a function of n (set! acc (+ acc i)) statements inside
// one dotimes loop, all adding to the same mutable local.
func SetBodyShape(n int) string {
	var b strings.Builder
	b.WriteString("(define (main) int64\n  (let ((mutable acc 0))\n    (dotimes (i 3)\n")
	for k := 0; k < n; k++ {
		b.WriteString("      (set! acc (+ acc i))\n")
	}
	b.WriteString("      ())\n    acc))\n")
	return b.String()
}

// NestShape is a (+ 1 (+ 1 … 1)) nest n deep.
func NestShape(n int) string {
	return "(define (main) int64\n  " + strings.Repeat("(+ 1 ", n) + "1" + strings.Repeat(")", n) + ")\n"
}

// LetShape is n nested lets, each binding x{k} to x{k-1} plus one.
func LetShape(n int) string {
	var b strings.Builder
	b.WriteString("(define (main) int64\n")
	b.WriteString("(let ((x0 1))\n")
	for k := 1; k < n; k++ {
		fmt.Fprintf(&b, "(let ((x%d (+ x%d 1)))\n", k, k-1)
	}
	fmt.Fprintf(&b, "x%d%s)\n", n-1, strings.Repeat(")", n))
	return b.String()
}

// IfShape is n ifs nested in each other's else arm, each testing the
// parameter against its depth: (if (< x 0) 0 (if (< x 1) 1 … n)).
func IfShape(n int) string {
	var b strings.Builder
	b.WriteString("(define (pick (x int64)) int64\n")
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "(if (< x %d) %d\n", k, k)
	}
	fmt.Fprintf(&b, "%d%s)\n", n, strings.Repeat(")", n))
	b.WriteString("(define (main) int64 (pick 7))\n")
	return b.String()
}

// MovChainShape is n+1 mutable locals and n guarded copies between them,
// each in its own branch, written last link first: x{n-1} takes x{n}, then
// x{n-2} takes x{n-1}, and so on down to x0, which is returned. Escape flows
// from a copy's destination to its source, so it flows from x0 up the
// chain against block order, and a pass that sweeps the copies in block
// order until nothing changes takes n sweeps.
func MovChainShape(n int) string {
	var b strings.Builder
	b.WriteString("(define (chain (c int64)) int64\n  (let (")
	for k := 0; k <= n; k++ {
		fmt.Fprintf(&b, "(mutable x%d c)", k)
	}
	b.WriteString(")\n")
	for k := n - 1; k >= 0; k-- {
		fmt.Fprintf(&b, "    (if (< c %d) (set! x%d x%d) ())\n", k, k, k+1)
	}
	b.WriteString("    x0))\n(define (main) int64 (chain 7))\n")
	return b.String()
}

// CallChainShape is n functions, each calling the next with its argument
// plus one; the last returns its argument and main calls the first.
func CallChainShape(n int) string {
	var b strings.Builder
	for k := 0; k < n-1; k++ {
		fmt.Fprintf(&b, "(define (f%d (x int64)) int64 (f%d (+ x 1)))\n", k, k+1)
	}
	fmt.Fprintf(&b, "(define (f%d (x int64)) int64 x)\n(define (main) int64 (f0 0))\n", n-1)
	return b.String()
}
