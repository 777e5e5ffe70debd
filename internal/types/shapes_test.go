package types_test

import (
	"fmt"
	"strings"
)

// The scaling shapes are generated programs that stress one dimension of
// the checker each: a long body that reuses one mutable variable, a deep
// expression nest, and a deep chain of nested scopes.

// setBodyShape is a function of n (set! acc (+ acc i)) statements inside
// one dotimes loop, all adding to the same mutable local.
func setBodyShape(n int) string {
	var b strings.Builder
	b.WriteString("(define (main) int64\n  (let ((mutable acc 0))\n    (dotimes (i 3)\n")
	for k := 0; k < n; k++ {
		b.WriteString("      (set! acc (+ acc i))\n")
	}
	b.WriteString("      ())\n    acc))\n")
	return b.String()
}

// nestShape is a (+ 1 (+ 1 … 1)) nest n deep.
func nestShape(n int) string {
	return "(define (main) int64\n  " + strings.Repeat("(+ 1 ", n) + "1" + strings.Repeat(")", n) + ")\n"
}

// letShape is n nested lets, each binding x{k} to x{k-1} plus one.
func letShape(n int) string {
	var b strings.Builder
	b.WriteString("(define (main) int64\n")
	b.WriteString("(let ((x0 1))\n")
	for k := 1; k < n; k++ {
		fmt.Fprintf(&b, "(let ((x%d (+ x%d 1)))\n", k, k-1)
	}
	fmt.Fprintf(&b, "x%d%s)\n", n-1, strings.Repeat(")", n))
	return b.String()
}
