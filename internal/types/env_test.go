package types_test

import (
	"testing"

	"bitc/internal/parser"
	"bitc/internal/types"
)

// TestEnvClosed pins which programs leave a closed environment: only when
// every top-level signature, global and field type is fixed before any
// body is checked may a body be re-checked alone.
func TestEnvClosed(t *testing.T) {
	for src, closed := range map[string]bool{
		"(define (f (x int64)) int64 (+ x 1))":                                    true,
		"(define n int32 5) (define (f) int32 n)":                                 true,
		"(defstruct p (a int64)) (define g p (make p :a 1)) (define (f) unit ())": true,
		"(defstruct p (a int64)) (define g (make p :a 1)) (define (f) unit ())":   true,
		"(define (f x) int64 7)":                                                  false,
		"(define (f (x int64)) (+ x 1))":                                          false,
		"(define (f (x 'a)) 'a x)":                                                false,
		"(define n 5) (define (f) int32 n)":                                       false,
		"(defunion box (B (x 'a))) (define (f) unit ())":                          false,
		`(external e (-> ('a) int64) "e") (define (f) unit ())`:                   false,
	} {
		prog, diags := parser.Parse("env.bitc", src)
		if diags.HasErrors() {
			t.Fatalf("%s: %v", src, diags)
		}
		_, env, cdiags := types.CheckEnv(prog)
		if cdiags.HasErrors() {
			t.Fatalf("%s: %v", src, cdiags)
		}
		if env.Closed() != closed {
			t.Errorf("%s: Closed() = %v, want %v", src, env.Closed(), closed)
		}
	}
}
