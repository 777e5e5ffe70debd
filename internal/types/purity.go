package types

import (
	"bitc/internal/ast"
)

// effectfulBuiltins are builtins a :pure function must not call.
var effectfulBuiltins = map[string]bool{
	"vector-set!": true,
	"print":       true,
	"println":     true,
	"send":        true,
	"recv":        true,
	"join":        true,
	"yield":       true,
	"make-chan":   true,
}

// checkPurity reports every observable effect inside a :pure function.
// Local mutation (set! of a local mutable binding) is permitted: purity here
// means "no effects visible outside the call", the property the verifier and
// optimiser rely on.
func (c *checker) checkPurity(d *ast.DefineFunc) {
	pureFns := map[string]bool{}
	for _, fn := range c.info.FuncDecls {
		if fn.Pure {
			pureFns[fn.Name] = true
		}
	}
	for _, body := range d.Body {
		ast.Walk(body, func(e ast.Expr) bool {
			switch e := e.(type) {
			case *ast.FieldSet:
				c.errf(e.Span(), "%s is declared :pure but writes a struct field", d.Name)
			case *ast.Spawn:
				c.errf(e.Span(), "%s is declared :pure but spawns a thread", d.Name)
			case *ast.Atomic:
				c.errf(e.Span(), "%s is declared :pure but opens a transaction", d.Name)
			case *ast.WithLock:
				c.errf(e.Span(), "%s is declared :pure but takes a lock", d.Name)
			case *ast.Call:
				v, ok := e.Fn.(*ast.VarRef)
				if !ok {
					// Indirect calls cannot be proven pure.
					c.errf(e.Span(), "%s is declared :pure but makes an indirect call", d.Name)
					return true
				}
				if effectfulBuiltins[v.Name] {
					c.errf(e.Span(), "%s is declared :pure but calls effectful builtin %s", d.Name, v.Name)
					return true
				}
				// Calls to user functions must target :pure functions;
				// calls through values (params, locals) and externals
				// cannot be proven pure.
				switch sym := c.info.Use(v); {
				case sym == nil:
					// Builtin or unresolved (already reported elsewhere).
				case sym.Kind == SymFunc:
					if v.Name != d.Name && !pureFns[v.Name] {
						c.errf(e.Span(), "%s is declared :pure but calls non-pure function %s", d.Name, v.Name)
					}
				case sym.Kind == SymExternal:
					c.errf(e.Span(), "%s is declared :pure but calls external %s", d.Name, v.Name)
				case sym.Kind == SymParam, sym.Kind == SymLocal, sym.Kind == SymGlobal:
					c.errf(e.Span(), "%s is declared :pure but makes an indirect call through %s", d.Name, v.Name)
				}
			}
			return true
		})
	}
}
