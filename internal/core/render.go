package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"bitc/internal/ast"
	"bitc/internal/source"
	"bitc/internal/types"
)

// RenderFrontEnd renders what a front-end load handed back, so that two
// loads of one text can be compared byte for byte: a memoised
// LoadAnalysis against a cold parser.Parse and types.Check, say. A failed
// load renders as its error, whose text lists every diagnostic. A loaded
// program renders as its definitions node by node (every field and span,
// but not the ExprIDs, which a memoised load numbers differently); every
// expression's kind, span and type, each variable reference's symbol, its
// type and binding number, and the binding number each set! target and
// alloc-in region resolves to;
// each constructor pattern's resolution; the suppressions; the
// declaration lists, schemes, globals, structs, unions and constructors.
// An expression ID that is out of range or used twice renders as a
// complaint, since a cold parse never produces one.
func RenderFrontEnd(p *Program, err error) string {
	var b strings.Builder
	if err != nil {
		fmt.Fprintf(&b, "error %s\n", err)
		return b.String()
	}
	prog, info := p.AST, p.Info
	for _, su := range prog.Suppressions {
		fmt.Fprintf(&b, "suppress %s %s line %d\n", su.Code, spanString(su.Span), su.Line)
	}
	seen := make(map[int32]bool, prog.ExprCount)
	patterns := 0
	for _, d := range prog.Defs {
		b.WriteString("def ")
		dumpNode(&b, reflect.ValueOf(d))
		b.WriteByte('\n')
		ast.EachExpr(d, func(e ast.Expr) {
			id := e.ExprID()
			if id < 1 || id > prog.ExprCount || seen[id] {
				fmt.Fprintf(&b, "bad expression id %d of %d\n", id, prog.ExprCount)
			}
			seen[id] = true
			fmt.Fprintf(&b, "  %T %s %s", e, spanString(e.Span()), info.TypeOf(e))
			switch e := e.(type) {
			case *ast.VarRef:
				if sym := info.Use(e); sym != nil {
					fmt.Fprintf(&b, " use %s %s %s bind %d", sym.Kind, sym.Name, sym.Scheme.Type, sym.Bind)
				} else {
					b.WriteString(" use none")
				}
			case *ast.Set:
				fmt.Fprintf(&b, " target %d", info.Target(e))
			case *ast.AllocIn:
				fmt.Fprintf(&b, " region %d", info.Region(e))
			}
			b.WriteByte('\n')
		})
		ast.WalkDef(d, func(e ast.Expr) bool {
			if c, ok := e.(*ast.Case); ok {
				for _, cl := range c.Clauses {
					patterns += renderPatCtors(&b, cl.Pattern, info)
				}
			}
			return true
		})
	}
	if len(info.PatCtors) != patterns {
		fmt.Fprintf(&b, "%d pattern resolutions for %d constructor patterns\n", len(info.PatCtors), patterns)
	}
	for _, d := range info.FuncDecls {
		fmt.Fprintf(&b, "funcdecl %s %s\n", d.Name, spanString(d.SpanV))
	}
	for _, d := range info.GlobalDecls {
		fmt.Fprintf(&b, "globaldecl %s %s\n", d.Name, spanString(d.SpanV))
	}
	for _, d := range info.Externals {
		fmt.Fprintf(&b, "external %s %s\n", d.Name, spanString(d.SpanV))
	}
	for _, n := range sortedKeys(info.Funcs) {
		s := info.Funcs[n]
		fmt.Fprintf(&b, "func %s %s %d\n", n, s.Type, len(s.Vars))
	}
	for _, n := range sortedKeys(info.Globals) {
		fmt.Fprintf(&b, "global %s %s\n", n, info.Globals[n])
	}
	for _, n := range sortedKeys(info.Structs) {
		s := info.Structs[n]
		fmt.Fprintf(&b, "struct %s packed=%v boxed=%v align=%d", n, s.Packed, s.Boxed, s.Align)
		for _, f := range s.Fields {
			fmt.Fprintf(&b, " (%s %s %d)", f.Name, f.Type, f.Bits)
		}
		b.WriteByte('\n')
	}
	for _, n := range sortedKeys(info.Unions) {
		fmt.Fprintf(&b, "union %s", n)
		for _, a := range info.Unions[n].Arms {
			fmt.Fprintf(&b, " (%d %s", a.Tag, a.Name)
			for _, f := range a.Fields {
				fmt.Fprintf(&b, " (%s %s)", f.Name, f.Type)
			}
			b.WriteByte(')')
		}
		b.WriteByte('\n')
	}
	for _, n := range sortedKeys(info.CtorOf) {
		cu := info.CtorOf[n]
		fmt.Fprintf(&b, "ctor %s %s.%s\n", n, cu.Union.Name, cu.Arm.Name)
	}
	return b.String()
}

// renderPatCtors renders the resolution of every constructor pattern in p
// and returns how many there were.
func renderPatCtors(b *strings.Builder, p ast.Pattern, info *types.Info) int {
	pc, ok := p.(*ast.PatCtor)
	if !ok {
		return 0
	}
	if cu := info.PatCtors[pc]; cu != nil {
		fmt.Fprintf(b, "  pattern %s %s.%s\n", spanString(pc.SpanV), cu.Union.Name, cu.Arm.Name)
	} else {
		fmt.Fprintf(b, "  pattern %s unresolved\n", spanString(pc.SpanV))
	}
	n := 1
	for _, a := range pc.Args {
		n += renderPatCtors(b, a, info)
	}
	return n
}

func spanString(s source.Span) string { return fmt.Sprintf("[%d,%d)", s.Start, s.End) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var spanType = reflect.TypeOf(source.Span{})

// dumpNode writes an AST node and everything under it, field by field,
// leaving out expression IDs. A nil slice and an empty one render alike.
func dumpNode(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		if v.Kind() == reflect.Interface {
			dumpNode(b, v.Elem())
			return
		}
		b.WriteString(v.Elem().Type().Name())
		dumpNode(b, v.Elem())
	case reflect.Struct:
		if v.Type() == spanType {
			b.WriteString(spanString(v.Interface().(source.Span)))
			return
		}
		b.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Name == "ID" {
				continue
			}
			fmt.Fprintf(b, " %s:", f.Name)
			dumpNode(b, v.Field(i))
		}
		b.WriteString(" }")
	case reflect.Slice:
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			dumpNode(b, v.Index(i))
		}
		b.WriteByte(']')
	case reflect.String:
		fmt.Fprintf(b, "%q", v.String())
	default:
		fmt.Fprintf(b, "%v", v)
	}
}
