package ast

import (
	"fmt"
	"strings"
)

// Print renders a node back to (normalised) S-expression surface syntax.
// The output re-parses to an equivalent tree, which the parser tests rely on.
func Print(n Node) string {
	var b strings.Builder
	printNode(&b, n)
	return b.String()
}

// PrintProgram renders every definition in p, one per line.
func PrintProgram(p *Program) string {
	var b strings.Builder
	for i, d := range p.Defs {
		if i > 0 {
			b.WriteByte('\n')
		}
		printNode(&b, d)
	}
	return b.String()
}

func printBody(b *strings.Builder, body []Expr) {
	for _, e := range body {
		b.WriteByte(' ')
		printNode(b, e)
	}
}

func printParams(b *strings.Builder, params []*Param) {
	b.WriteByte('(')
	for i, p := range params {
		if i > 0 {
			b.WriteByte(' ')
		}
		if p.Type != nil {
			fmt.Fprintf(b, "(%s ", p.Name)
			printNode(b, p.Type)
			b.WriteByte(')')
		} else {
			b.WriteString(p.Name)
		}
	}
	b.WriteByte(')')
}

func printNode(b *strings.Builder, n Node) {
	switch n := n.(type) {
	// Types
	case *TypeName:
		if n.Var {
			b.WriteByte('\'')
		}
		b.WriteString(n.Name)
	case *TypeApp:
		fmt.Fprintf(b, "(%s", n.Ctor)
		for _, a := range n.Args {
			b.WriteByte(' ')
			printNode(b, a)
		}
		if n.Ctor == "array" {
			fmt.Fprintf(b, " %d", n.Size)
		}
		b.WriteByte(')')
	case *TypeFn:
		b.WriteString("(-> (")
		for i, p := range n.Params {
			if i > 0 {
				b.WriteByte(' ')
			}
			printNode(b, p)
		}
		b.WriteString(") ")
		printNode(b, n.Result)
		b.WriteByte(')')
	case *TypeBitfield:
		b.WriteString("(bitfield ")
		printNode(b, n.Base)
		fmt.Fprintf(b, " %d)", n.Bits)

	// Definitions
	case *DefineFunc:
		fmt.Fprintf(b, "(define (%s", n.Name)
		for _, p := range n.Params {
			b.WriteByte(' ')
			if p.Type != nil {
				fmt.Fprintf(b, "(%s ", p.Name)
				printNode(b, p.Type)
				b.WriteByte(')')
			} else {
				b.WriteString(p.Name)
			}
		}
		b.WriteByte(')')
		if n.RetType != nil {
			b.WriteByte(' ')
			printNode(b, n.RetType)
		}
		if n.Pure {
			b.WriteString(" :pure")
		}
		for _, r := range n.Contract.Requires {
			b.WriteString(" :requires ")
			printNode(b, r)
		}
		for _, e := range n.Contract.Ensures {
			b.WriteString(" :ensures ")
			printNode(b, e)
		}
		printBody(b, n.Body)
		b.WriteByte(')')
	case *DefineVar:
		fmt.Fprintf(b, "(define %s ", n.Name)
		if n.Type != nil {
			printNode(b, n.Type)
			b.WriteByte(' ')
		}
		printNode(b, n.Init)
		b.WriteByte(')')
	case *DefStruct:
		fmt.Fprintf(b, "(defstruct %s", n.Name)
		if n.Packed {
			b.WriteString(" :packed")
		}
		if n.Boxed {
			b.WriteString(" :boxed")
		}
		if n.Align != 0 {
			fmt.Fprintf(b, " :align %d", n.Align)
		}
		for _, f := range n.Fields {
			fmt.Fprintf(b, " (%s ", f.Name)
			printNode(b, f.Type)
			b.WriteByte(')')
		}
		b.WriteByte(')')
	case *DefUnion:
		fmt.Fprintf(b, "(defunion %s", n.Name)
		for _, a := range n.Arms {
			fmt.Fprintf(b, " (%s", a.Name)
			for _, f := range a.Fields {
				fmt.Fprintf(b, " (%s ", f.Name)
				printNode(b, f.Type)
				b.WriteByte(')')
			}
			b.WriteByte(')')
		}
		b.WriteByte(')')
	case *External:
		fmt.Fprintf(b, "(external %s ", n.Name)
		printNode(b, n.Type)
		fmt.Fprintf(b, " %q)", n.CSymbol)

	// Expressions
	case *IntLit:
		fmt.Fprintf(b, "%d", n.Value)
	case *FloatLit:
		s := fmt.Sprintf("%g", n.Value)
		b.WriteString(s)
		if !strings.ContainsAny(s, ".eE") {
			b.WriteString(".0")
		}
	case *BoolLit:
		if n.Value {
			b.WriteString("#t")
		} else {
			b.WriteString("#f")
		}
	case *CharLit:
		fmt.Fprintf(b, "#\\%c", n.Value)
	case *StringLit:
		fmt.Fprintf(b, "%q", n.Value)
	case *UnitLit:
		b.WriteString("()")
	case *VarRef:
		b.WriteString(n.Name)
	case *Call:
		b.WriteByte('(')
		printNode(b, n.Fn)
		printBody(b, n.Args)
		b.WriteByte(')')
	case *If:
		b.WriteString("(if ")
		printNode(b, n.Cond)
		b.WriteByte(' ')
		printNode(b, n.Then)
		if n.Else != nil {
			b.WriteByte(' ')
			printNode(b, n.Else)
		}
		b.WriteByte(')')
	case *Let:
		switch n.Kind {
		case LetSeq:
			b.WriteString("(let* (")
		case LetRec:
			b.WriteString("(letrec (")
		default:
			b.WriteString("(let (")
		}
		for i, bd := range n.Bindings {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteByte('(')
			if bd.Mutable {
				b.WriteString("mutable ")
			}
			b.WriteString(bd.Name)
			if bd.Type != nil {
				b.WriteByte(' ')
				printNode(b, bd.Type)
			}
			b.WriteByte(' ')
			printNode(b, bd.Init)
			b.WriteByte(')')
		}
		b.WriteByte(')')
		printBody(b, n.Body)
		b.WriteByte(')')
	case *Lambda:
		b.WriteString("(lambda ")
		printParams(b, n.Params)
		if n.RetType != nil {
			b.WriteByte(' ')
			printNode(b, n.RetType)
		}
		printBody(b, n.Body)
		b.WriteByte(')')
	case *Begin:
		b.WriteString("(begin")
		printBody(b, n.Body)
		b.WriteByte(')')
	case *Set:
		fmt.Fprintf(b, "(set! %s ", n.Name)
		printNode(b, n.Value)
		b.WriteByte(')')
	case *While:
		b.WriteString("(while ")
		printNode(b, n.Cond)
		for _, inv := range n.Invariants {
			b.WriteString(" :invariant ")
			printNode(b, inv)
		}
		printBody(b, n.Body)
		b.WriteByte(')')
	case *DoTimes:
		fmt.Fprintf(b, "(dotimes (%s ", n.Var)
		printNode(b, n.Count)
		b.WriteByte(')')
		printBody(b, n.Body)
		b.WriteByte(')')
	case *MakeStruct:
		fmt.Fprintf(b, "(make %s", n.Name)
		for _, f := range n.Fields {
			fmt.Fprintf(b, " :%s ", f.Name)
			printNode(b, f.Value)
		}
		b.WriteByte(')')
	case *FieldRef:
		b.WriteString("(field ")
		printNode(b, n.Expr)
		fmt.Fprintf(b, " %s)", n.Name)
	case *FieldSet:
		b.WriteString("(set-field! ")
		printNode(b, n.Expr)
		fmt.Fprintf(b, " %s ", n.Name)
		printNode(b, n.Value)
		b.WriteByte(')')
	case *MakeUnion:
		fmt.Fprintf(b, "(%s", n.Ctor)
		printBody(b, n.Args)
		b.WriteByte(')')
	case *Case:
		b.WriteString("(case ")
		printNode(b, n.Scrut)
		for _, c := range n.Clauses {
			b.WriteString(" (")
			printNode(b, c.Pattern)
			printBody(b, c.Body)
			b.WriteByte(')')
		}
		b.WriteByte(')')
	case *PatWildcard:
		b.WriteByte('_')
	case *PatVar:
		b.WriteString(n.Name)
	case *PatLit:
		printNode(b, n.Lit)
	case *PatCtor:
		fmt.Fprintf(b, "(%s", n.Ctor)
		for _, a := range n.Args {
			b.WriteByte(' ')
			printNode(b, a)
		}
		b.WriteByte(')')
	case *Assert:
		b.WriteString("(assert ")
		printNode(b, n.Cond)
		b.WriteByte(')')
	case *Cast:
		b.WriteString("(cast ")
		printNode(b, n.Type)
		b.WriteByte(' ')
		printNode(b, n.Expr)
		b.WriteByte(')')
	case *WithRegion:
		fmt.Fprintf(b, "(with-region %s", n.Name)
		printBody(b, n.Body)
		b.WriteByte(')')
	case *AllocIn:
		fmt.Fprintf(b, "(alloc-in %s ", n.Region)
		printNode(b, n.Expr)
		b.WriteByte(')')
	case *Atomic:
		b.WriteString("(atomic")
		printBody(b, n.Body)
		b.WriteByte(')')
	case *Spawn:
		b.WriteString("(spawn ")
		printNode(b, n.Expr)
		b.WriteByte(')')
	case *WithLock:
		fmt.Fprintf(b, "(with-lock %s", n.Lock)
		printBody(b, n.Body)
		b.WriteByte(')')
	default:
		fmt.Fprintf(b, "#<unknown %T>", n)
	}
}
