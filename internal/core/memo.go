package core

import (
	"fmt"
	"sort"
	"sync"

	"bitc/internal/ast"
	"bitc/internal/parser"
	"bitc/internal/source"
	"bitc/internal/types"
)

// frontMemo is LoadAnalysis's memory of the last program it loaded, so
// that loading an edit of it redoes only the definitions the edit touched.
// It holds one entry. The AST and Info it keeps are never changed after
// their load, so every Program handed out shares them safely.
type frontMemo struct {
	mu   sync.Mutex
	name string
	text string
	prog *ast.Program
	info *types.Info
	env  *types.Env // the environment info's function bodies were checked in
	// live counts the expressions prog holds. prog.ExprCount also counts
	// the numbers of expressions that edits have since replaced.
	live int32

	counts memoCounts
}

// memoCounts is the work the memo has done: forms parsed by range parses,
// function bodies re-checked, full type checks of a spliced program, and
// cold loads (a whole parse and check).
type memoCounts struct {
	forms, bodies, coldChecks, coldLoads int
}

var memo frontMemo

// load returns the parsed and checked program for text, from the memo
// where it can, and leaves the memo holding it if it loaded without error.
func (m *frontMemo) load(name, text string) (*ast.Program, *types.Info, error) {
	if m.prog == nil || name != m.name {
		return m.cold(name, text)
	}
	if text == m.text {
		return m.prog, m.info, nil
	}
	sp, ok := m.splice(text)
	if !ok {
		return m.cold(name, text)
	}
	if m.env.Closed() && sp.sameHeaders {
		info, diags := m.env.Recheck(sp.prog, m.info, sp.gone, sp.edited)
		if diags.Len() == 0 {
			m.counts.bodies += len(sp.edited)
			m.set(name, text, sp.prog, info, m.env, sp.live)
			return sp.prog, info, nil
		}
	}
	m.counts.coldChecks++
	info, env, diags := types.CheckEnv(sp.prog)
	if err := diags.ErrOrNil(); err != nil {
		return nil, nil, fmt.Errorf("typecheck: %w", err)
	}
	m.set(name, text, sp.prog, info, env, sp.live)
	return sp.prog, info, nil
}

// cold parses and checks text from scratch.
func (m *frontMemo) cold(name, text string) (*ast.Program, *types.Info, error) {
	m.counts.coldLoads++
	prog, diags := parser.Parse(name, text)
	if err := diags.ErrOrNil(); err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	info, env, cdiags := types.CheckEnv(prog)
	if err := cdiags.ErrOrNil(); err != nil {
		return nil, nil, fmt.Errorf("typecheck: %w", err)
	}
	m.set(name, text, prog, info, env, prog.ExprCount)
	return prog, info, nil
}

func (m *frontMemo) set(name, text string, prog *ast.Program, info *types.Info, env *types.Env, live int32) {
	m.name, m.text, m.prog, m.info, m.env, m.live = name, text, prog, info, env, live
}

// spliced is the memo's program with an edit parsed into it.
type spliced struct {
	prog *ast.Program
	gone []ast.Def // the memo's definitions the edit replaced
	// edited holds the indices in prog.Defs of the re-parsed definitions,
	// and sameHeaders whether each is a function with the header of the
	// definition it replaced, at the same index.
	edited      []int
	sameHeaders bool
	live        int32
}

// splice parses text as an edit of the memo's text. The two texts share a
// prefix and a suffix. An old definition that ends inside the prefix is
// reused as it is; one that starts inside the suffix is reused as it is if
// the edit kept the text's length, and otherwise copied with every span
// moved by the change in length. Only the bytes between them are parsed,
// as whole forms, with new expressions numbered above the old ones. The
// comment directives are re-scanned over the whole text. splice fails,
// leaving the work to a cold load, if the range parse reports anything
// (an error in it, or bytes that are not a run of whole forms), or if the
// numbering has grown past twice the expressions the program holds.
func (m *frontMemo) splice(text string) (*spliced, bool) {
	old, defs := m.text, m.prog.Defs
	p := commonPrefix(old, text)
	s := commonSuffix(old[p:], text[p:])
	// defs[:i] end inside the prefix; defs[j:] start inside the suffix.
	i := sort.Search(len(defs), func(k int) bool { return int(defs[k].Span().End) > p })
	j := sort.Search(len(defs), func(k int) bool { return int(defs[k].Span().Start) >= len(old)-s })
	delta := len(text) - len(old)
	from, oldTo := 0, len(old)
	if i > 0 {
		from = int(defs[i-1].Span().End)
	}
	if j < len(defs) {
		oldTo = int(defs[j].Span().Start)
	}
	file := source.NewFile(m.name, text)
	part, diags := parser.ParseRange(file, from, oldTo+delta, m.prog.ExprCount+1)
	m.counts.forms += len(part.Defs)
	if diags.Len() > 0 {
		return nil, false
	}
	sp := &spliced{gone: defs[i:j], live: m.live + part.ExprCount - m.prog.ExprCount}
	for _, d := range sp.gone {
		ast.EachExpr(d, func(ast.Expr) { sp.live-- })
	}
	if part.ExprCount > 2*sp.live {
		return nil, false
	}

	prog := &ast.Program{File: file, ExprCount: part.ExprCount}
	prog.Defs = make([]ast.Def, 0, i+len(part.Defs)+len(defs)-j)
	prog.Defs = append(prog.Defs, defs[:i]...)
	sp.sameHeaders = len(part.Defs) == j-i
	for k, d := range part.Defs {
		sp.edited = append(sp.edited, len(prog.Defs))
		prog.Defs = append(prog.Defs, d)
		if sp.sameHeaders {
			nf, ok1 := d.(*ast.DefineFunc)
			of, ok2 := defs[i+k].(*ast.DefineFunc)
			sp.sameHeaders = ok1 && ok2 && ast.SameHeader(of, nf)
		}
	}
	for _, d := range defs[j:] {
		if delta != 0 {
			d = ast.ShiftDef(d, source.Pos(delta))
		}
		prog.Defs = append(prog.Defs, d)
	}

	// Form suppressions come in definition order, then comment directives.
	var tail []ast.Suppression
	for _, su := range m.prog.Suppressions {
		switch {
		case su.Line != 0:
		case int(su.Span.End) <= from:
			prog.Suppressions = append(prog.Suppressions, su)
		case int(su.Span.Start) >= oldTo:
			su.Span.Start += source.Pos(delta)
			su.Span.End += source.Pos(delta)
			tail = append(tail, su)
		}
	}
	prog.Suppressions = append(prog.Suppressions, part.Suppressions...)
	prog.Suppressions = append(prog.Suppressions, tail...)
	prog.Suppressions = append(prog.Suppressions, parser.CommentSuppressions(file)...)
	sp.prog = prog
	return sp, true
}

// commonPrefix returns the length of the longest common prefix of a and b.
// It compares 64-byte blocks first, which the runtime does many bytes at a
// time.
func commonPrefix(a, b string) int {
	n, p := min(len(a), len(b)), 0
	for p+64 <= n && a[p:p+64] == b[p:p+64] {
		p += 64
	}
	for p < n && a[p] == b[p] {
		p++
	}
	return p
}

// commonSuffix returns the length of the longest common suffix of a and b.
func commonSuffix(a, b string) int {
	n, s := min(len(a), len(b)), 0
	for s+64 <= n && a[len(a)-s-64:len(a)-s] == b[len(b)-s-64:len(b)-s] {
		s += 64
	}
	for s < n && a[len(a)-1-s] == b[len(b)-1-s] {
		s++
	}
	return s
}
