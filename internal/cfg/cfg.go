// Package cfg builds basic-block control-flow graphs from the typed AST.
//
// A Graph linearises one function body into blocks of Atoms — variable
// declarations, reads, writes, lock operations, calls — in evaluation order,
// splitting blocks at every control construct (`if`, `case`, `while`,
// `dotimes`, and the short-circuit `and`/`or` forms, which are expanded into
// explicit branches). Locals are identified by the binding number the
// type checker resolved each use to (types.Symbol.Bind), so shadowed
// bindings are distinct without any renaming: atoms carry the number, and
// Graph.Decls is indexed by it.
//
// The graph is the substrate for internal/dataflow's worklist solver and for
// the flow-sensitive checkers in internal/analysis; it stays deliberately
// close to the AST (atoms carry their originating nodes) so findings can be
// reported with precise spans.
package cfg

import (
	"fmt"
	"strings"

	"bitc/internal/ast"
	"bitc/internal/types"
)

// Op classifies what an Atom does.
type Op uint8

// Atom operations.
const (
	// OpEval marks an expression evaluated for value or effect; children
	// were already emitted, so consumers inspect the node shallowly.
	OpEval Op = iota
	// OpUse is a read of a local variable.
	OpUse
	// OpDef is a write of a local via set!; the RHS atoms precede it.
	OpDef
	// OpDecl introduces a local (let binding, parameter, dotimes variable,
	// or case-pattern binding); the initialiser's atoms precede it.
	OpDecl
	// OpLockAcq and OpLockRel bracket a with-lock body.
	OpLockAcq
	OpLockRel
	// OpCall is a call to a named top-level function.
	OpCall
	// OpSpawn starts a new thread running Expr's deferred atoms.
	OpSpawn
	// OpRegionEnter and OpRegionExit bracket a with-region body; Var is
	// the region's binding number.
	OpRegionEnter
	OpRegionExit
	// OpAtomicBegin and OpAtomicEnd bracket an atomic (STM transaction)
	// body: everything between them executes transactionally and may be
	// rolled back and re-run when the commit at OpAtomicEnd fails.
	OpAtomicBegin
	OpAtomicEnd
)

// String names the atom kind for diagnostics and CFG dumps.
func (o Op) String() string {
	switch o {
	case OpEval:
		return "eval"
	case OpUse:
		return "use"
	case OpDef:
		return "def"
	case OpDecl:
		return "decl"
	case OpLockAcq:
		return "lock+"
	case OpLockRel:
		return "lock-"
	case OpCall:
		return "call"
	case OpSpawn:
		return "spawn"
	case OpRegionEnter:
		return "region+"
	case OpRegionExit:
		return "region-"
	case OpAtomicBegin:
		return "atomic+"
	case OpAtomicEnd:
		return "atomic-"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// DeclKind says where a local was introduced.
type DeclKind uint8

// Declaration kinds.
const (
	DeclLet DeclKind = iota
	DeclParam
	DeclLoop    // dotimes induction variable
	DeclPattern // case-clause pattern binding
	DeclRegion  // with-region name (never a local: no atom reads or writes it)
)

// Decl describes one binder of the function the graph tracks: a parameter,
// let binding, dotimes variable or case-pattern variable (a local), or a
// with-region name. Lambda parameters are not tracked.
type Decl struct {
	Bind int32  // binding number: the Decl's index in Graph.Decls
	Src  string // source-level name
	// Name is Src, with "#k" appended when k binders of the same name and
	// class (local or region) come into scope before it in the function:
	// the text messages and dumps print.
	Name    string
	Kind    DeclKind
	Mutable bool
	Binding *ast.Binding // non-nil for DeclLet
	Node    ast.Node     // the declaring node (Binding, Param, DoTimes, PatVar, WithRegion)
	// Parent is, for a DeclRegion, the binding number of the region
	// lexically enclosing it (0 for an outermost region).
	Parent int32
}

// Atom is one event in a block, in evaluation order.
type Atom struct {
	Op   Op
	Expr ast.Expr // originating expression (nil for parameter decls)
	Decl *Decl    // declaration record for OpDecl
	// Var is the binding number of the local a Use, Def or Decl names,
	// or of the region a RegionEnter or RegionExit names.
	Var  int32
	Name string // lock name (LockAcq/LockRel) or callee (Call)
	// Deferred marks an atom emitted from inside a lambda or spawn body:
	// the code runs later (possibly repeatedly), so it is attributed to the
	// point where the closure is built.
	Deferred bool
	// WriteRef marks a Deferred use that is actually a set! target — it
	// keeps the variable captured/live but is not a read.
	WriteRef bool
	// SelfUpdate marks a read of x inside the RHS of (set! x ...): the
	// deliberate read-modify-write idiom.
	SelfUpdate bool
}

// Block is a basic block: straight-line atoms plus a terminator.
type Block struct {
	Index int
	Atoms []Atom
	// Cond is the branch condition: when non-nil the block has exactly two
	// successors, Succs[0] on true and Succs[1] on false. A nil Cond with
	// multiple successors is a multi-way dispatch (case, dotimes header).
	Cond  ast.Expr
	Succs []*Block
	Preds []*Block
	// Loop tags a loop-header block with its While or DoTimes node.
	Loop ast.Expr
}

// Graph is the CFG of one function.
type Graph struct {
	Fn     *ast.DefineFunc
	Blocks []*Block // Blocks[0] is the entry
	Entry  *Block
	Exit   *Block
	// Decls holds the tracked binders indexed by binding number. An entry
	// is nil where the number names nothing the graph tracks: a lambda
	// parameter, a binder in a contract.
	Decls []*Decl

	info *types.Info
	rpo  []*Block
}

// Build constructs the CFG for fn, whose uses info resolves. Construction
// is deterministic: block indices and atom order depend only on the AST.
func Build(fn *ast.DefineFunc, info *types.Info) *Graph {
	g, _ := build(fn, info)
	return g
}

// build is Build plus its work counter (see builder.work).
func build(fn *ast.DefineFunc, info *types.Info) (*Graph, int) {
	g := &Graph{Fn: fn, info: info}
	b := &builder{g: g}
	b.cur = b.newBlock()
	g.Entry = b.cur
	for _, p := range fn.Params {
		b.decl(b.declare(p.Bind, p.Name, DeclParam, false, nil, p), nil)
	}
	for _, e := range fn.Body {
		b.expr(e)
	}
	g.Exit = b.cur
	nameDecls(g.Decls)
	// Built here, not lazily on first use: the analysis driver's workers
	// share one graph per function read-only.
	g.rpo = reversePostorder(g)
	return g, b.work
}

// Var returns the binding number of the tracked local v reads, or 0 when
// v names anything else (a global, a function, a builtin, a lambda
// parameter).
func (g *Graph) Var(v *ast.VarRef) int32 { return g.tracked(g.info.Bind(v)) }

// Target returns the binding number of the tracked local s assigns, or 0.
func (g *Graph) Target(s *ast.Set) int32 { return g.tracked(g.info.Target(s)) }

// tracked returns n when it is the binding number of a local the graph
// tracks, and 0 otherwise.
func (g *Graph) tracked(n int32) int32 {
	if n > 0 && int(n) < len(g.Decls) && g.Decls[n] != nil && g.Decls[n].Kind != DeclRegion {
		return n
	}
	return 0
}

// Name renders binder n for messages and dumps (Decl.Name).
func (g *Graph) Name(n int32) string {
	return g.Decls[n].Name
}

// nameDecls sets every declaration's Name. Binding numbers follow the
// order binders come into scope, so one pass in index order counts the
// earlier binders of each name and class.
func nameDecls(decls []*Decl) {
	type class struct {
		src    string
		region bool
	}
	seen := make(map[class]int, len(decls))
	for _, d := range decls {
		if d == nil {
			continue
		}
		c := class{d.Src, d.Kind == DeclRegion}
		d.Name = d.Src
		if k := seen[c]; k > 0 {
			d.Name = fmt.Sprintf("%s#%d", d.Src, k)
		}
		seen[c]++
	}
}

// RPO returns the blocks in reverse postorder. Every block is reachable from
// the entry, so RPO covers the whole graph.
func (g *Graph) RPO() []*Block { return g.rpo }

func reversePostorder(g *Graph) []*Block {
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	out := make([]*Block, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		out = append(out, post[i])
	}
	return out
}

// LoopBlocks returns the natural loop of a header block: the header plus
// every block that can reach one of the header's back edges without passing
// through the header. Back edges are the predecessors the builder created
// from the loop body (any pred reachable from the header itself).
func (g *Graph) LoopBlocks(head *Block) []*Block {
	inLoop := map[*Block]bool{head: true}
	reach := g.reachableFrom(head)
	var stack []*Block
	for _, p := range head.Preds {
		if reach[p] { // back edge: body block returning to the header
			if !inLoop[p] {
				inLoop[p] = true
				stack = append(stack, p)
			}
		}
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range b.Preds {
			if !inLoop[p] {
				inLoop[p] = true
				stack = append(stack, p)
			}
		}
	}
	out := make([]*Block, 0, len(inLoop))
	for _, b := range g.Blocks {
		if inLoop[b] {
			out = append(out, b)
		}
	}
	return out
}

func (g *Graph) reachableFrom(b *Block) map[*Block]bool {
	seen := map[*Block]bool{}
	stack := []*Block{b}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range n.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// String renders the graph for tests and debugging.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "b%d:", b.Index)
		for _, a := range b.Atoms {
			if a.Var != 0 {
				fmt.Fprintf(&sb, " %s(%s)", a.Op, g.Name(a.Var))
			} else if a.Name != "" {
				fmt.Fprintf(&sb, " %s(%s)", a.Op, a.Name)
			} else {
				fmt.Fprintf(&sb, " %s", a.Op)
			}
		}
		sb.WriteString(" ->")
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " b%d", s.Index)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

type builder struct {
	g   *Graph
	cur *Block

	// deferDepth > 0 while linearising lambda/spawn bodies: references are
	// emitted as Deferred atoms and no blocks are split.
	deferDepth int
	// selfTarget is the local being assigned while walking a set! RHS, for
	// the SelfUpdate exemption (0 when not in a set! RHS).
	selfTarget int32
	// region is the innermost open with-region (0 outside every region).
	region int32
	// work counts blocks made, atoms emitted, Decls entries grown and names
	// resolved; the linear-cost test reads it.
	work int
}

func (b *builder) newBlock() *Block {
	b.work++
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) link(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *builder) emit(a Atom) {
	b.work++
	if b.deferDepth > 0 {
		a.Deferred = true
	}
	b.cur.Atoms = append(b.cur.Atoms, a)
}

// declare records binder n. A use of it is tracked from then on, so a
// binder is declared where it comes into scope.
func (b *builder) declare(n int32, src string, kind DeclKind, mutable bool, bind *ast.Binding, node ast.Node) *Decl {
	for int(n) >= len(b.g.Decls) {
		b.work++
		b.g.Decls = append(b.g.Decls, nil)
	}
	d := &Decl{Bind: n, Src: src, Kind: kind, Mutable: mutable, Binding: bind, Node: node}
	b.g.Decls[n] = d
	return d
}

// decl emits the OpDecl atom of local d; expr is its originating expression.
func (b *builder) decl(d *Decl, expr ast.Expr) {
	b.emit(Atom{Op: OpDecl, Expr: expr, Decl: d, Var: d.Bind})
}

// expr linearises e into the current block chain.
func (b *builder) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.VarRef:
		b.work++
		if n := b.g.Var(e); n != 0 {
			b.emit(Atom{
				Op: OpUse, Expr: e, Var: n,
				Deferred:   b.deferDepth > 0,
				SelfUpdate: n == b.selfTarget,
			})
		} else {
			b.emit(Atom{Op: OpEval, Expr: e})
		}

	case *ast.Set:
		b.work++
		n := b.g.Target(e)
		if b.deferDepth > 0 {
			b.expr(e.Value)
			if n != 0 {
				b.emit(Atom{Op: OpUse, Expr: e, Var: n, Deferred: true, WriteRef: true})
			}
			return
		}
		saved := b.selfTarget
		b.selfTarget = n
		b.expr(e.Value)
		b.selfTarget = saved
		if n != 0 {
			b.emit(Atom{Op: OpDef, Expr: e, Var: n})
		} else {
			b.emit(Atom{Op: OpEval, Expr: e})
		}

	case *ast.Let:
		b.letExpr(e)

	case *ast.If:
		b.expr(e.Cond)
		b.branch(e.Cond, func() { b.expr(e.Then) }, func() {
			if e.Else != nil {
				b.expr(e.Else)
			}
		})

	case *ast.While:
		b.loop(e, func() {
			for _, inv := range e.Invariants {
				b.expr(inv)
			}
			b.expr(e.Cond)
		}, e.Cond, func() {
			for _, s := range e.Body {
				b.expr(s)
			}
		})

	case *ast.DoTimes:
		b.expr(e.Count)
		b.decl(b.declare(e.Bind, e.Var, DeclLoop, false, nil, e), e)
		b.loop(e, nil, nil, func() {
			for _, s := range e.Body {
				b.expr(s)
			}
		})

	case *ast.Case:
		b.expr(e.Scrut)
		if b.deferDepth > 0 || len(e.Clauses) == 0 {
			for _, c := range e.Clauses {
				b.clause(c)
			}
			b.emit(Atom{Op: OpEval, Expr: e})
			return
		}
		head := b.cur
		join := b.newBlock()
		for _, c := range e.Clauses {
			arm := b.newBlock()
			b.link(head, arm)
			b.cur = arm
			b.clause(c)
			b.link(b.cur, join)
		}
		b.cur = join
		b.emit(Atom{Op: OpEval, Expr: e})

	case *ast.Begin:
		for _, s := range e.Body {
			b.expr(s)
		}

	case *ast.Call:
		b.callExpr(e)

	case *ast.Lambda:
		b.deferred(e.Body)
		b.emit(Atom{Op: OpEval, Expr: e})

	case *ast.Spawn:
		b.deferred([]ast.Expr{e.Expr})
		b.emit(Atom{Op: OpSpawn, Expr: e})

	case *ast.WithLock:
		b.emit(Atom{Op: OpLockAcq, Expr: e, Name: e.Lock})
		for _, s := range e.Body {
			b.expr(s)
		}
		b.emit(Atom{Op: OpLockRel, Expr: e, Name: e.Lock})

	case *ast.Atomic:
		b.emit(Atom{Op: OpAtomicBegin, Expr: e})
		for _, s := range e.Body {
			b.expr(s)
		}
		b.emit(Atom{Op: OpAtomicEnd, Expr: e})
		b.emit(Atom{Op: OpEval, Expr: e})

	case *ast.WithRegion:
		b.declare(e.Bind, e.Name, DeclRegion, false, nil, e).Parent = b.region
		saved := b.region
		b.region = e.Bind
		b.emit(Atom{Op: OpRegionEnter, Expr: e, Var: e.Bind})
		for _, s := range e.Body {
			b.expr(s)
		}
		b.emit(Atom{Op: OpRegionExit, Expr: e, Var: e.Bind})
		b.region = saved
		b.emit(Atom{Op: OpEval, Expr: e})

	case *ast.AllocIn:
		b.expr(e.Expr)
		b.emit(Atom{Op: OpEval, Expr: e})

	case *ast.Assert:
		b.expr(e.Cond)
		b.emit(Atom{Op: OpEval, Expr: e})

	case *ast.Cast:
		b.expr(e.Expr)
		b.emit(Atom{Op: OpEval, Expr: e})

	case *ast.FieldRef:
		b.expr(e.Expr)
		b.emit(Atom{Op: OpEval, Expr: e})

	case *ast.FieldSet:
		b.expr(e.Expr)
		b.expr(e.Value)
		b.emit(Atom{Op: OpEval, Expr: e})

	case *ast.MakeStruct:
		for _, f := range e.Fields {
			b.expr(f.Value)
		}
		b.emit(Atom{Op: OpEval, Expr: e})

	case *ast.MakeUnion:
		for _, a := range e.Args {
			b.expr(a)
		}
		b.emit(Atom{Op: OpEval, Expr: e})

	default:
		// Literals and anything without children.
		b.emit(Atom{Op: OpEval, Expr: e})
	}
}

func (b *builder) letExpr(e *ast.Let) {
	switch e.Kind {
	case ast.LetRec:
		// letrec: all bindings are in scope for every initialiser.
		decls := make([]*Decl, len(e.Bindings))
		for i, bind := range e.Bindings {
			decls[i] = b.declare(bind.Bind, bind.Name, DeclLet, bind.Mutable, bind, bind)
		}
		for i, bind := range e.Bindings {
			b.expr(bind.Init)
			b.decl(decls[i], bind.Init)
		}
	case ast.LetSeq:
		for _, bind := range e.Bindings {
			b.expr(bind.Init)
			b.decl(b.declare(bind.Bind, bind.Name, DeclLet, bind.Mutable, bind, bind), bind.Init)
		}
	default: // LetPlain: initialisers see only the enclosing scope
		for _, bind := range e.Bindings {
			b.expr(bind.Init)
		}
		for _, bind := range e.Bindings {
			b.decl(b.declare(bind.Bind, bind.Name, DeclLet, bind.Mutable, bind, bind), bind.Init)
		}
	}
	for _, s := range e.Body {
		b.expr(s)
	}
}

func (b *builder) clause(c *ast.CaseClause) {
	b.declarePattern(c.Pattern)
	for _, s := range c.Body {
		b.expr(s)
	}
}

func (b *builder) declarePattern(p ast.Pattern) {
	switch p := p.(type) {
	case *ast.PatVar:
		b.decl(b.declare(p.Bind, p.Name, DeclPattern, false, nil, p), nil)
	case *ast.PatCtor:
		for _, a := range p.Args {
			b.declarePattern(a)
		}
	}
}

// callExpr emits a call, expanding the short-circuit and/or builtins into
// explicit branches so downstream dataflow sees their control structure.
func (b *builder) callExpr(e *ast.Call) {
	var callee string
	if v, ok := e.Fn.(*ast.VarRef); ok {
		b.work++
		if b.deferDepth == 0 {
			switch b.g.info.Builtin(v) {
			case "and":
				b.shortCircuit(e, e.Args, true)
				return
			case "or":
				b.shortCircuit(e, e.Args, false)
				return
			}
		}
		if b.g.info.Bind(v) == 0 {
			// A head no local binds: a top-level function or builtin.
			// Consumers filter by the program's actual function names.
			callee = v.Name
		}
	}
	b.expr(e.Fn)
	for _, a := range e.Args {
		b.expr(a)
	}
	if callee != "" {
		b.emit(Atom{Op: OpCall, Expr: e, Name: callee, Deferred: b.deferDepth > 0})
	} else {
		b.emit(Atom{Op: OpEval, Expr: e})
	}
}

// shortCircuit expands (and a b c) / (or a b c): each argument after the
// first is evaluated only on the true (and) or false (or) edge of the
// previous one.
func (b *builder) shortCircuit(e *ast.Call, args []ast.Expr, isAnd bool) {
	if len(args) == 0 {
		b.emit(Atom{Op: OpEval, Expr: e})
		return
	}
	b.expr(args[0])
	for _, rest := range args[1:] {
		cond := b.cur
		cond.Cond = condOf(cond, args, rest)
		next := b.newBlock()
		join := b.newBlock()
		if isAnd {
			b.link(cond, next) // true: keep evaluating
			b.link(cond, join) // false: result is #f
		} else {
			b.link(cond, join) // true: result is #t
			b.link(cond, next) // false: keep evaluating
		}
		b.cur = next
		b.expr(rest)
		b.link(b.cur, join)
		b.cur = join
	}
	b.emit(Atom{Op: OpEval, Expr: e})
}

// condOf picks the branch condition for a short-circuit step: the argument
// evaluated just before rest.
func condOf(_ *Block, args []ast.Expr, rest ast.Expr) ast.Expr {
	for i, a := range args {
		if a == rest && i > 0 {
			return args[i-1]
		}
	}
	return nil
}

// branch splits the current block on cond: thenFn and elseFn build the two
// arms, which rejoin in a fresh block.
func (b *builder) branch(cond ast.Expr, thenFn, elseFn func()) {
	if b.deferDepth > 0 {
		// Deferred code is not block-structured; flatten both arms.
		thenFn()
		elseFn()
		return
	}
	head := b.cur
	head.Cond = cond
	thenB := b.newBlock()
	elseB := b.newBlock()
	join := b.newBlock()
	b.link(head, thenB)
	b.link(head, elseB)
	b.cur = thenB
	thenFn()
	b.link(b.cur, join)
	b.cur = elseB
	elseFn()
	b.link(b.cur, join)
	b.cur = join
}

// loop builds head/body/after blocks: headFn emits the per-iteration header
// atoms (condition, invariants), cond is the header's branch condition (nil
// for dotimes' implicit counter test), bodyFn emits the body.
func (b *builder) loop(node ast.Expr, headFn func(), cond ast.Expr, bodyFn func()) {
	if b.deferDepth > 0 {
		if headFn != nil {
			headFn()
		}
		bodyFn()
		return
	}
	head := b.newBlock()
	head.Loop = node
	b.link(b.cur, head)
	b.cur = head
	if headFn != nil {
		headFn()
	}
	// headFn may have split blocks (short-circuit conditions); the branch
	// happens at the block that holds the final condition value.
	branchBlk := b.cur
	branchBlk.Cond = cond
	body := b.newBlock()
	after := b.newBlock()
	b.link(branchBlk, body) // true / iterate
	b.link(branchBlk, after)
	b.cur = body
	bodyFn()
	b.link(b.cur, head) // back edge
	b.cur = after
}

// deferred linearises lambda/spawn bodies: every reference to an enclosing
// local becomes a Deferred atom attributed to the closure-creation point,
// and no control-flow blocks are created.
func (b *builder) deferred(body []ast.Expr) {
	b.deferDepth++
	for _, e := range body {
		b.expr(e)
	}
	b.deferDepth--
}
