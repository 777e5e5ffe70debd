// Package cfg builds basic-block control-flow graphs from the typed AST.
//
// A Graph linearises one function body into blocks of Atoms — variable
// declarations, reads, writes, lock operations, calls — in evaluation order,
// splitting blocks at every control construct (`if`, `case`, `while`,
// `dotimes`, and the short-circuit `and`/`or` forms, which are expanded into
// explicit branches). Locals are alpha-renamed during construction, so
// shadowed bindings get distinct names and downstream dataflow can key facts
// on plain strings.
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
	// OpRegionEnter and OpRegionExit bracket a with-region body; Name is
	// the unique (alpha-renamed) region name.
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
)

// Decl describes one alpha-renamed local.
type Decl struct {
	Name    string // unique name (src, or src#N under shadowing)
	Src     string // source-level name
	Kind    DeclKind
	Mutable bool
	Binding *ast.Binding // non-nil for DeclLet
	Node    ast.Node     // the declaring node (Binding, Param, DoTimes, PatVar)
}

// Atom is one event in a block, in evaluation order.
type Atom struct {
	Op   Op
	Expr ast.Expr // originating expression (nil for parameter decls)
	Decl *Decl    // declaration record for OpDecl
	Name string   // unique local name (Use/Def/Decl), lock name, or callee
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
	// Decls maps unique names to their declaration records.
	Decls map[string]*Decl
	// Rename maps every resolved VarRef to the unique name of the local it
	// denotes (globals and functions are absent).
	Rename map[*ast.VarRef]string
	// RegionName maps each with-region form to the unique name of the
	// region it opens (regions are alpha-renamed like locals).
	RegionName map[*ast.WithRegion]string
	// RegionRename maps each alloc-in to the unique name of the region it
	// allocates into.
	RegionRename map[*ast.AllocIn]string
	// RegionParent maps a unique region name to the unique name of the
	// region lexically enclosing it ("" for outermost regions).
	RegionParent map[string]string

	rpo []*Block
}

// Build constructs the CFG for fn. Construction is deterministic: block
// indices, atom order, and unique names depend only on the AST.
func Build(fn *ast.DefineFunc) *Graph {
	g := &Graph{
		Fn:           fn,
		Decls:        map[string]*Decl{},
		Rename:       map[*ast.VarRef]string{},
		RegionName:   map[*ast.WithRegion]string{},
		RegionRename: map[*ast.AllocIn]string{},
		RegionParent: map[string]string{},
	}
	b := &builder{g: g, counts: map[string]int{}}
	b.cur = b.newBlock()
	g.Entry = b.cur
	b.pushScope()
	for _, p := range fn.Params {
		d := b.declare(p.Name, DeclParam, false, nil, p)
		b.emit(Atom{Op: OpDecl, Decl: d, Name: d.Name})
	}
	for _, e := range fn.Body {
		b.expr(e)
	}
	b.popScope()
	g.Exit = b.cur
	// Built here, not lazily on first use: the analysis driver's workers
	// share one graph per function read-only.
	g.rpo = reversePostorder(g)
	return g
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
			if a.Name != "" {
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
	g      *Graph
	cur    *Block
	scopes []map[string]string // source name -> unique name
	counts map[string]int      // per-source-name rename counter

	// deferDepth > 0 while linearising lambda/spawn bodies: references are
	// emitted as Deferred atoms and no blocks are split.
	deferDepth int
	// selfTarget is the unique name being assigned while walking a set!
	// RHS, for the SelfUpdate exemption ("" when not in a set! RHS).
	selfTarget string
	// regions is the stack of lexically open with-region scopes.
	regions []regionScope
}

type regionScope struct {
	src    string // source-level region name
	unique string // alpha-renamed name
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) link(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *builder) emit(a Atom) {
	if b.deferDepth > 0 {
		a.Deferred = true
	}
	b.cur.Atoms = append(b.cur.Atoms, a)
}

func (b *builder) pushScope() { b.scopes = append(b.scopes, map[string]string{}) }
func (b *builder) popScope()  { b.scopes = b.scopes[:len(b.scopes)-1] }

func (b *builder) declare(src string, kind DeclKind, mutable bool, bind *ast.Binding, node ast.Node) *Decl {
	unique := src
	if n := b.counts[src]; n > 0 {
		unique = fmt.Sprintf("%s#%d", src, n)
	}
	b.counts[src]++
	d := &Decl{Name: unique, Src: src, Kind: kind, Mutable: mutable, Binding: bind, Node: node}
	b.g.Decls[unique] = d
	b.scopes[len(b.scopes)-1][src] = unique
	return d
}

// shadowMark is the scope entry for lambda parameters: the name is bound
// (so it does not leak to the enclosing scope or to callee detection) but is
// not one of the graph's tracked locals.
const shadowMark = "\x00shadow"

// resolve maps a source name to the unique name of the tracked local it
// denotes, or "" when it is not one (global, function, builtin, or a
// lambda-local).
func (b *builder) resolve(src string) string {
	u, _ := b.lookup(src)
	return u
}

// lookup resolves src through the scope stack; bound reports whether any
// scope binds the name at all (even a lambda parameter).
func (b *builder) lookup(src string) (unique string, bound bool) {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		if u, ok := b.scopes[i][src]; ok {
			if u == shadowMark {
				return "", true
			}
			return u, true
		}
	}
	return "", false
}

// expr linearises e into the current block chain.
func (b *builder) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.VarRef:
		if u := b.resolve(e.Name); u != "" {
			b.g.Rename[e] = u
			b.emit(Atom{
				Op: OpUse, Expr: e, Name: u,
				Deferred:   b.deferDepth > 0,
				SelfUpdate: b.selfTarget != "" && u == b.selfTarget,
			})
		} else {
			b.emit(Atom{Op: OpEval, Expr: e})
		}

	case *ast.Set:
		u := b.resolve(e.Name)
		if b.deferDepth > 0 {
			b.expr(e.Value)
			if u != "" {
				b.emit(Atom{Op: OpUse, Expr: e, Name: u, Deferred: true, WriteRef: true})
			}
			return
		}
		saved := b.selfTarget
		b.selfTarget = u
		b.expr(e.Value)
		b.selfTarget = saved
		if u != "" {
			b.emit(Atom{Op: OpDef, Expr: e, Name: u})
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
		b.pushScope()
		d := b.declare(e.Var, DeclLoop, false, nil, e)
		b.emit(Atom{Op: OpDecl, Expr: e, Decl: d, Name: d.Name})
		b.loop(e, nil, nil, func() {
			for _, s := range e.Body {
				b.expr(s)
			}
		})
		b.popScope()

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
		b.pushScope()
		for _, p := range e.Params {
			b.scopes[len(b.scopes)-1][p.Name] = shadowMark
		}
		b.deferred(e.Body)
		b.popScope()
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
		unique := e.Name
		if n := b.counts["region "+e.Name]; n > 0 {
			unique = fmt.Sprintf("%s#%d", e.Name, n)
		}
		b.counts["region "+e.Name]++
		b.g.RegionName[e] = unique
		if len(b.regions) > 0 {
			b.g.RegionParent[unique] = b.regions[len(b.regions)-1].unique
		}
		b.regions = append(b.regions, regionScope{src: e.Name, unique: unique})
		b.emit(Atom{Op: OpRegionEnter, Expr: e, Name: unique})
		for _, s := range e.Body {
			b.expr(s)
		}
		b.emit(Atom{Op: OpRegionExit, Expr: e, Name: unique})
		b.regions = b.regions[:len(b.regions)-1]
		b.emit(Atom{Op: OpEval, Expr: e})

	case *ast.AllocIn:
		for i := len(b.regions) - 1; i >= 0; i-- {
			if b.regions[i].src == e.Region {
				b.g.RegionRename[e] = b.regions[i].unique
				break
			}
		}
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
	b.pushScope()
	switch e.Kind {
	case ast.LetRec:
		// letrec: all bindings are in scope for every initialiser.
		decls := make([]*Decl, len(e.Bindings))
		for i, bind := range e.Bindings {
			decls[i] = b.declare(bind.Name, DeclLet, bind.Mutable, bind, bind)
		}
		for i, bind := range e.Bindings {
			b.expr(bind.Init)
			b.emit(Atom{Op: OpDecl, Expr: bind.Init, Decl: decls[i], Name: decls[i].Name})
		}
	case ast.LetSeq:
		for _, bind := range e.Bindings {
			b.expr(bind.Init)
			d := b.declare(bind.Name, DeclLet, bind.Mutable, bind, bind)
			b.emit(Atom{Op: OpDecl, Expr: bind.Init, Decl: d, Name: d.Name})
		}
	default: // LetPlain: initialisers see only the enclosing scope
		for _, bind := range e.Bindings {
			b.expr(bind.Init)
		}
		for _, bind := range e.Bindings {
			d := b.declare(bind.Name, DeclLet, bind.Mutable, bind, bind)
			b.emit(Atom{Op: OpDecl, Expr: bind.Init, Decl: d, Name: d.Name})
		}
	}
	for _, s := range e.Body {
		b.expr(s)
	}
	b.popScope()
}

func (b *builder) clause(c *ast.CaseClause) {
	b.pushScope()
	b.declarePattern(c.Pattern)
	for _, s := range c.Body {
		b.expr(s)
	}
	b.popScope()
}

func (b *builder) declarePattern(p ast.Pattern) {
	switch p := p.(type) {
	case *ast.PatVar:
		d := b.declare(p.Name, DeclPattern, false, nil, p)
		b.emit(Atom{Op: OpDecl, Decl: d, Name: d.Name})
	case *ast.PatCtor:
		for _, a := range p.Args {
			b.declarePattern(a)
		}
	}
}

// callExpr emits a call, expanding the short-circuit and/or builtins into
// explicit branches so downstream dataflow sees their control structure.
func (b *builder) callExpr(e *ast.Call) {
	if v, ok := e.Fn.(*ast.VarRef); ok && b.deferDepth == 0 {
		if _, bound := b.lookup(v.Name); !bound {
			switch v.Name {
			case "and":
				b.shortCircuit(e, e.Args, true)
				return
			case "or":
				b.shortCircuit(e, e.Args, false)
				return
			}
		}
	}
	var callee string
	if v, ok := e.Fn.(*ast.VarRef); ok {
		if _, bound := b.lookup(v.Name); !bound {
			// Unbound head: a top-level function or builtin. Consumers
			// filter by the program's actual function names.
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
