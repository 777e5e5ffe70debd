// Package ast defines the abstract syntax tree for bitc programs.
//
// The tree is deliberately close to the surface S-expression syntax: every
// node carries its source span, and type expressions are kept as a small
// separate tree that the types package resolves during checking.
package ast

import (
	"bitc/internal/source"
)

// Node is the interface shared by every AST node.
type Node interface {
	Span() source.Span
}

// ---------------------------------------------------------------------------
// Type expressions (surface-level; resolved by internal/types)
// ---------------------------------------------------------------------------

// TypeExpr is a parsed, unresolved type annotation.
type TypeExpr interface {
	Node
	typeExpr()
}

// TypeName is a named type: int32, bool, string, or a user-defined
// struct/union name, or a type variable written 'a.
type TypeName struct {
	SpanV source.Span
	Name  string
	Var   bool // true for 'a-style type variables
}

// TypeApp is a type constructor application: (vector int32), (chan msg),
// (array int32 16) — for array the length is carried in Size.
type TypeApp struct {
	SpanV source.Span
	Ctor  string
	Args  []TypeExpr
	Size  int // array length; meaningful only when Ctor == "array"
}

// TypeFn is a function type: (-> (int32 int32) bool).
type TypeFn struct {
	SpanV  source.Span
	Params []TypeExpr
	Result TypeExpr
}

// TypeBitfield is a bit-sized integer field type: (bitfield uint32 12).
type TypeBitfield struct {
	SpanV source.Span
	Base  TypeExpr
	Bits  int
}

func (t *TypeName) Span() source.Span     { return t.SpanV }
func (t *TypeApp) Span() source.Span      { return t.SpanV }
func (t *TypeFn) Span() source.Span       { return t.SpanV }
func (t *TypeBitfield) Span() source.Span { return t.SpanV }

func (*TypeName) typeExpr()     {}
func (*TypeApp) typeExpr()      {}
func (*TypeFn) typeExpr()       {}
func (*TypeBitfield) typeExpr() {}

// ---------------------------------------------------------------------------
// Top-level definitions
// ---------------------------------------------------------------------------

// Program is a parsed compilation unit.
type Program struct {
	File *source.File
	Defs []Def
	// ExprCount is the number of expressions the parser built, so the
	// highest ExprID in the unit.
	ExprCount int32
	// Suppressions are the lint-muting directives found in the unit; the
	// static-analysis driver honours them, the compiler ignores them.
	Suppressions []Suppression
}

// Suppression mutes analysis findings of one lint code. A form suppression
// ((suppress "BITC-XXXX" expr)) covers the span of the whole form; a comment
// directive (; bitc:ignore BITC-XXXX) covers a single source line. Matching
// findings are moved to the report's suppressed list rather than dropped, so
// strict runs can still account for them.
type Suppression struct {
	Code string
	Span source.Span // form region; invalid for comment directives
	Line int         // 1-based directive target line; 0 for form suppressions
}

// Def is a top-level definition.
type Def interface {
	Node
	DefName() string
}

// Param is a formal parameter with an optional type annotation.
type Param struct {
	SpanV source.Span
	Name  string
	Type  TypeExpr // nil means "infer"
	Bind  int32    // binding number (see Binding.Bind)
}

func (p *Param) Span() source.Span { return p.SpanV }

// Contract holds the optional verification annotations on a function.
type Contract struct {
	Requires []Expr // preconditions over the parameters
	Ensures  []Expr // postconditions; the symbol %result names the return value
}

// DefineFunc is (define (name (p T)...) [RetType] [:requires e] [:ensures e] body...).
type DefineFunc struct {
	SpanV    source.Span
	Name     string
	Params   []*Param
	RetType  TypeExpr // nil means "infer"
	Contract Contract
	Body     []Expr
	Pure     bool // :pure annotation (no heap writes; checked by the verifier)
	// ResultBind is the binding number of %result in the :ensures
	// clauses (0 when there are none).
	ResultBind int32
}

// DefineVar is (define name [Type] expr) — a top-level constant.
type DefineVar struct {
	SpanV source.Span
	Name  string
	Type  TypeExpr
	Init  Expr
}

// FieldDef is one field of a struct or union arm.
type FieldDef struct {
	SpanV source.Span
	Name  string
	Type  TypeExpr
}

func (f *FieldDef) Span() source.Span { return f.SpanV }

// DefStruct is (defstruct name [:packed] [:align n] (field Type)...).
type DefStruct struct {
	SpanV  source.Span
	Name   string
	Packed bool
	Align  int  // 0 means natural
	Boxed  bool // :boxed forces by-reference representation
	Fields []*FieldDef
}

// UnionArm is one constructor of a union (ADT).
type UnionArm struct {
	SpanV  source.Span
	Name   string
	Fields []*FieldDef // empty for nullary constructors
}

func (a *UnionArm) Span() source.Span { return a.SpanV }

// DefUnion is (defunion name (Arm (field Type)...)...) — a tagged union / ADT.
type DefUnion struct {
	SpanV source.Span
	Name  string
	Arms  []*UnionArm
}

// External declares a foreign (simulated C ABI) function:
// (external name (-> (T...) R) "c_symbol").
type External struct {
	SpanV   source.Span
	Name    string
	Type    TypeExpr
	CSymbol string
}

func (d *DefineFunc) Span() source.Span { return d.SpanV }
func (d *DefineVar) Span() source.Span  { return d.SpanV }
func (d *DefStruct) Span() source.Span  { return d.SpanV }
func (d *DefUnion) Span() source.Span   { return d.SpanV }
func (d *External) Span() source.Span   { return d.SpanV }

func (d *DefineFunc) DefName() string { return d.Name }
func (d *DefineVar) DefName() string  { return d.Name }
func (d *DefStruct) DefName() string  { return d.Name }
func (d *DefUnion) DefName() string   { return d.Name }
func (d *External) DefName() string   { return d.Name }

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Expr is any expression node. ExprID returns the number the parser gave
// the node: parsing numbers every expression it builds from 1 upwards, in
// pre-order, and records the count in Program.ExprCount. A node built
// anywhere else (a synthesised comparison, a compiler thunk) has ID 0, which
// means "not recorded": the type checker keeps its per-expression facts in
// tables indexed by this number and reports nothing for ID 0.
type Expr interface {
	Node
	ExprID() int32
}

// IntLit is an integer literal. Its concrete width is inferred.
type IntLit struct {
	SpanV source.Span
	ID    int32
	Value int64
}

// FloatLit is a float64 literal.
type FloatLit struct {
	SpanV source.Span
	ID    int32
	Value float64
}

// BoolLit is #t or #f.
type BoolLit struct {
	SpanV source.Span
	ID    int32
	Value bool
}

// CharLit is a character literal (Unicode code point).
type CharLit struct {
	SpanV source.Span
	ID    int32
	Value rune
}

// StringLit is a string literal.
type StringLit struct {
	SpanV source.Span
	ID    int32
	Value string
}

// UnitLit is the unit value, written ().
type UnitLit struct {
	SpanV source.Span
	ID    int32
}

// VarRef is a reference to a bound name.
type VarRef struct {
	SpanV source.Span
	ID    int32
	Name  string
}

// Call applies a function (or builtin, resolved during checking) to args.
type Call struct {
	SpanV source.Span
	ID    int32
	Fn    Expr
	Args  []Expr
}

// If is (if cond then [else]); a missing else is unit.
type If struct {
	SpanV source.Span
	ID    int32
	Cond  Expr
	Then  Expr
	Else  Expr // nil means unit
}

// LetKind distinguishes let flavours.
type LetKind int

// Let flavours.
const (
	LetPlain LetKind = iota // bindings see the enclosing scope
	LetSeq                  // let*: each binding sees the previous
	LetRec                  // letrec: bindings see each other (functions)
)

// Binding is one (name [Type] init) in a let.
//
// Bind is the binding number the parser gives every local binder
// (parameters, let bindings, dotimes variables, case-pattern variables,
// lambda parameters, with-region names, %result). Numbers count from 1
// within each top-level definition, in the order the binders come into
// scope: a function's parameters first, a plain let's names after all its
// initialisers, a let*'s each after its own, a letrec's before any, a
// dotimes variable after its count. A number is the binder's identity: the
// type checker resolves every use to it (types.Symbol.Bind), and it stays
// valid when a definition is copied (ShiftDef) or re-checked on its own.
type Binding struct {
	SpanV   source.Span
	Name    string
	Type    TypeExpr // nil means infer
	Mutable bool     // (mutable name init) binding form
	Init    Expr
	Bind    int32
}

func (b *Binding) Span() source.Span { return b.SpanV }

// Let is (let ((x e)...) body...).
type Let struct {
	SpanV    source.Span
	ID       int32
	Kind     LetKind
	Bindings []*Binding
	Body     []Expr
}

// Lambda is (lambda ((x T)...) body...).
type Lambda struct {
	SpanV   source.Span
	ID      int32
	Params  []*Param
	RetType TypeExpr
	Body    []Expr
}

// Begin is (begin e...), evaluating to its last expression.
type Begin struct {
	SpanV source.Span
	ID    int32
	Body  []Expr
}

// Set is (set! name e).
type Set struct {
	SpanV source.Span
	ID    int32
	Name  string
	Value Expr
}

// While is (while cond [:invariant e]... body...), evaluating to unit.
// Invariants are prover-visible loop invariants: checked on entry and for
// preservation by the verifier, optionally asserted at run time.
type While struct {
	SpanV      source.Span
	ID         int32
	Cond       Expr
	Invariants []Expr
	Body       []Expr
}

// DoTimes is (dotimes (i n) body...) — i ranges over [0, n).
type DoTimes struct {
	SpanV source.Span
	ID    int32
	Var   string
	Bind  int32 // Var's binding number
	Count Expr
	Body  []Expr
}

// MakeStruct is (make name :field e ...).
type MakeStruct struct {
	SpanV  source.Span
	ID     int32
	Name   string
	Fields []StructFieldInit
}

// StructFieldInit is one :field expr pair in a make form.
type StructFieldInit struct {
	Name  string
	Value Expr
}

// FieldRef is (field e name).
type FieldRef struct {
	SpanV source.Span
	ID    int32
	Expr  Expr
	Name  string
}

// FieldSet is (set-field! e name v).
type FieldSet struct {
	SpanV source.Span
	ID    int32
	Expr  Expr
	Name  string
	Value Expr
}

// MakeUnion is (ctor e...) for a union constructor — produced by the checker
// from Call when the head names a constructor, but also directly parseable
// as (make-union name ctor args...).
type MakeUnion struct {
	SpanV source.Span
	ID    int32
	Union string // may be "" until resolved
	Ctor  string
	Args  []Expr
}

// Pattern matches a scrutinee in a case clause.
type Pattern interface {
	Node
	pattern()
}

// PatWildcard matches anything: _.
type PatWildcard struct{ SpanV source.Span }

// PatVar binds the scrutinee to a name.
type PatVar struct {
	SpanV source.Span
	Name  string
	Bind  int32
}

// PatLit matches a literal (int, bool, char, string).
type PatLit struct {
	SpanV source.Span
	Lit   Expr
}

// PatCtor matches a union constructor, binding its fields positionally.
type PatCtor struct {
	SpanV source.Span
	Ctor  string
	Args  []Pattern
}

func (p *PatWildcard) Span() source.Span { return p.SpanV }
func (p *PatVar) Span() source.Span      { return p.SpanV }
func (p *PatLit) Span() source.Span      { return p.SpanV }
func (p *PatCtor) Span() source.Span     { return p.SpanV }

func (*PatWildcard) pattern() {}
func (*PatVar) pattern()      {}
func (*PatLit) pattern()      {}
func (*PatCtor) pattern()     {}

// CaseClause is one (pattern body...) arm.
type CaseClause struct {
	SpanV   source.Span
	Pattern Pattern
	Body    []Expr
}

func (c *CaseClause) Span() source.Span { return c.SpanV }

// Case is (case scrutinee clause...).
type Case struct {
	SpanV   source.Span
	ID      int32
	Scrut   Expr
	Clauses []*CaseClause
}

// Assert is (assert e) — a runtime-checked, prover-visible assertion.
type Assert struct {
	SpanV source.Span
	ID    int32
	Cond  Expr
}

// Cast is (cast Type e) — checked numeric conversion.
type Cast struct {
	SpanV source.Span
	ID    int32
	Type  TypeExpr
	Expr  Expr
}

// WithRegion is (with-region r body...): allocations made via (alloc-in r ...)
// inside body live exactly as long as the dynamic extent of the form.
type WithRegion struct {
	SpanV source.Span
	ID    int32
	Name  string
	Bind  int32 // the region's binding number
	Body  []Expr
}

// AllocIn is (alloc-in r expr) — evaluate an allocating expression with its
// result placed in region r.
type AllocIn struct {
	SpanV  source.Span
	ID     int32
	Region string
	Expr   Expr
}

// Atomic is (atomic body...) — an STM transaction (challenge 4).
type Atomic struct {
	SpanV source.Span
	ID    int32
	Body  []Expr
}

// Spawn is (spawn expr) — run expr on a new simulated thread; evaluates to
// a thread id (int32).
type Spawn struct {
	SpanV source.Span
	ID    int32
	Expr  Expr
}

// WithLock is (with-lock name body...) — acquire named global lock.
type WithLock struct {
	SpanV source.Span
	ID    int32
	Lock  string
	Body  []Expr
}

func (e *IntLit) Span() source.Span     { return e.SpanV }
func (e *FloatLit) Span() source.Span   { return e.SpanV }
func (e *BoolLit) Span() source.Span    { return e.SpanV }
func (e *CharLit) Span() source.Span    { return e.SpanV }
func (e *StringLit) Span() source.Span  { return e.SpanV }
func (e *UnitLit) Span() source.Span    { return e.SpanV }
func (e *VarRef) Span() source.Span     { return e.SpanV }
func (e *Call) Span() source.Span       { return e.SpanV }
func (e *If) Span() source.Span         { return e.SpanV }
func (e *Let) Span() source.Span        { return e.SpanV }
func (e *Lambda) Span() source.Span     { return e.SpanV }
func (e *Begin) Span() source.Span      { return e.SpanV }
func (e *Set) Span() source.Span        { return e.SpanV }
func (e *While) Span() source.Span      { return e.SpanV }
func (e *DoTimes) Span() source.Span    { return e.SpanV }
func (e *MakeStruct) Span() source.Span { return e.SpanV }
func (e *FieldRef) Span() source.Span   { return e.SpanV }
func (e *FieldSet) Span() source.Span   { return e.SpanV }
func (e *MakeUnion) Span() source.Span  { return e.SpanV }
func (e *Case) Span() source.Span       { return e.SpanV }
func (e *Assert) Span() source.Span     { return e.SpanV }
func (e *Cast) Span() source.Span       { return e.SpanV }
func (e *WithRegion) Span() source.Span { return e.SpanV }
func (e *AllocIn) Span() source.Span    { return e.SpanV }
func (e *Atomic) Span() source.Span     { return e.SpanV }
func (e *Spawn) Span() source.Span      { return e.SpanV }
func (e *WithLock) Span() source.Span   { return e.SpanV }

func (e *IntLit) ExprID() int32     { return e.ID }
func (e *FloatLit) ExprID() int32   { return e.ID }
func (e *BoolLit) ExprID() int32    { return e.ID }
func (e *CharLit) ExprID() int32    { return e.ID }
func (e *StringLit) ExprID() int32  { return e.ID }
func (e *UnitLit) ExprID() int32    { return e.ID }
func (e *VarRef) ExprID() int32     { return e.ID }
func (e *Call) ExprID() int32       { return e.ID }
func (e *If) ExprID() int32         { return e.ID }
func (e *Let) ExprID() int32        { return e.ID }
func (e *Lambda) ExprID() int32     { return e.ID }
func (e *Begin) ExprID() int32      { return e.ID }
func (e *Set) ExprID() int32        { return e.ID }
func (e *While) ExprID() int32      { return e.ID }
func (e *DoTimes) ExprID() int32    { return e.ID }
func (e *MakeStruct) ExprID() int32 { return e.ID }
func (e *FieldRef) ExprID() int32   { return e.ID }
func (e *FieldSet) ExprID() int32   { return e.ID }
func (e *MakeUnion) ExprID() int32  { return e.ID }
func (e *Case) ExprID() int32       { return e.ID }
func (e *Assert) ExprID() int32     { return e.ID }
func (e *Cast) ExprID() int32       { return e.ID }
func (e *WithRegion) ExprID() int32 { return e.ID }
func (e *AllocIn) ExprID() int32    { return e.ID }
func (e *Atomic) ExprID() int32     { return e.ID }
func (e *Spawn) ExprID() int32      { return e.ID }
func (e *WithLock) ExprID() int32   { return e.ID }
