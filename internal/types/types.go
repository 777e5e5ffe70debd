// Package types implements bitc's type system: a Hindley–Milner core with
// let-polymorphism, constrained type variables for numeric literals (in the
// BitC tradition of inferring concrete machine widths), mutability-checked
// assignment, structs with representation annotations, and tagged unions.
package types

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates the Type representation.
type Kind int

// Type kinds.
const (
	KUnit Kind = iota
	KBool
	KChar
	KString
	KInt    // Bits, Signed
	KFloat  // float64 only
	KFn     // Params, Result
	KVector // Elem
	KArray  // Elem, Len
	KChan   // Elem
	KStruct // SDecl
	KUnion  // UDecl
	KVar    // ID, Link, Constraint
)

// Constraint restricts what a type variable may become. Used for numeric
// literals and polymorphic operators.
type Constraint int

// Constraints, ordered so that stronger constraints have higher values.
const (
	CNone     Constraint = iota
	CEq                  // types with equality: everything except functions
	COrd                 // ordered: ints, float, char, string
	CNum                 // numeric: ints, float
	CIntegral            // integer types only
)

func (c Constraint) String() string {
	switch c {
	case CNone:
		return "any"
	case CEq:
		return "eq"
	case COrd:
		return "ord"
	case CNum:
		return "num"
	case CIntegral:
		return "integral"
	default:
		return "constraint?"
	}
}

// FieldInfo is one resolved struct/union-arm field.
type FieldInfo struct {
	Name string
	Type *Type
	Bits int // bitfield width in bits; 0 means whole base type
}

// StructInfo is a resolved struct declaration.
type StructInfo struct {
	Name   string
	Packed bool
	Boxed  bool
	Align  int // 0 = natural
	Fields []FieldInfo
}

// FieldIndex returns the index of the named field, or -1.
func (s *StructInfo) FieldIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// ArmInfo is one resolved constructor of a union.
type ArmInfo struct {
	Name   string
	Tag    int
	Fields []FieldInfo
}

// UnionInfo is a resolved union (ADT) declaration.
type UnionInfo struct {
	Name string
	Arms []*ArmInfo
}

// Arm returns the named arm, or nil.
func (u *UnionInfo) Arm(name string) *ArmInfo {
	for _, a := range u.Arms {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Type is the internal representation of a bitc type. Type variables use
// in-place linking (union-find) during unification; always call Prune before
// inspecting a type's Kind.
type Type struct {
	Kind   Kind
	Bits   int  // KInt: 8/16/32/64
	Signed bool // KInt

	ID         int        // KVar
	Link       *Type      // KVar: forwarding pointer once bound
	Constraint Constraint // KVar
	Level      int        // KVar: binding depth for generalisation

	Elem   *Type   // KVector/KArray/KChan element
	Len    int     // KArray length
	Params []*Type // KFn
	Result *Type   // KFn

	SDecl *StructInfo // KStruct
	UDecl *UnionInfo  // KUnion
}

// Singleton primitive types. These are shared; nothing mutates them.
var (
	Unit    = &Type{Kind: KUnit}
	Bool    = &Type{Kind: KBool}
	Char    = &Type{Kind: KChar}
	String  = &Type{Kind: KString}
	Int8    = &Type{Kind: KInt, Bits: 8, Signed: true}
	Int16   = &Type{Kind: KInt, Bits: 16, Signed: true}
	Int32   = &Type{Kind: KInt, Bits: 32, Signed: true}
	Int64   = &Type{Kind: KInt, Bits: 64, Signed: true}
	Uint8   = &Type{Kind: KInt, Bits: 8, Signed: false}
	Uint16  = &Type{Kind: KInt, Bits: 16, Signed: false}
	Uint32  = &Type{Kind: KInt, Bits: 32, Signed: false}
	Uint64  = &Type{Kind: KInt, Bits: 64, Signed: false}
	Float64 = &Type{Kind: KFloat}
)

// Word is the machine word type (64-bit unsigned on the simulated target).
var Word = Uint64

// IntType returns the canonical integer type with the given width/signedness.
func IntType(bits int, signed bool) *Type {
	switch {
	case bits == 8 && signed:
		return Int8
	case bits == 16 && signed:
		return Int16
	case bits == 32 && signed:
		return Int32
	case bits == 64 && signed:
		return Int64
	case bits == 8:
		return Uint8
	case bits == 16:
		return Uint16
	case bits == 32:
		return Uint32
	default:
		return Uint64
	}
}

// Fn builds a function type.
func Fn(params []*Type, result *Type) *Type {
	return &Type{Kind: KFn, Params: params, Result: result}
}

// Vector builds a vector type.
func Vector(elem *Type) *Type { return &Type{Kind: KVector, Elem: elem} }

// Array builds a fixed-length array type.
func Array(elem *Type, n int) *Type { return &Type{Kind: KArray, Elem: elem, Len: n} }

// Chan builds a channel type.
func Chan(elem *Type) *Type { return &Type{Kind: KChan, Elem: elem} }

// Struct wraps a StructInfo as a type.
func Struct(s *StructInfo) *Type { return &Type{Kind: KStruct, SDecl: s} }

// Union wraps a UnionInfo as a type.
func Union(u *UnionInfo) *Type { return &Type{Kind: KUnion, UDecl: u} }

// Prune follows variable links to the representative type. It never
// writes, so analyses may call it concurrently on types they share; the
// checker itself uses unifier.find, which also shortens the chains. After
// Check every type Info records is already its own representative.
func Prune(t *Type) *Type {
	for t.Kind == KVar && t.Link != nil {
		t = t.Link
	}
	return t
}

// IsInt reports whether t (pruned) is an integer type.
func (t *Type) IsInt() bool { return Prune(t).Kind == KInt }

// IsNumeric reports whether t (pruned) is int or float.
func (t *Type) IsNumeric() bool {
	p := Prune(t)
	return p.Kind == KInt || p.Kind == KFloat
}

// String renders the type in surface syntax.
func (t *Type) String() string {
	var b strings.Builder
	writeType(&b, t, map[int]string{})
	return b.String()
}

func writeType(b *strings.Builder, t *Type, names map[int]string) {
	t = Prune(t)
	switch t.Kind {
	case KUnit:
		b.WriteString("unit")
	case KBool:
		b.WriteString("bool")
	case KChar:
		b.WriteString("char")
	case KString:
		b.WriteString("string")
	case KInt:
		if t.Signed {
			fmt.Fprintf(b, "int%d", t.Bits)
		} else {
			fmt.Fprintf(b, "uint%d", t.Bits)
		}
	case KFloat:
		b.WriteString("float64")
	case KFn:
		b.WriteString("(-> (")
		for i, p := range t.Params {
			if i > 0 {
				b.WriteByte(' ')
			}
			writeType(b, p, names)
		}
		b.WriteString(") ")
		writeType(b, t.Result, names)
		b.WriteByte(')')
	case KVector:
		b.WriteString("(vector ")
		writeType(b, t.Elem, names)
		b.WriteByte(')')
	case KArray:
		fmt.Fprintf(b, "(array ")
		writeType(b, t.Elem, names)
		fmt.Fprintf(b, " %d)", t.Len)
	case KChan:
		b.WriteString("(chan ")
		writeType(b, t.Elem, names)
		b.WriteByte(')')
	case KStruct:
		b.WriteString(t.SDecl.Name)
	case KUnion:
		b.WriteString(t.UDecl.Name)
	case KVar:
		name, ok := names[t.ID]
		if !ok {
			name = fmt.Sprintf("'%c", 'a'+len(names)%26)
			if len(names) >= 26 {
				name = fmt.Sprintf("'t%d", len(names))
			}
			names[t.ID] = name
		}
		b.WriteString(name)
		if t.Constraint != CNone {
			fmt.Fprintf(b, ":%s", t.Constraint)
		}
	}
}

// unifier carries fresh-variable state; one per checking session. It is
// the only writer of Link, and only the single-threaded checker owns one.
type unifier struct {
	nextID int
	hops   int // Link hops find has walked; the linear-cost test reads it
}

// find is Prune for the checker: it returns t's representative and points
// every variable on the way straight at it, so no chain is walked twice and
// inference stays linear however long a variable's chain of unifications.
// A variable that already points at its representative is not written, so
// finds over types a finished check left behind write nothing, and a
// Recheck may walk the types it shares with an Info that others read.
func (u *unifier) find(t *Type) *Type {
	root := t
	for root.Kind == KVar && root.Link != nil {
		root = root.Link
		u.hops++
	}
	for t != root {
		next := t.Link
		if next != root {
			t.Link = root
		}
		t = next
	}
	return root
}

func (u *unifier) fresh(level int, c Constraint) *Type {
	u.nextID++
	return &Type{Kind: KVar, ID: u.nextID, Level: level, Constraint: c}
}

// satisfies reports whether concrete type t, a representative, satisfies
// constraint c.
func satisfies(t *Type, c Constraint) bool {
	switch c {
	case CNone:
		return true
	case CEq:
		return t.Kind != KFn
	case COrd:
		return t.Kind == KInt || t.Kind == KFloat || t.Kind == KChar || t.Kind == KString
	case CNum:
		return t.Kind == KInt || t.Kind == KFloat
	case CIntegral:
		return t.Kind == KInt
	default:
		return false
	}
}

func maxConstraint(a, b Constraint) Constraint {
	// CEq/COrd/CNum/CIntegral form a chain for our purposes.
	if a > b {
		return a
	}
	return b
}

// occurs reports whether variable v occurs in t (after pruning), adjusting
// levels so generalisation stays sound.
func (u *unifier) occurs(v, t *Type) bool {
	t = u.find(t)
	if t == v {
		return true
	}
	if t.Kind == KVar {
		if t.Level > v.Level {
			t.Level = v.Level
		}
		return false
	}
	for _, p := range t.Params {
		if u.occurs(v, p) {
			return true
		}
	}
	if t.Result != nil && u.occurs(v, t.Result) {
		return true
	}
	if t.Elem != nil && u.occurs(v, t.Elem) {
		return true
	}
	return false
}

// Unify makes a and b equal, binding variables as needed. It returns an error
// describing the mismatch, phrased in surface syntax.
func (u *unifier) Unify(a, b *Type) error {
	a, b = u.find(a), u.find(b)
	if a == b {
		return nil
	}
	if a.Kind == KVar {
		return u.bindVar(a, b)
	}
	if b.Kind == KVar {
		return u.bindVar(b, a)
	}
	if a.Kind != b.Kind {
		return fmt.Errorf("type mismatch: %s vs %s", a, b)
	}
	switch a.Kind {
	case KUnit, KBool, KChar, KString, KFloat:
		return nil
	case KInt:
		if a.Bits != b.Bits || a.Signed != b.Signed {
			return fmt.Errorf("integer type mismatch: %s vs %s", a, b)
		}
		return nil
	case KFn:
		if len(a.Params) != len(b.Params) {
			return fmt.Errorf("function arity mismatch: %d vs %d parameters", len(a.Params), len(b.Params))
		}
		for i := range a.Params {
			if err := u.Unify(a.Params[i], b.Params[i]); err != nil {
				return err
			}
		}
		return u.Unify(a.Result, b.Result)
	case KVector, KChan:
		return u.Unify(a.Elem, b.Elem)
	case KArray:
		if a.Len != b.Len {
			return fmt.Errorf("array length mismatch: %d vs %d", a.Len, b.Len)
		}
		return u.Unify(a.Elem, b.Elem)
	case KStruct:
		if a.SDecl != b.SDecl {
			return fmt.Errorf("distinct struct types %s and %s", a.SDecl.Name, b.SDecl.Name)
		}
		return nil
	case KUnion:
		if a.UDecl != b.UDecl {
			return fmt.Errorf("distinct union types %s and %s", a.UDecl.Name, b.UDecl.Name)
		}
		return nil
	default:
		return fmt.Errorf("cannot unify %s with %s", a, b)
	}
}

func (u *unifier) bindVar(v, t *Type) error {
	if t.Kind == KVar {
		// Merge constraints into the surviving variable.
		t.Constraint = maxConstraint(t.Constraint, v.Constraint)
		if t.Level > v.Level {
			t.Level = v.Level
		}
		v.Link = t
		return nil
	}
	if u.occurs(v, t) {
		return fmt.Errorf("infinite type: variable occurs in %s", t)
	}
	if !satisfies(t, v.Constraint) {
		return fmt.Errorf("%s does not satisfy the %s constraint", t, v.Constraint)
	}
	v.Link = t
	return nil
}

// ---------------------------------------------------------------------------
// Schemes (polymorphic types)
// ---------------------------------------------------------------------------

// Scheme is a possibly-quantified type. Vars lists the IDs of quantified
// variables appearing in Type, each with the constraint it must carry when
// instantiated.
type Scheme struct {
	Vars []SchemeVar
	Type *Type
}

// SchemeVar is one quantified variable of a Scheme.
type SchemeVar struct {
	ID         int
	Constraint Constraint
}

// Mono wraps a monomorphic type as a scheme.
func Mono(t *Type) *Scheme { return &Scheme{Type: t} }

// Instantiate replaces quantified variables with fresh ones at level.
func (u *unifier) Instantiate(s *Scheme, level int) *Type {
	if len(s.Vars) == 0 {
		return s.Type
	}
	subst := make(map[int]*Type, len(s.Vars))
	for _, v := range s.Vars {
		subst[v.ID] = u.fresh(level, v.Constraint)
	}
	return u.applySubst(s.Type, subst)
}

func (u *unifier) applySubst(t *Type, subst map[int]*Type) *Type {
	t = u.find(t)
	switch t.Kind {
	case KVar:
		if r, ok := subst[t.ID]; ok {
			return r
		}
		return t
	case KFn:
		params := make([]*Type, len(t.Params))
		changed := false
		for i, p := range t.Params {
			params[i] = u.applySubst(p, subst)
			changed = changed || params[i] != p
		}
		result := u.applySubst(t.Result, subst)
		if !changed && result == t.Result {
			return t
		}
		return Fn(params, result)
	case KVector:
		e := u.applySubst(t.Elem, subst)
		if e == t.Elem {
			return t
		}
		return Vector(e)
	case KArray:
		e := u.applySubst(t.Elem, subst)
		if e == t.Elem {
			return t
		}
		return Array(e, t.Len)
	case KChan:
		e := u.applySubst(t.Elem, subst)
		if e == t.Elem {
			return t
		}
		return Chan(e)
	default:
		return t
	}
}

// generalize quantifies variables bound deeper than level.
func (u *unifier) generalize(t *Type, level int) *Scheme {
	var vars []SchemeVar
	seen := map[int]bool{}
	var walk func(*Type)
	walk = func(t *Type) {
		t = u.find(t)
		switch t.Kind {
		case KVar:
			if t.Level > level && !seen[t.ID] {
				// Numeric variables default to a concrete machine width
				// rather than generalising: bitc follows BitC in giving
				// integer literals (and literal-only arithmetic) a fixed
				// representation, which is what makes layout computable.
				if t.Constraint == CIntegral || t.Constraint == CNum {
					t.Link = Int64
					return
				}
				seen[t.ID] = true
				vars = append(vars, SchemeVar{ID: t.ID, Constraint: t.Constraint})
			}
		case KFn:
			for _, p := range t.Params {
				walk(p)
			}
			walk(t.Result)
		case KVector, KArray, KChan:
			walk(t.Elem)
		}
	}
	walk(t)
	sort.Slice(vars, func(i, j int) bool { return vars[i].ID < vars[j].ID })
	return &Scheme{Vars: vars, Type: t}
}

// DefaultType resolves any remaining type variables in t in place: integral
// and numeric variables become int64, everything else becomes unit. This runs
// after inference so the compiler always sees concrete types.
func DefaultType(t *Type) *Type {
	return new(unifier).settle(t, nil)
}

// settle is DefaultType but leaves variables whose ID is in keep unbound
// (they are quantified by some scheme and must stay polymorphic). It
// returns t's representative, and leaves every variable it passes linked
// straight to its own.
func (u *unifier) settle(t *Type, keep map[int]bool) *Type {
	t = u.find(t)
	switch t.Kind {
	case KVar:
		if keep[t.ID] {
			return t
		}
		switch t.Constraint {
		case CIntegral, CNum, COrd:
			t.Link = Int64
			return Int64
		default:
			t.Link = Unit
			return Unit
		}
	case KFn:
		for _, p := range t.Params {
			u.settle(p, keep)
		}
		u.settle(t.Result, keep)
	case KVector, KArray, KChan:
		u.settle(t.Elem, keep)
	}
	return t
}
