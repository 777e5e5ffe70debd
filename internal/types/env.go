package types

// SymKind classifies what a name resolves to.
type SymKind int

// Symbol kinds.
const (
	SymLocal    SymKind = iota // let-bound value
	SymParam                   // function parameter (immutable)
	SymGlobal                  // top-level define
	SymFunc                    // top-level function
	SymBuiltin                 // language builtin (resolved by name in the compiler)
	SymExternal                // external (simulated C) function
	SymRegion                  // with-region binding
	SymCtor                    // union constructor
)

func (k SymKind) String() string {
	switch k {
	case SymLocal:
		return "local"
	case SymParam:
		return "parameter"
	case SymGlobal:
		return "global"
	case SymFunc:
		return "function"
	case SymBuiltin:
		return "builtin"
	case SymExternal:
		return "external"
	case SymRegion:
		return "region"
	case SymCtor:
		return "constructor"
	default:
		return "symbol"
	}
}

// Symbol is a resolved name. Bind is the binding number of a local,
// parameter or region (ast.Binding.Bind), unique within its definition,
// and 0 for every other kind.
type Symbol struct {
	Name    string
	Kind    SymKind
	Scheme  *Scheme
	Mutable bool
	Bind    int32
}

// scopes is the checker's one name table. names maps each name to its
// innermost binding; undo logs, for every bind, the entry it shadowed.
// Entering a scope takes a mark (the log's length) and leaving it unwinds
// the log back to the mark, so a lookup is one probe at any nesting depth
// and entering a scope allocates nothing. Globals are bound at mark 0 and
// never unwound.
type scopes struct {
	names  map[string]*Symbol
	undo   []shadowed
	probes int // lookups made; the linear-cost test reads it
}

// shadowed is one undo-log entry: the binding name had before a bind.
type shadowed struct {
	name string
	prev *Symbol // nil when the name was unbound
}

// mark opens a scope; pass the result to release to close it.
func (s *scopes) mark() int { return len(s.undo) }

func (s *scopes) bind(sym *Symbol) {
	s.undo = append(s.undo, shadowed{sym.Name, s.names[sym.Name]})
	s.names[sym.Name] = sym
}

// release closes every scope opened since mark m, restoring what their
// bindings shadowed.
func (s *scopes) release(m int) {
	for i := len(s.undo) - 1; i >= m; i-- {
		if u := s.undo[i]; u.prev != nil {
			s.names[u.name] = u.prev
		} else {
			delete(s.names, u.name)
		}
	}
	s.undo = s.undo[:m]
}

func (s *scopes) lookup(name string) *Symbol {
	s.probes++
	return s.names[name]
}

// builtinSchemes describes the polymorphic builtin operations. Quantified
// variables use negative IDs so they can never collide with checker-created
// variables, and each entry is instantiated fresh at every use site.
//
// Schemes are written with helper constructors below; tv(n, c) is the n'th
// quantified variable with constraint c.
func builtinSchemes() map[string]*Scheme {
	tv := func(id int, c Constraint) *Type {
		return &Type{Kind: KVar, ID: -id, Constraint: c}
	}
	scheme := func(t *Type, vars ...*Type) *Scheme {
		s := &Scheme{Type: t}
		for _, v := range vars {
			s.Vars = append(s.Vars, SchemeVar{ID: v.ID, Constraint: v.Constraint})
		}
		return s
	}

	m := map[string]*Scheme{}

	// Arithmetic: (T, T) -> T with T numeric.
	for _, op := range []string{"+", "-", "*", "/"} {
		a := tv(1, CNum)
		m[op] = scheme(Fn([]*Type{a, a}, a), a)
	}
	// mod and bit operations are integral-only.
	for _, op := range []string{"mod", "bitand", "bitor", "bitxor", "shl", "shr"} {
		a := tv(1, CIntegral)
		m[op] = scheme(Fn([]*Type{a, a}, a), a)
	}
	{
		a := tv(1, CIntegral)
		m["bitnot"] = scheme(Fn([]*Type{a}, a), a)
	}
	{
		a := tv(1, CNum)
		m["neg"] = scheme(Fn([]*Type{a}, a), a)
		b := tv(2, CNum)
		m["abs"] = scheme(Fn([]*Type{b}, b), b)
	}
	// Comparisons: ordered types.
	for _, op := range []string{"<", "<=", ">", ">="} {
		a := tv(1, COrd)
		m[op] = scheme(Fn([]*Type{a, a}, Bool), a)
	}
	for _, op := range []string{"min", "max"} {
		a := tv(1, COrd)
		m[op] = scheme(Fn([]*Type{a, a}, a), a)
	}
	// Equality: everything but functions.
	for _, op := range []string{"=", "!="} {
		a := tv(1, CEq)
		m[op] = scheme(Fn([]*Type{a, a}, Bool), a)
	}
	m["not"] = scheme(Fn([]*Type{Bool}, Bool))

	// Vectors.
	{
		a := tv(1, CNone)
		m["make-vector"] = scheme(Fn([]*Type{Int64, a}, Vector(a)), a)
	}
	{
		a := tv(1, CNone)
		m["vector-ref"] = scheme(Fn([]*Type{Vector(a), Int64}, a), a)
	}
	{
		a := tv(1, CNone)
		m["vector-set!"] = scheme(Fn([]*Type{Vector(a), Int64, a}, Unit), a)
	}
	{
		a := tv(1, CNone)
		m["vector-length"] = scheme(Fn([]*Type{Vector(a)}, Int64), a)
	}

	// Strings.
	m["string-length"] = scheme(Fn([]*Type{String}, Int64))
	m["string-ref"] = scheme(Fn([]*Type{String, Int64}, Char))
	m["string-append"] = scheme(Fn([]*Type{String, String}, String))
	m["substring"] = scheme(Fn([]*Type{String, Int64, Int64}, String))

	// Floating point.
	m["sqrt"] = scheme(Fn([]*Type{Float64}, Float64))
	m["floor"] = scheme(Fn([]*Type{Float64}, Float64))

	// I/O (host-provided; used by examples).
	{
		a := tv(1, CNone)
		m["print"] = scheme(Fn([]*Type{a}, Unit), a)
		b := tv(2, CNone)
		m["println"] = scheme(Fn([]*Type{b}, Unit), b)
	}

	// Channels and threads (challenge 4).
	{
		a := tv(1, CNone)
		m["make-chan"] = scheme(Fn([]*Type{Int64}, Chan(a)), a) // arg: capacity
	}
	{
		a := tv(1, CNone)
		m["send"] = scheme(Fn([]*Type{Chan(a), a}, Unit), a)
	}
	{
		a := tv(1, CNone)
		m["recv"] = scheme(Fn([]*Type{Chan(a)}, a), a)
	}
	m["join"] = scheme(Fn([]*Type{Int64}, Unit))
	m["yield"] = scheme(Fn(nil, Unit))
	m["thread-id"] = scheme(Fn(nil, Int64))

	return m
}
