// Package vm executes bitc IR modules on a virtual machine with:
//
//   - two value representations — Unboxed (scalars are immediate) and Boxed
//     (the uniform ML-style representation: every scalar result lives in a
//     heap box), which is the measured variable of experiments E1/E2;
//   - cooperative green threads with a deterministic, seeded scheduler, so
//     races found once are found every time;
//   - channels, named locks, and an optimistic STM for the atomic form;
//   - dynamic regions with use-after-exit trapping;
//   - full instrumentation: instructions, allocations, heap bytes (computed
//     from the layout engine), box traffic, field accesses.
package vm

import (
	"fmt"
	"math"

	"bitc/internal/types"
)

// Kind tags a Value.
type Kind uint8

// Value kinds.
const (
	KUnit Kind = iota
	KBool
	KInt
	KChar
	KFloat
	KString
	KRef
)

// box is the heap cell a scalar occupies under the uniform representation.
// The allocation itself — and the pointer chase through it — is the cost
// being measured; the struct mirrors an ML runtime's tagged cell.
type box struct {
	i int64
	f float64
}

// Value is a VM value: four words, so the Go compiler keeps one in
// registers when it is passed, returned or copied (its SSA pass only
// decomposes structs of at most four fields and four words). A float is
// carried as its IEEE-754 bits in I; a string is an immutable OString heap
// object reached through R. In Boxed mode scalar values additionally carry
// the box they live in, and reads go through it.
type Value struct {
	K Kind
	I int64   // integer, bool, char, or float64 bits (KFloat)
	R *Object // KRef target, or the OString holding a KString's text
	b *box
}

// Float returns a KFloat value's number.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.I)) }

// Str returns a KString value's text, and "" for every other kind.
func (v Value) Str() string {
	if v.K != KString || v.R == nil {
		return ""
	}
	return v.R.Str
}

// Convenience constructors.
func unitVal() Value { return Value{K: KUnit} }
func boolVal(b bool) Value {
	v := Value{K: KBool}
	if b {
		v.I = 1
	}
	return v
}
func intVal(i int64) Value     { return Value{K: KInt, I: i} }
func charVal(c int64) Value    { return Value{K: KChar, I: c} }
func floatVal(f float64) Value { return Value{K: KFloat, I: int64(math.Float64bits(f))} }
func refVal(o *Object) Value   { return Value{K: KRef, R: o} }

// strVal allocates the string's OString object. Strings are immutable and
// never region-allocated, and the object is not an aggregate: it is not
// counted in Stats.Allocs or HeapBytes.
func strVal(s string) Value {
	return Value{K: KString, R: &Object{Kind: OString, Str: s, Region: -1}}
}

// IntValue wraps an int64 as a VM value (public constructor for hosts).
func IntValue(i int64) Value { return intVal(i) }

// BoolValue wraps a bool.
func BoolValue(b bool) Value { return boolVal(b) }

// FloatValue wraps a float64.
func FloatValue(f float64) Value { return floatVal(f) }

// StrValue wraps a string.
func StrValue(s string) Value { return strVal(s) }

// CharValue wraps a code point.
func CharValue(c rune) Value { return charVal(int64(c)) }

// UnitValue is the unit value.
func UnitValue() Value { return unitVal() }

// Truthy reports the boolean interpretation (only ever called on KBool).
func (v Value) Truthy() bool { return v.I != 0 }

// String renders a value for print/println and debugging.
func (v Value) String() string {
	switch v.K {
	case KUnit:
		return "()"
	case KBool:
		if v.I != 0 {
			return "#t"
		}
		return "#f"
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KChar:
		return fmt.Sprintf("#\\%c", rune(v.I))
	case KFloat:
		return fmt.Sprintf("%g", v.Float())
	case KString:
		return v.Str()
	case KRef:
		return v.R.String()
	default:
		return "?"
	}
}

// ObjKind tags heap objects.
type ObjKind uint8

// Object kinds.
const (
	OStruct ObjKind = iota
	OUnion
	OVector
	OClosure
	OChan
	OString
)

// ChanState is the payload of a channel object.
type ChanState struct {
	Buf   []Value
	Cap   int
	SendQ []*Thread // threads blocked sending (their pending value in waitVal)
	RecvQ []*Thread
}

// Object is a heap value: struct instance, union value, vector, closure,
// channel, or string.
type Object struct {
	Kind  ObjKind
	SDecl *types.StructInfo
	UDecl *types.UnionInfo
	Tag   int     // union arm
	Elems []Value // struct fields / union payload / vector elements / closure env
	Fn    int     // closure: function index
	Chan  *ChanState
	Str   string // OString: the text

	// Region is the region id owning this object, or -1 for the GC'd heap.
	Region int
	// Version supports STM conflict detection.
	Version uint64
	// Prepared marks the object locked by a prepared host transaction (the
	// participant half of a cross-VM two-phase commit; see HostTxn). An
	// in-VM transaction whose write set touches a prepared object aborts
	// and retries rather than invalidating the prepared commit.
	Prepared bool
}

// String renders an object shallowly.
func (o *Object) String() string {
	switch o.Kind {
	case OStruct:
		s := "(" + o.SDecl.Name
		for i, f := range o.SDecl.Fields {
			s += fmt.Sprintf(" :%s %s", f.Name, o.Elems[i].String())
		}
		return s + ")"
	case OUnion:
		arm := o.UDecl.Arms[o.Tag]
		s := "(" + arm.Name
		for _, e := range o.Elems {
			s += " " + e.String()
		}
		return s + ")"
	case OVector:
		s := "#("
		for i, e := range o.Elems {
			if i > 0 {
				s += " "
			}
			if i >= 8 {
				s += fmt.Sprintf("… %d elems", len(o.Elems))
				break
			}
			s += e.String()
		}
		return s + ")"
	case OClosure:
		return fmt.Sprintf("#<closure fn=%d env=%d>", o.Fn, len(o.Elems))
	case OChan:
		return fmt.Sprintf("#<chan cap=%d len=%d>", o.Chan.Cap, len(o.Chan.Buf))
	case OString:
		return o.Str
	default:
		return "#<object>"
	}
}

// Trap is a clean runtime failure: the strongly-typed-language answer to a
// segfault. The VM stops with a message instead of corrupting state.
type Trap struct {
	Msg string
}

// Error implements the error interface with the conventional "trap:" prefix
// tests and callers match on.
func (t *Trap) Error() string { return "trap: " + t.Msg }

func trapf(format string, args ...any) *Trap {
	return &Trap{Msg: fmt.Sprintf(format, args...)}
}
