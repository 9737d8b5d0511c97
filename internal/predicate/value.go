// Package predicate implements the SQL-predicate fragment HYPRE stores in
// preference-graph nodes: typed values, a predicate AST (comparisons,
// BETWEEN, IN, AND/OR/NOT), a parser for the textual form used throughout
// the dissertation (e.g. `dblp.venue="VLDB" AND year>=2010`), an evaluator
// over rows, and helpers to normalize predicates and extract the attributes
// they constrain.
package predicate

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the value types the engine supports. The DBLP workload
// only needs integers, floats and strings; Null models missing attributes.
type Kind uint8

const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int wraps an int64.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float wraps a float64.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String wraps a string.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload; it truncates floats.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt:
		return v.i
	case KindFloat:
		return int64(v.f)
	default:
		return 0
	}
}

// AsFloat returns the numeric payload widened to float64.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	default:
		return 0
	}
}

// AsString returns the string payload, or the printed form for numerics.
func (v Value) AsString() string {
	switch v.kind {
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return ""
	}
}

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports deep equality with numeric widening (Int(3) == Float(3)).
func (v Value) Equal(o Value) bool {
	c, ok := Compare(v, o)
	return ok && c == 0
}

// Compare orders two values. It returns (-1|0|1, true) when the values are
// comparable: both numeric (compared as float64) or both strings. NULL is
// incomparable with everything, including NULL, mirroring SQL semantics.
func Compare(a, b Value) (int, bool) {
	if a.kind == KindNull || b.kind == KindNull {
		return 0, false
	}
	if a.IsNumeric() && b.IsNumeric() {
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	}
	if a.kind == KindString && b.kind == KindString {
		return strings.Compare(a.s, b.s), true
	}
	return 0, false
}

// String renders the value as a predicate literal (NULL for the null
// value).
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return quote(v.s)
	default:
		return v.AsString()
	}
}

// quote double-quotes s the way the lexer reads strings: a backslash
// before '"' and '\', every other byte as is. (strconv.Quote's escapes,
// such as \x00, would read back as other text.)
func quote(s string) string {
	var sb strings.Builder
	sb.Grow(len(s) + 2)
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' || s[i] == '\\' {
			sb.WriteByte('\\')
		}
		sb.WriteByte(s[i])
	}
	sb.WriteByte('"')
	return sb.String()
}

// Key returns a map-key-safe canonical encoding of the value, used by
// hash indexes and DISTINCT counting.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "\x00null"
	case KindInt:
		return "i" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		// Encode integral floats as ints so Int(3) and Float(3) collide,
		// matching Equal's widening semantics.
		if v.f == float64(int64(v.f)) {
			return "i" + strconv.FormatInt(int64(v.f), 10)
		}
		return "f" + strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return "s" + v.s
	}
}
