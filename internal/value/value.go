// Package value defines the typed scalar values that flow through BEAS:
// table cells, query constants, index keys and query results. Values are
// small immutable structs; rows are flat slices of values.
//
// The package also provides an injective binary key codec used by the
// access-constraint hash indices and by hash-based physical operators
// (grouping, distinct, hash join).
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

// Supported kinds. Null is the zero value so that a zero Value is NULL.
const (
	Null Kind = iota
	Int
	Float
	String
	Bool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "NULL"
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "STRING"
	case Bool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind converts a type name (as used in schema files and CREATE-style
// declarations) to a Kind. It accepts common SQL aliases.
func ParseKind(s string) (Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "DATE":
		return Int, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return Float, nil
	case "STRING", "TEXT", "VARCHAR", "CHAR":
		return String, nil
	case "BOOL", "BOOLEAN":
		return Bool, nil
	default:
		return Null, fmt.Errorf("value: unknown type %q", s)
	}
}

// Value is a dynamically typed scalar. Exactly one of the payload fields
// is meaningful, selected by K. The zero Value is NULL.
type Value struct {
	K Kind
	I int64   // payload for Int and Bool (0/1)
	F float64 // payload for Float
	S string  // payload for String
}

// NewInt returns an Int value.
func NewInt(i int64) Value { return Value{K: Int, I: i} }

// NewFloat returns a Float value.
func NewFloat(f float64) Value { return Value{K: Float, F: f} }

// NewString returns a String value.
func NewString(s string) Value { return Value{K: String, S: s} }

// NewBool returns a Bool value.
func NewBool(b bool) Value {
	if b {
		return Value{K: Bool, I: 1}
	}
	return Value{K: Bool}
}

// NewNull returns the NULL value.
func NewNull() Value { return Value{} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == Null }

// Bool returns the boolean payload. It is only meaningful for Bool values.
func (v Value) Bool() bool { return v.K == Bool && v.I != 0 }

// AsFloat converts a numeric value to float64 for mixed-type arithmetic.
func (v Value) AsFloat() (float64, bool) {
	switch v.K {
	case Int:
		return float64(v.I), true
	case Float:
		return v.F, true
	default:
		return 0, false
	}
}

// String renders the value for display and CSV output. NULL renders as the
// empty string, matching the CSV loader's convention.
func (v Value) String() string {
	switch v.K {
	case Null:
		return ""
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Float:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case String:
		return v.S
	case Bool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("Value(kind=%d)", uint8(v.K))
	}
}

// Parse converts a textual cell to a value of kind k. The empty string
// parses as NULL for every kind.
func Parse(s string, k Kind) (Value, error) {
	if s == "" {
		return NewNull(), nil
	}
	switch k {
	case Int:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: parsing %q as INT: %w", s, err)
		}
		return NewInt(i), nil
	case Float:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: parsing %q as FLOAT: %w", s, err)
		}
		return NewFloat(f), nil
	case String:
		return NewString(s), nil
	case Bool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Value{}, fmt.Errorf("value: parsing %q as BOOL: %w", s, err)
		}
		return NewBool(b), nil
	case Null:
		return NewNull(), nil
	default:
		return Value{}, fmt.Errorf("value: cannot parse into kind %v", k)
	}
}

// Comparable reports whether values of kinds a and b may be ordered
// against each other. Numeric kinds are mutually comparable.
func Comparable(a, b Kind) bool {
	if a == b {
		return true
	}
	return isNumeric(a) && isNumeric(b)
}

func isNumeric(k Kind) bool { return k == Int || k == Float }

// Compare orders a before b (-1), equal (0) or after (1). NULL orders
// before every non-NULL value and equal to NULL, which gives sorting a
// total order; equality predicates treat NULL separately (SQL three-valued
// logic is approximated: NULL = NULL is false in predicate evaluation).
// NaN orders after every non-NaN number and equal to itself (the
// PostgreSQL convention), so ORDER BY / MIN / MAX / DISTINCT over NaN
// floats are order-independent and consistent with AppendKey's canonical
// NaN encoding. Comparing incomparable kinds returns an error.
func Compare(a, b Value) (int, error) {
	if a.K == Null || b.K == Null {
		switch {
		case a.K == Null && b.K == Null:
			return 0, nil
		case a.K == Null:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if isNumeric(a.K) && isNumeric(b.K) {
		if a.K == Int && b.K == Int {
			return cmpInt(a.I, b.I), nil
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return cmpFloat(af, bf), nil
	}
	if a.K != b.K {
		return 0, fmt.Errorf("value: cannot compare %v with %v", a.K, b.K)
	}
	switch a.K {
	case String:
		return strings.Compare(a.S, b.S), nil
	case Bool:
		return cmpInt(a.I, b.I), nil
	default:
		return 0, fmt.Errorf("value: cannot compare kind %v", a.K)
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpFloat is a total order over float64: -Inf < ... < +Inf < NaN, with
// NaN equal to NaN. Plain < / > comparisons would return 0 ("equal") for
// NaN against anything, which poisons sorting, MIN/MAX and DISTINCT with
// order-dependent results.
func cmpFloat(a, b float64) int {
	aNaN, bNaN := math.IsNaN(a), math.IsNaN(b)
	switch {
	case aNaN && bNaN:
		return 0
	case aNaN:
		return 1
	case bNaN:
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// AddInt64 adds without wrapping; ok is false on int64 overflow. It is
// shared by aggregate SUM and expression arithmetic, which both promote
// to float64 instead of silently wrapping.
func AddInt64(a, b int64) (int64, bool) {
	s := a + b
	// Overflow iff the operands share a sign the sum does not.
	if (a >= 0) == (b >= 0) && (s >= 0) != (a >= 0) {
		return 0, false
	}
	return s, true
}

// SubInt64 subtracts without wrapping; ok is false on int64 overflow.
func SubInt64(a, b int64) (int64, bool) {
	d := a - b
	// Overflow iff the operands differ in sign and the result flips away
	// from a's sign.
	if (a >= 0) != (b >= 0) && (d >= 0) != (a >= 0) {
		return 0, false
	}
	return d, true
}

// MulInt64 multiplies without wrapping; ok is false on int64 overflow.
func MulInt64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 && b == -1 || b == math.MinInt64 && a == -1 {
		return 0, false // a*b wraps and MinInt64 / -1 would trap
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// Equal reports value equality with numeric coercion (1 == 1.0). NULLs are
// equal to each other for the purposes of hashing and dedup; predicate
// evaluation filters NULLs before calling Equal.
func Equal(a, b Value) bool {
	if a.K == Null || b.K == Null {
		return a.K == Null && b.K == Null
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Row is a tuple of values. Rows are positional; the schema that gives
// positions meaning lives in internal/schema.
type Row []Value

// Clone returns a copy of the row sharing string payloads.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Project returns the sub-row at the given positions.
func (r Row) Project(idx []int) Row {
	out := make(Row, len(idx))
	for i, j := range idx {
		out[i] = r[j]
	}
	return out
}

// AppendKey appends an injective binary encoding of v to dst and returns
// the extended slice. Distinct values always produce distinct encodings;
// equal values (under Equal, i.e. with numeric coercion) produce equal
// encodings because integral floats are canonicalised to the Int encoding.
func AppendKey(dst []byte, v Value) []byte {
	switch v.K {
	case Null:
		return AppendNullKey(dst)
	case Int:
		return AppendIntKey(dst, v.I)
	case Float:
		return AppendFloatKey(dst, v.F)
	case String:
		return AppendStringKey(dst, v.S)
	case Bool:
		return append(dst, 4, byte(v.I))
	default:
		return append(dst, 255)
	}
}

// AppendNullKey appends the encoding of NULL. The per-kind Append*Key
// helpers expose AppendKey's cases individually so columnar operators
// can encode a whole column with one kind dispatch; each produces
// byte-identical output to AppendKey of the equivalent value.
func AppendNullKey(dst []byte) []byte { return append(dst, 0) }

// AppendIntKey appends the encoding of an Int value.
func AppendIntKey(dst []byte, i int64) []byte {
	dst = append(dst, 1)
	return appendU64(dst, uint64(i))
}

// AppendFloatKey appends the encoding of a Float value. Integral floats
// canonicalise to the Int encoding so that 1 and 1.0 hash identically,
// matching Equal's numeric coercion; all NaN payloads encode
// identically, matching Compare's NaN == NaN so hashing, grouping and
// DISTINCT agree with the total order.
func AppendFloatKey(dst []byte, f float64) []byte {
	if i := int64(f); float64(i) == f {
		return AppendIntKey(dst, i)
	}
	bits := math.Float64bits(f)
	if math.IsNaN(f) {
		bits = math.Float64bits(math.NaN())
	}
	dst = append(dst, 2)
	return appendU64(dst, bits)
}

// AppendStringKey appends the encoding of a String value.
func AppendStringKey(dst []byte, s string) []byte {
	dst = append(dst, 3)
	dst = appendU64(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBoolKey appends the encoding of a Bool value.
func AppendBoolKey(dst []byte, b bool) []byte {
	if b {
		return append(dst, 4, 1)
	}
	return append(dst, 4, 0)
}

// CompareInt64 is the engine's total order over Int payloads.
func CompareInt64(a, b int64) int { return cmpInt(a, b) }

// CompareFloat64 is the engine's total order over float64:
// -Inf < ... < +Inf < NaN, NaN equal to NaN (see cmpFloat).
func CompareFloat64(a, b float64) int { return cmpFloat(a, b) }

func appendU64(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

// HashKey hashes an encoded key (as produced by Key / AppendKey /
// AppendRowKey) for shard routing — FNV-1a folded to 32 bits. The
// access-constraint indices mask it down to their shard count; the hash
// only spreads keys, results never depend on it.
func HashKey(key string) uint32 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return uint32(h)
}

// Key returns an injective string encoding of the row, suitable as a map
// key for hashing, grouping and index buckets.
func Key(vals []Value) string {
	var buf [48]byte
	dst := buf[:0]
	for _, v := range vals {
		dst = AppendKey(dst, v)
	}
	return string(dst)
}

// AppendRowKey appends the injective encoding of the row's values at
// positions pos (all positions when pos is nil) to dst and returns the
// extended slice. It is the allocation-free form of Key(r.Project(pos))
// used by the hash join, grouping/DISTINCT and index-probe hot paths:
// callers reuse dst across rows and look up maps with string(dst), which
// the compiler does not materialise.
func AppendRowKey(dst []byte, r Row, pos []int) []byte {
	if pos == nil {
		for _, v := range r {
			dst = AppendKey(dst, v)
		}
		return dst
	}
	for _, p := range pos {
		dst = AppendKey(dst, r[p])
	}
	return dst
}
