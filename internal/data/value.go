// Package data defines the relational substrate underlying Rock: typed
// values with nulls, schemas, tuples carrying entity identifiers (EIDs),
// relations, databases, and temporal relations that attach per-cell
// timestamps and partial currency orders (paper §2, "Preliminaries").
package data

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Type enumerates the attribute types supported by Rock schemas.
type Type int

const (
	// TString is a textual attribute.
	TString Type = iota
	// TInt is a 64-bit integer attribute.
	TInt
	// TFloat is a 64-bit floating point attribute.
	TFloat
	// TBool is a Boolean attribute.
	TBool
	// TTime is a timestamp attribute (stored as Unix seconds).
	TTime
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TString:
		return "string"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TBool:
		return "bool"
	case TTime:
		return "time"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a single attribute value. The zero Value is null.
// Values are small and passed by value throughout. The row store holds
// one per cell, so a Value packs into two words: p is a string payload's
// data pointer, or a pointer into valueTags naming the kind (and
// nullness) of a value without string data; n is the string's length or
// the numeric or Boolean payload.
type Value struct {
	p unsafe.Pointer
	n uint64 // string length, int/time payload, float64 bits, or 1 for true
}

// valueTags is the target of the sentinel pointers: a Value whose p
// points at valueTags[k] is a non-null value of kind k, at
// valueTags[nullTags+k] a null of kind k, and at valueTags[emptyTag] the
// empty string. No string's data lies in this array, so a pointer into
// it can never be mistaken for a string payload.
var valueTags [2*256 + 1]byte

const (
	nullTags = 256
	emptyTag = 2 * 256
)

func tagged(i int, n uint64) Value { return Value{p: unsafe.Pointer(&valueTags[i]), n: n} }

// tag returns the valueTags index p points at; -1 for string data and
// for the zero Value.
func (v Value) tag() int {
	if d := uintptr(v.p) - uintptr(unsafe.Pointer(&valueTags[0])); d < uintptr(len(valueTags)) {
		return int(d)
	}
	return -1
}

// Null returns a null value of the given type.
func Null(t Type) Value { return tagged(nullTags+int(uint8(t)), 0) }

// S constructs a string value.
func S(v string) Value {
	if v == "" {
		return tagged(emptyTag, 0)
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// I constructs an integer value.
func I(v int64) Value { return tagged(int(TInt), uint64(v)) }

// F constructs a float value.
func F(v float64) Value { return tagged(int(TFloat), math.Float64bits(v)) }

// B constructs a Boolean value.
func B(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return tagged(int(TBool), n)
}

// TS constructs a timestamp value from Unix seconds.
func TS(unix int64) Value { return tagged(int(TTime), uint64(unix)) }

// Time constructs a timestamp value from a time.Time.
func Time(t time.Time) Value { return TS(t.Unix()) }

// Kind reports the type of the value.
func (v Value) Kind() Type {
	switch t := v.tag(); {
	case t < 0 || t == emptyTag:
		return TString
	case t >= nullTags:
		return Type(t - nullTags)
	default:
		return Type(t)
	}
}

// IsNull reports whether the value is null. The zero Value is null.
func (v Value) IsNull() bool {
	if v.p == nil {
		return true
	}
	t := v.tag()
	return t >= nullTags && t != emptyTag
}

// Str returns the string payload; "" for values that are not TString.
func (v Value) Str() string {
	if v.p == nil || v.tag() >= 0 {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}

// Int returns the integer payload of TInt and TTime values; 0 otherwise.
func (v Value) Int() int64 {
	if k := v.Kind(); k == TInt || k == TTime {
		return int64(v.n)
	}
	return 0
}

// Float returns the numeric payload as float64 for TInt, TFloat and TTime.
func (v Value) Float() float64 {
	switch v.Kind() {
	case TInt, TTime:
		return float64(int64(v.n))
	case TFloat:
		return math.Float64frombits(v.n)
	default:
		return 0
	}
}

// Bool returns the Boolean payload; false for values that are not TBool.
func (v Value) Bool() bool { return v.Kind() == TBool && v.n != 0 }

// Unix returns the timestamp payload in Unix seconds for TTime values.
func (v Value) Unix() int64 { return v.Int() }

// Equal reports deep equality between two values. Nulls are equal only to
// nulls of any type (SQL users beware: Rock treats null = null as true when
// comparing fix candidates, and the chase never equates a null with a
// non-null).
func (v Value) Equal(w Value) bool {
	if v.IsNull() || w.IsNull() {
		return v.IsNull() && w.IsNull()
	}
	if v.Kind() != w.Kind() {
		// Numeric cross-type comparison.
		if isNumeric(v.Kind()) && isNumeric(w.Kind()) {
			return v.Float() == w.Float()
		}
		return false
	}
	switch v.Kind() {
	case TString:
		return v.Str() == w.Str()
	case TInt, TTime, TBool:
		return v.n == w.n
	case TFloat:
		return v.Float() == w.Float()
	}
	return false
}

// Compare orders two non-null values: -1 if v<w, 0 if equal, +1 if v>w.
// Null values sort before everything; two nulls compare equal.
func (v Value) Compare(w Value) int {
	switch {
	case v.IsNull() && w.IsNull():
		return 0
	case v.IsNull():
		return -1
	case w.IsNull():
		return 1
	}
	if isNumeric(v.Kind()) && isNumeric(w.Kind()) {
		a, b := v.Float(), w.Float()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.Kind() == TString && w.Kind() == TString {
		return strings.Compare(v.Str(), w.Str())
	}
	if v.Kind() == TBool && w.Kind() == TBool {
		switch {
		case v.n == w.n:
			return 0
		case w.Bool():
			return -1
		default:
			return 1
		}
	}
	// Incomparable kinds order by kind for determinism.
	switch {
	case v.Kind() < w.Kind():
		return -1
	case v.Kind() > w.Kind():
		return 1
	default:
		return 0
	}
}

func isNumeric(t Type) bool { return t == TInt || t == TFloat || t == TTime }

// String renders the value for display and CSV round-tripping.
func (v Value) String() string {
	if v.IsNull() {
		return "null"
	}
	switch v.Kind() {
	case TString:
		return v.Str()
	case TInt:
		return strconv.FormatInt(v.Int(), 10)
	case TFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case TBool:
		return strconv.FormatBool(v.Bool())
	case TTime:
		return time.Unix(v.Unix(), 0).UTC().Format("2006-01-02T15:04:05Z")
	}
	return ""
}

// Parse converts text into a value of type t. The literal "null" (and the
// empty string for non-string types) parses as null.
func Parse(t Type, text string) (Value, error) {
	if text == "null" || (text == "" && t != TString) {
		return Null(t), nil
	}
	switch t {
	case TString:
		return S(text), nil
	case TInt:
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse int %q: %w", text, err)
		}
		return I(n), nil
	case TFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse float %q: %w", text, err)
		}
		return F(f), nil
	case TBool:
		b, err := strconv.ParseBool(text)
		if err != nil {
			return Value{}, fmt.Errorf("parse bool %q: %w", text, err)
		}
		return B(b), nil
	case TTime:
		if ts, err := time.Parse("2006-01-02T15:04:05Z", text); err == nil {
			return TS(ts.Unix()), nil
		}
		if ts, err := time.Parse("2006-01-02", text); err == nil {
			return TS(ts.Unix()), nil
		}
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse time %q: %w", text, err)
		}
		return TS(n), nil
	}
	return Value{}, fmt.Errorf("unknown type %v", t)
}

// Key returns a canonical string usable as a map key. Keys agree with
// Equal: all nulls share one key, and the numeric kinds (int, float, time)
// collapse onto one canonical encoding of their float64 value — Equal and
// Compare treat I(5), F(5) and TS(5) as the same value, so indexes keyed
// by Key (hash joins, dictionaries, fix dedup) must too. Non-numeric kinds
// stay kind-prefixed so values of different kinds never collide.
func (v Value) Key() string {
	if v.IsNull() {
		return "\x00null"
	}
	if isNumeric(v.Kind()) {
		return "N\x1f" + strconv.FormatFloat(v.Float(), 'g', -1, 64)
	}
	return string(rune('0'+int(v.Kind()))) + "\x1f" + v.String()
}
