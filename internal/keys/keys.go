// Package keys defines the order-preserving binary encoding of interned
// tuples that the segment store sorts and searches by.
//
// A tuple is encoded predicate-major, column-major: segment files group
// rows by predicate, and within a predicate each row is the concatenation
// of its column values as 4-byte big-endian words. Interned values are
// non-negative int32s (symtab hands out dense ids from zero), so the
// unsigned big-endian image of each column compares byte-wise exactly as
// the values compare numerically, and concatenating columns left to right
// makes bytes.Compare on whole rows agree with column-major lexicographic
// tuple order.
//
// The property the executor builds on: because column i occupies bytes
// [4i, 4i+4), a query binding the leading k columns is a *prefix* of the
// encoded row. All rows matching the binding therefore form one
// contiguous run of the sorted row space, so a bound-prefix index probe
// becomes a single key-range scan — a binary search for the start of the
// run and a sequential read until the prefix stops matching — instead of
// a hash lookup over materialized buckets.
package keys

import (
	"encoding/binary"
	"fmt"
	"sort"

	"sepdl/internal/rel"
)

// Width is the encoded size in bytes of one column value.
const Width = 4

// AppendValue appends the order-preserving encoding of v to dst.
// v must be a non-negative interned value.
func AppendValue(dst []byte, v rel.Value) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(v))
}

// AppendTuple appends the order-preserving row encoding of t to dst:
// each column in order, Width bytes each.
func AppendTuple(dst []byte, t rel.Tuple) []byte {
	for _, v := range t {
		dst = binary.BigEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// DecodeTuple decodes one arity-column row from the front of b into a
// freshly allocated tuple.
func DecodeTuple(b []byte, arity int) (rel.Tuple, error) {
	if len(b) < arity*Width {
		return nil, fmt.Errorf("keys: row truncated: %d bytes, want %d", len(b), arity*Width)
	}
	t := make(rel.Tuple, arity)
	DecodeValues(t, b)
	return t, nil
}

// DecodeValues decodes len(dst) values from the front of b, Width
// big-endian bytes each: a single row, or a whole block of rows laid end
// to end. It panics if b holds fewer than len(dst)*Width bytes.
func DecodeValues(dst []rel.Value, b []byte) {
	for i := range dst {
		dst[i] = rel.Value(binary.BigEndian.Uint32(b[i*Width:]))
	}
}

// Compare orders two tuples of the same arity column-major, matching
// bytes.Compare on their encodings.
func Compare(a, b rel.Tuple) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// ComparePrefix orders t against a binding of its leading len(prefix)
// columns: negative if t sorts before every tuple with that prefix,
// zero if t has the prefix, positive if t sorts after the run.
func ComparePrefix(t rel.Tuple, prefix []rel.Value) int {
	for i, v := range prefix {
		if t[i] != v {
			if t[i] < v {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Sort sorts tuples in place into encoded-key order.
func Sort(ts []rel.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return Compare(ts[i], ts[j]) < 0 })
}
