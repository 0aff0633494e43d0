// Package segment implements the checkpoints and the cold tier of the
// storage engine: immutable sorted segment files built from checkpoints,
// the marker file that commits each one, and the codec through which the
// write-ahead log (internal/wal) writes, verifies and recovers them.
//
// A segment file holds one checkpoint's entire extensional database in a
// queryable layout: for every predicate, all tuples in ascending
// order-preserving key order (internal/keys: column-major, big-endian
// words), chunked into CRC-checked blocks, plus the symbol table that
// interned the values (segment rows store interned ids, so the id→name
// mapping must travel with the file). Because rows are sorted by the
// order-preserving encoding, a query binding the leading k columns of a
// predicate is one contiguous key range: the reader binary-searches the
// block directory for the range's first block and streams rows until the
// prefix stops matching, decoding (and caching) only the blocks the range
// touches.
//
// File layout (all directory integers little-endian, row cells big-endian
// per internal/keys):
//
//	"sepseg1\n"                                  8-byte header magic
//	symbol blocks: uvarint-length-prefixed names, concatenated
//	data blocks:   arity×4-byte rows, sorted, concatenated
//	index:         symbol directory + predicate directory (see below)
//	footer:        index offset u64 | index len u32 | index CRC32C u32 |
//	               "sepseg1E"                     8-byte tail magic
//
// The index records, per symbol block and per predicate data block, its
// offset, length, CRC32C, and row count, and per data block the first and
// last row — enough to route a key-range scan to exactly the blocks it
// intersects without touching the others. Segment and marker reach disk
// through one function, publish: tmp → fsync → rename → directory fsync,
// every write and fsync through the Hooks fault injection plugs into, so
// a crashed build leaves at most an ignorable *.tmp file.
package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"sepdl/internal/rel"
)

const (
	headMagic = "sepseg1\n"
	tailMagic = "sepseg1E"
	// footerLen is the fixed trailer: index offset + len + CRC + magic.
	footerLen = 8 + 4 + 4 + 8

	// DefaultBlockBytes is the target payload size of one block: big
	// enough to amortize the read + CRC per block, small enough that a
	// selective range scan decodes little beyond what it needs.
	DefaultBlockBytes = 32 << 10

	// DefaultCacheBytes is the default decoded-block cache budget.
	DefaultCacheBytes = 32 << 20
)

// castagnoli is the CRC32C table (same polynomial as the WAL's records).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// blockMeta describes one data (or symbol) block in the index.
type blockMeta struct {
	off   int64
	len   uint32
	crc   uint32
	count uint32
	// first and last bracket the block's rows in key order (nil for
	// symbol blocks), letting range scans skip blocks wholesale.
	first, last rel.Tuple
}

// predMeta is one predicate's entry in the index.
type predMeta struct {
	name   string
	arity  int
	count  uint64
	blocks []blockMeta
}

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// reader is a bounds-checked cursor over an index buffer; the first
// failed read poisons it so parse code can check errors once at the end.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = fmt.Errorf("segment: index truncated at byte %d", r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("segment: bad uvarint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}
