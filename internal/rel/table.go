package rel

import (
	"math/bits"
	"math/rand/v2"
)

// hashSeed keys every tuple hash. It is drawn once per process, so input
// from outside cannot be chosen to collide — the protection Go's maps give
// their keys.
var hashSeed = rand.Uint64()

const (
	hashMul1 = 0xa0761d6478bd642f
	hashMul2 = 0xe7037ed1a0b428db
)

// mix folds the 128-bit product of a and b into 64 bits.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// hashVals hashes a value vector to a 32-bit tag.
func hashVals(vals []Value) uint32 {
	h := hashSeed
	for _, v := range vals {
		h = mix(h^uint64(uint32(v)), hashMul1)
	}
	return uint32(mix(h, hashMul2))
}

// hashCols hashes the values of t at cols; it equals hashVals of those
// values in cols order, so an index probe vector hashes like the tuples
// bucketed under it.
func hashCols(t Tuple, cols []int) uint32 {
	h := hashSeed
	for _, c := range cols {
		h = mix(h^uint64(uint32(t[c])), hashMul1)
	}
	return uint32(mix(h, hashMul2))
}

// table is an open-addressing hash table of 1-based positions into an array
// its owner keeps: a relation's rows, an index's buckets. Each slot packs an
// entry's 32-bit hash tag (high half) with its position (low half); 0 marks
// an empty slot. Probing is linear, deletion shifts the rest of the probe
// run back instead of leaving tombstones, and the table doubles past 3/4
// load. An entry's home slot is its tag masked to the table size, so
// growing re-places entries from their stored tags without rehashing.
//
// The zero value is an empty table. A table value may be copied to share
// its slots (a snapshot does); find is read-only and safe for concurrent
// readers, while put, repoint and remove need the slots unshared.
type table struct {
	slots []uint64
	n     int // occupied slots
}

// find probes for the entry with tag h whose position satisfies eq and
// returns its slot and position. When there is none it returns position 0
// and the empty slot that ended the probe, where put may store the entry.
func (t *table) find(h uint32, eq func(pos int) bool) (slot, pos int) {
	mask := len(t.slots) - 1
	if mask < 0 {
		return 0, 0
	}
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			return i, 0
		}
		if uint32(e>>32) == h && eq(int(uint32(e))) {
			return i, int(uint32(e))
		}
	}
}

func never(int) bool { return false }

// put stores position pos under tag h in slot, the empty slot a failed find
// returned, growing the table first when the entry would pass 3/4 load.
func (t *table) put(slot int, h uint32, pos int) {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]uint64, max(8, 2*len(old)))
		for _, e := range old {
			if e != 0 {
				s, _ := t.find(uint32(e>>32), never)
				t.slots[s] = e
			}
		}
		slot, _ = t.find(h, never)
	}
	t.slots[slot] = uint64(h)<<32 | uint64(uint32(pos))
	t.n++
}

// repoint makes the entry in slot refer to position pos.
func (t *table) repoint(slot, pos int) {
	t.slots[slot] = t.slots[slot]&^0xffffffff | uint64(uint32(pos))
}

// remove empties slot, then walks the rest of its probe run and moves back
// every entry whose home does not lie between the hole and the entry, so
// each entry stays reachable from its home without crossing an empty slot.
func (t *table) remove(slot int) {
	mask := len(t.slots) - 1
	for i := (slot + 1) & mask; t.slots[i] != 0; i = (i + 1) & mask {
		home := int(t.slots[i]>>32) & mask
		if (i-home)&mask >= (i-slot)&mask {
			t.slots[slot] = t.slots[i]
			slot = i
		}
	}
	t.slots[slot] = 0
	t.n--
}
