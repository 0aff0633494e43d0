package rel

import (
	"math/rand"
	"testing"
)

// checkTable asserts that tab holds exactly the positions in want, each
// under its tag, and that every entry is reachable from its home slot
// without crossing an empty slot — the linear-probing invariant remove's
// backward shift must keep.
func checkTable(t *testing.T, tab *table, want map[int]uint32) {
	t.Helper()
	if tab.n != len(want) {
		t.Fatalf("n = %d, want %d", tab.n, len(want))
	}
	mask := len(tab.slots) - 1
	for i, e := range tab.slots {
		if e == 0 {
			continue
		}
		for j := int(e>>32) & mask; j != i; j = (j + 1) & mask {
			if tab.slots[j] == 0 {
				t.Fatalf("slot %d (home %d) is cut off by the empty slot %d", i, int(e>>32)&mask, j)
			}
		}
	}
	for pos, h := range want {
		if _, got := tab.find(h, func(p int) bool { return p == pos }); got != pos {
			t.Fatalf("find(position %d) = %d", pos, got)
		}
	}
}

// TestTableConstantTag drives the table with one tag whose home is the last
// slot at every size, so all entries share one probe run that wraps the
// end of the table; deleting from any point of it must shift the rest back.
func TestTableConstantTag(t *testing.T) {
	const h = ^uint32(0)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 6, 7, 12, 24} {
		for trial := 0; trial < 20; trial++ {
			var tab table
			want := map[int]uint32{}
			for pos := 1; pos <= n; pos++ {
				slot, got := tab.find(h, func(p int) bool { return p == pos })
				if got != 0 {
					t.Fatalf("find of absent position %d = %d", pos, got)
				}
				tab.put(slot, h, pos)
				want[pos] = h
			}
			checkTable(t, &tab, want)
			for _, pos := range rng.Perm(n) {
				pos++
				slot, got := tab.find(h, func(p int) bool { return p == pos })
				if got != pos {
					t.Fatalf("n=%d: find(%d) = %d before remove", n, pos, got)
				}
				tab.remove(slot)
				delete(want, pos)
				checkTable(t, &tab, want)
			}
			for i, e := range tab.slots {
				if e != 0 {
					t.Fatalf("n=%d: slot %d = %#x after removing every entry", n, i, e)
				}
			}
		}
	}
}

// TestTableMixedHomes mixes homes around the wrap point of an 8-slot table,
// so remove meets entries that must move back and entries that must stay
// (their home lies between the hole and them), and repoint keeps a tag.
func TestTableMixedHomes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	homes := []uint32{5, 6, 7, 0, 1}
	for trial := 0; trial < 2000; trial++ {
		var tab table
		want := map[int]uint32{}
		for pos := 1; pos <= 6; pos++ {
			h := homes[rng.Intn(len(homes))] | uint32(rng.Intn(4))<<8
			slot, _ := tab.find(h, never)
			tab.put(slot, h, pos)
			want[pos] = h
		}
		checkTable(t, &tab, want)
		if len(tab.slots) != 8 {
			t.Fatalf("6 entries grew the table to %d slots", len(tab.slots))
		}
		for _, pos := range rng.Perm(6) {
			pos++
			slot, _ := tab.find(want[pos], func(p int) bool { return p == pos })
			tab.remove(slot)
			delete(want, pos)
			checkTable(t, &tab, want)
			// Move some survivor to position 100+ and back, as Delete
			// repoints the row that fills a hole.
			for p, h := range want {
				s, _ := tab.find(h, func(q int) bool { return q == p })
				tab.repoint(s, 100+p)
				if _, got := tab.find(h, func(q int) bool { return q == 100+p }); got != 100+p {
					t.Fatalf("repoint lost position %d", p)
				}
				tab.repoint(s, p)
				break
			}
		}
	}
}
