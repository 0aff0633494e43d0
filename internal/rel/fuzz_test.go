package rel_test

import (
	"slices"
	"testing"

	"sepdl/internal/rel"
)

// fuzzDomain bounds tuple values, so decoded ops revisit the same tuples
// and index keys often: duplicates, re-inserts and shared buckets.
const fuzzDomain = 16

// fuzzCols are the index column sets FuzzRelationOps probes: a leading
// prefix (served from the cold range on a cold relation), a non-prefix
// column, and a reordered pair.
var fuzzCols = [][]int{{0}, {1}, {1, 0}}

// relModel is the map model a relation handle is checked against: its
// tuples, the cold base's tuples while the handle is still cold (nil once
// a delete thawed it), order, the in-RAM rows in position order, and
// baseOrder, the cold base's rows in key order.
type relModel struct {
	rows      map[[2]rel.Value]bool
	base      map[[2]rel.Value]bool
	order     [][2]rel.Value
	baseOrder [][2]rel.Value
}

func (m relModel) clone() relModel {
	rows := make(map[[2]rel.Value]bool, len(m.rows))
	for k := range m.rows {
		rows[k] = true
	}
	return relModel{rows: rows, base: m.base, order: slices.Clone(m.order), baseOrder: m.baseOrder}
}

// fuzzWindow is a window of the live handle and the model rows it must
// hold: the live rows lo..hi-1 when it was taken.
type fuzzWindow struct {
	w    *rel.Relation
	want [][2]rel.Value
}

// FuzzRelationOps decodes bytes into Insert, Delete, Snapshot, Index,
// cold-tuple Delete (thaw) and Window ops on one relation and, after every
// op, checks the live handle and every earlier snapshot against a map
// model: Len, Contains over the whole value domain, sorted Rows (in
// position order, on a resident handle), a drained Scan, and — for every
// index column set opened so far — Lookup, a drained Index.Scan and Probe
// of every key, and Buckets. Before each live-handle Insert or Delete it
// also takes a row view from the newest snapshot and checks afterwards
// that the write left the view unchanged. Windows of the resident live
// handle, at any (lo, hi), live until the next Delete; after every op each
// is checked against the model's position-order rows lo..hi-1 of when it
// was taken: Len, Contains over the domain, Row(i), a drained Scan, and
// Probe of every key of every opened index.
//
// Encoding: data[0] sizes the cold base (data[0]%16 tuples; 0 means a
// fully resident relation); then each op is three bytes, op%7 and two
// tuple values %16. Ops: 0 and 5 insert, 1 delete, 2 snapshot, 3 open the
// index fuzzCols[x%3], 4 delete the x-th base tuple, 6 take the window
// x..y-1 (bounds mod Len()+1, swapped when x > y).
func FuzzRelationOps(f *testing.F) {
	f.Add(wrapDeleteSeed())
	f.Add([]byte{5, 0, 9, 9, 3, 0, 0, 2, 0, 0, 4, 1, 0, 0, 1, 2, 1, 9, 9, 3, 1, 0, 3, 2, 0})
	f.Add([]byte{0, 3, 0, 0, 0, 1, 1, 0, 1, 2, 2, 0, 0, 1, 1, 1, 3, 1, 0, 0, 1, 2, 1, 1, 1})
	// A cold base under three overlay rows and a non-prefix index (a
	// private flat copy of base and overlay); deleting the first overlay
	// row moves the last one, in the relation and in that copy.
	f.Add([]byte{3, 0, 5, 5, 0, 6, 6, 0, 7, 7, 3, 1, 0, 1, 5, 5})
	// Key 2's bucket holds rows 1, 3 and 4 (1-based); deleting row 2 moves
	// row 4 into the hole, so the bucket must become 1, 2, 3 for Probe to
	// cut it by binary search. Windows over it, and one taken before the
	// delete, are then outgrown by inserts.
	f.Add([]byte{0, 3, 0, 0, 0, 2, 0, 0, 1, 0, 0, 2, 1, 6, 1, 3, 0, 2, 2,
		1, 1, 0, 6, 0, 2, 6, 1, 3, 0, 5, 5, 0, 2, 9, 3, 1, 0, 0, 4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 2048 {
			return
		}
		var baseRows []rel.Tuple
		m := relModel{rows: map[[2]rel.Value]bool{}}
		for i := 0; i < int(data[0]%16); i++ {
			tu := rel.Tuple{rel.Value(i / 3), rel.Value(i % 3)}
			baseRows = append(baseRows, tu)
			if m.base == nil {
				m.base = map[[2]rel.Value]bool{}
			}
			m.base[[2]rel.Value{tu[0], tu[1]}] = true
			m.rows[[2]rel.Value{tu[0], tu[1]}] = true
		}
		var r *rel.Relation
		if baseRows != nil {
			base := newSliceBase(baseRows)
			r = rel.NewCold(2, base)
			for _, tu := range base.rows {
				m.baseOrder = append(m.baseOrder, [2]rel.Value{tu[0], tu[1]})
			}
		} else {
			r = rel.New(2)
		}
		var wins []fuzzWindow
		snaps := []*rel.Relation{}
		models := []relModel{}
		opened := make([]bool, len(fuzzCols))
		for i := 1; i+2 < len(data); i += 3 {
			x, y := rel.Value(data[i+1]%fuzzDomain), rel.Value(data[i+2]%fuzzDomain)
			k := [2]rel.Value{x, y}
			// A row view of the newest snapshot, which no write through
			// the live handle may change.
			var view, was rel.Tuple
			if n := len(snaps); n > 0 && snaps[n-1].Len() > 0 {
				view = snaps[n-1].Row(int(x) % snaps[n-1].Len())
				was = view.Clone()
			}
			switch data[i] % 7 {
			case 0, 5:
				if got := r.Insert(rel.Tuple{x, y}); got == m.rows[k] {
					t.Fatalf("op %d: Insert(%v) = %v with the tuple present = %v", (i-1)/3, k, got, m.rows[k])
				}
				if !m.rows[k] {
					m.order = append(m.order, k)
				}
				m.rows[k] = true
			case 1:
				wins = nil
				m = modelDelete(t, r, m, k)
			case 2:
				if len(snaps) < 8 {
					snaps = append(snaps, r.Snapshot())
					models = append(models, m.clone())
				}
			case 3:
				opened[int(x)%len(fuzzCols)] = true
			case 4:
				if len(baseRows) > 0 {
					wins = nil
					b := baseRows[int(x)%len(baseRows)]
					m = modelDelete(t, r, m, [2]rel.Value{b[0], b[1]})
				}
			case 6:
				if r.Cold() == nil && len(wins) < 8 {
					lo, hi := int(x)%(r.Len()+1), int(y)%(r.Len()+1)
					if lo > hi {
						lo, hi = hi, lo
					}
					wins = append(wins, fuzzWindow{r.Window(lo, hi), slices.Clone(m.order[lo:hi])})
				}
			}
			op := (i - 1) / 3
			if !view.Equal(was) {
				t.Fatalf("op %d: a live-handle write changed snapshot row %v to %v", op, was, view)
			}
			checkHandle(t, op, "live", r, m, opened)
			for j, s := range snaps {
				checkHandle(t, op, "snapshot", s, models[j], opened)
			}
			for _, w := range wins {
				checkWindow(t, op, w, opened)
			}
		}
	})
}

// checkWindow checks a window against the rows it was cut to, in order.
func checkWindow(t *testing.T, op int, fw fuzzWindow, opened []bool) {
	t.Helper()
	w, want := fw.w, fw.want
	if w.Len() != len(want) {
		t.Fatalf("op %d: window Len = %d, model %d", op, w.Len(), len(want))
	}
	in := map[[2]rel.Value]bool{}
	rows := make([]rel.Tuple, len(want))
	for i, k := range want {
		in[k] = true
		rows[i] = rel.Tuple{k[0], k[1]}
		if !w.Row(i).Equal(rows[i]) {
			t.Fatalf("op %d: window Row(%d) = %v, model %v", op, i, w.Row(i), k)
		}
	}
	for a := rel.Value(0); a < fuzzDomain; a++ {
		for b := rel.Value(0); b < fuzzDomain; b++ {
			if k := [2]rel.Value{a, b}; w.Contains(rel.Tuple{a, b}) != in[k] {
				t.Fatalf("op %d: window Contains(%v) = %v, model %v", op, k, !in[k], in[k])
			}
		}
	}
	if got := drainScan(w.Scan()); !slices.EqualFunc(got, rows, rel.Tuple.Equal) {
		t.Fatalf("op %d: window Scan = %v, model %v", op, got, rows)
	}
	for ci, cols := range fuzzCols {
		if !opened[ci] {
			continue
		}
		exp := map[[2]rel.Value][]rel.Tuple{}
		for i, k := range want {
			key := fuzzKey(k, cols)
			exp[key] = append(exp[key], rows[i])
		}
		for a := 0; a < fuzzDomain; a++ {
			for b := 0; b < fuzzDomain; b++ {
				if len(cols) == 1 && b > 0 {
					break
				}
				key := [2]rel.Value{rel.Value(a), rel.Value(b)}
				if got := drainScan(w.Probe(cols, key[:len(cols)])); !slices.EqualFunc(got, exp[key], rel.Tuple.Equal) {
					t.Fatalf("op %d: window Probe(%v, %v) = %v, model %v", op, cols, key[:len(cols)], got, exp[key])
				}
			}
		}
	}
}

// modelDelete deletes k from r and from the model; deleting a tuple the
// cold base still serves thaws the relation, whose rows are then the base
// rows in key order followed by the overlay rows. The relation's last row
// moves into the deleted row's position.
func modelDelete(t *testing.T, r *rel.Relation, m relModel, k [2]rel.Value) relModel {
	t.Helper()
	if got := r.Delete(rel.Tuple{k[0], k[1]}); got != m.rows[k] {
		t.Fatalf("Delete(%v) = %v with the tuple present = %v", k, got, m.rows[k])
	}
	if m.base[k] && m.rows[k] {
		m.base = nil
		m.order = append(slices.Clone(m.baseOrder), m.order...)
	}
	if p := slices.Index(m.order, k); p >= 0 {
		last := len(m.order) - 1
		m.order[p] = m.order[last]
		m.order = m.order[:last]
	}
	delete(m.rows, k)
	return m
}

func checkHandle(t *testing.T, op int, which string, r *rel.Relation, m relModel, opened []bool) {
	t.Helper()
	if r.Len() != len(m.rows) {
		t.Fatalf("op %d: %s Len = %d, model %d", op, which, r.Len(), len(m.rows))
	}
	want := make([]rel.Tuple, 0, len(m.rows))
	for a := rel.Value(0); a < fuzzDomain; a++ {
		for b := rel.Value(0); b < fuzzDomain; b++ {
			k := [2]rel.Value{a, b}
			if r.Contains(rel.Tuple{a, b}) != m.rows[k] {
				t.Fatalf("op %d: %s Contains(%v) = %v, model %v", op, which, k, !m.rows[k], m.rows[k])
			}
			if m.rows[k] {
				want = append(want, rel.Tuple{a, b})
			}
		}
	}
	if got := sortedRows(r.Rows()); !equalRows(got, want) {
		t.Fatalf("op %d: %s Rows = %v, model %v", op, which, got, want)
	}
	if r.Cold() == nil {
		for i, k := range m.order {
			if !r.Row(i).Equal(rel.Tuple{k[0], k[1]}) {
				t.Fatalf("op %d: %s Row(%d) = %v, model %v", op, which, i, r.Row(i), k)
			}
		}
	}
	if got := sortedRows(drainScan(r.Scan())); !equalRows(got, want) {
		t.Fatalf("op %d: %s Scan = %v, model %v", op, which, got, want)
	}
	for ci, cols := range fuzzCols {
		if !opened[ci] {
			continue
		}
		idx := r.Index(cols)
		// Buckets counts the keys the index holds in RAM: on a cold
		// relation a leading-prefix index buckets only the overlay.
		inRAM := map[[2]rel.Value]bool{}
		var probe [fuzzDomain * fuzzDomain][]rel.Tuple
		for k := range m.rows {
			if m.base == nil || cols[0] != 0 || !m.base[k] {
				inRAM[fuzzKey(k, cols)] = true
			}
			key := fuzzKey(k, cols)
			probe[int(key[0])*fuzzDomain+int(key[1])] = append(probe[int(key[0])*fuzzDomain+int(key[1])], rel.Tuple{k[0], k[1]})
		}
		if idx.Buckets() != len(inRAM) {
			t.Fatalf("op %d: %s Index(%v).Buckets = %d, model %d", op, which, cols, idx.Buckets(), len(inRAM))
		}
		for a := 0; a < fuzzDomain; a++ {
			for b := 0; b < fuzzDomain; b++ {
				if len(cols) == 1 && b > 0 {
					break
				}
				vals := []rel.Value{rel.Value(a), rel.Value(b)}[:len(cols)]
				got, want := sortedRows(idx.Lookup(vals)), sortedRows(probe[a*fuzzDomain+b])
				if !equalRows(got, want) {
					t.Fatalf("op %d: %s Index(%v).Lookup(%v) = %v, model %v", op, which, cols, vals, got, want)
				}
				if got := sortedRows(drainScan(idx.Scan(vals))); !equalRows(got, want) {
					t.Fatalf("op %d: %s Index(%v).Scan(%v) = %v, model %v", op, which, cols, vals, got, want)
				}
				if got := sortedRows(drainScan(r.Probe(cols, vals))); !equalRows(got, want) {
					t.Fatalf("op %d: %s Probe(%v, %v) = %v, model %v", op, which, cols, vals, got, want)
				}
			}
		}
	}
}

// drainScan collects every tuple s yields.
func drainScan(s rel.Scan) []rel.Tuple {
	var out []rel.Tuple
	for t, ok := s.Next(); ok; t, ok = s.Next() {
		out = append(out, t)
	}
	return out
}

// fuzzKey is k's index key under cols, padded to two values.
func fuzzKey(k [2]rel.Value, cols []int) [2]rel.Value {
	var key [2]rel.Value
	for i, c := range cols {
		key[i] = k[c]
	}
	return key
}

// wrapDeleteSeed builds the seed input that deletes inside probe runs
// wrapping the end of the row table. Forty rounds each insert six fresh
// tuples into the 8-slot table (its last load before doubling) and delete
// them again. Hash homes are random per process, but each round fills the
// last slot and slot 0 — one run wrapping the end — with probability about
// one half, so some round wraps in all but a vanishing share of
// processes. An index over column 1 and a snapshot ride along, so the
// deletes also maintain an index bucket table and detach shared slots.
func wrapDeleteSeed() []byte {
	data := []byte{0, 3, 1, 0}
	for round := 0; round < 40; round++ {
		var ts [6][2]byte
		for j := range ts {
			n := round*6 + j
			ts[j] = [2]byte{byte(n / fuzzDomain), byte(n % fuzzDomain)}
		}
		for _, tu := range ts {
			data = append(data, 0, tu[0], tu[1])
		}
		if round == 20 {
			data = append(data, 2, 0, 0)
		}
		for j := range ts {
			tu := ts[(j*5+round)%6]
			data = append(data, 1, tu[0], tu[1])
		}
	}
	return data
}
