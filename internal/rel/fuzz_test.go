package rel_test

import (
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
// tuples, and the cold base's tuples while the handle is still cold (nil
// once a delete thawed it).
type relModel struct {
	rows map[[2]rel.Value]bool
	base map[[2]rel.Value]bool
}

func (m relModel) clone() relModel {
	rows := make(map[[2]rel.Value]bool, len(m.rows))
	for k := range m.rows {
		rows[k] = true
	}
	return relModel{rows: rows, base: m.base}
}

// FuzzRelationOps decodes bytes into Insert, Delete, Snapshot, Index and
// cold-tuple Delete (thaw) ops on one relation and, after every op, checks
// the live handle and every earlier snapshot against a map model: Len,
// Contains over the whole value domain, sorted Rows, and — for every index
// column set opened so far — Lookup of every key and Buckets.
//
// Encoding: data[0] sizes the cold base (data[0]%16 tuples; 0 means a
// fully resident relation); then each op is three bytes, op%6 and two
// tuple values %16. Ops: 0 and 5 insert, 1 delete, 2 snapshot, 3 open the
// index fuzzCols[x%3], 4 delete the x-th base tuple.
func FuzzRelationOps(f *testing.F) {
	f.Add(wrapDeleteSeed())
	f.Add([]byte{5, 0, 9, 9, 3, 0, 0, 2, 0, 0, 4, 1, 0, 0, 1, 2, 1, 9, 9, 3, 1, 0, 3, 2, 0})
	f.Add([]byte{0, 3, 0, 0, 0, 1, 1, 0, 1, 2, 2, 0, 0, 1, 1, 1, 3, 1, 0, 0, 1, 2, 1, 1, 1})
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
			r = rel.NewCold(2, newSliceBase(baseRows))
		} else {
			r = rel.New(2)
		}
		snaps := []*rel.Relation{}
		models := []relModel{}
		opened := make([]bool, len(fuzzCols))
		for i := 1; i+2 < len(data); i += 3 {
			x, y := rel.Value(data[i+1]%fuzzDomain), rel.Value(data[i+2]%fuzzDomain)
			k := [2]rel.Value{x, y}
			switch data[i] % 6 {
			case 0, 5:
				if got := r.Insert(rel.Tuple{x, y}); got == m.rows[k] {
					t.Fatalf("op %d: Insert(%v) = %v with the tuple present = %v", (i-1)/3, k, got, m.rows[k])
				}
				m.rows[k] = true
			case 1:
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
					b := baseRows[int(x)%len(baseRows)]
					m = modelDelete(t, r, m, [2]rel.Value{b[0], b[1]})
				}
			}
			op := (i - 1) / 3
			checkHandle(t, op, "live", r, m, opened)
			for j, s := range snaps {
				checkHandle(t, op, "snapshot", s, models[j], opened)
			}
		}
	})
}

// modelDelete deletes k from r and from the model; deleting a tuple the
// cold base still serves thaws the relation.
func modelDelete(t *testing.T, r *rel.Relation, m relModel, k [2]rel.Value) relModel {
	t.Helper()
	if got := r.Delete(rel.Tuple{k[0], k[1]}); got != m.rows[k] {
		t.Fatalf("Delete(%v) = %v with the tuple present = %v", k, got, m.rows[k])
	}
	if m.base[k] && m.rows[k] {
		m.base = nil
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
			}
		}
	}
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
