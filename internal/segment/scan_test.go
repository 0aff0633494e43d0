package segment

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"sepdl/internal/database"
	"sepdl/internal/keys"
	"sepdl/internal/leakcheck"
	"sepdl/internal/rel"
)

// buildRun writes a segment holding one arity-2 predicate "e" whose n
// rows all share the leading value k, so Scan([k]) is a run over every
// block. It returns the file path and k.
func buildRun(tb testing.TB, n, blockBytes int) (string, rel.Value) {
	tb.Helper()
	db := database.New()
	r, err := db.Ensure("e", 2)
	if err != nil {
		tb.Fatal(err)
	}
	st := db.SymbolTable()
	k := st.Intern("k")
	for i := 0; i < n; i++ {
		r.Insert(rel.Tuple{k, st.Intern(fmt.Sprintf("v%05d", i))})
	}
	path := filepath.Join(tb.TempDir(), "seg-0000000000000001.seg")
	if err := Build(path, db, blockBytes); err != nil {
		tb.Fatalf("Build: %v", err)
	}
	return path, k
}

func count(c rel.Cursor) int {
	n := 0
	for _, ok := c.Next(); ok; _, ok = c.Next() {
		n++
	}
	return n
}

// TestCacheChargesPayloadBytes: a block is charged its on-disk payload
// (4 B per value), so a budget of exactly the table's payload bytes keeps
// every block: one scan misses each block once, a second scan hits each.
// Charging decoded tuple headers on top would evict most of them.
func TestCacheChargesPayloadBytes(t *testing.T) {
	leakcheck.CheckResources(t)
	path, _ := buildRun(t, 400, 256)
	probe := mustOpen(t, path, nil)
	tab, _, _ := probe.Table("e")
	var budget int64
	for _, m := range tab.pm.blocks {
		budget += int64(m.len)
	}
	k := uint64(len(tab.pm.blocks))
	if k < 4 {
		t.Fatalf("fixture has %d blocks, want several", k)
	}

	cache := NewCache(budget)
	s := mustOpen(t, path, cache)
	tab, _, _ = s.Table("e")
	if n := count(tab.Scan(nil)); n != 400 {
		t.Fatalf("first scan: %d rows, want 400", n)
	}
	if h, m, _ := cache.Stats(); h != 0 || m != k {
		t.Fatalf("first scan: hits=%d misses=%d, want 0 and %d", h, m, k)
	}
	if cache.bytes != budget {
		t.Fatalf("cache charges %d bytes for %d blocks, want their payload %d", cache.bytes, k, budget)
	}
	count(tab.Scan(nil))
	if h, m, _ := cache.Stats(); h != k || m != k {
		t.Fatalf("second scan: hits=%d misses=%d, want %d and %d", h, m, k, k)
	}
}

// TestWarmScanNoPerRowAllocs: with every block cached, a full prefix scan
// allocates the cursor and its prefix copy and nothing per row or block.
func TestWarmScanNoPerRowAllocs(t *testing.T) {
	leakcheck.CheckResources(t)
	path, k := buildRun(t, 400, 256)
	s := mustOpen(t, path, NewCache(1<<20))
	tab, _, _ := s.Table("e")
	prefix := []rel.Value{k}
	count(tab.Scan(prefix)) // warm the cache
	allocs := testing.AllocsPerRun(20, func() {
		if n := count(tab.Scan(prefix)); n != 400 {
			panic(fmt.Sprintf("warm scan: %d rows, want 400", n))
		}
	})
	if allocs > 2 {
		t.Fatalf("warm scan of 400 rows: %.1f allocs, want <= 2 (cursor and prefix copy)", allocs)
	}
}

// benchScan drains a full scan of a 16 384-row, 4-block arity-2 table at
// the default block size per op, through a cache of the given budget.
func benchScan(b *testing.B, budget int64) {
	path, _ := buildRun(b, 4*DefaultBlockBytes/(2*keys.Width), DefaultBlockBytes)
	s, err := Open(path, NewCache(budget))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tab, _, _ := s.Table("e")
	count(tab.Scan(nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanRows = count(tab.Scan(nil))
	}
}

// scanRows keeps the benchmarked scans observable to the compiler.
var scanRows int

func BenchmarkTableScanWarm(b *testing.B) { benchScan(b, 1<<20) }

// BenchmarkTableScanMiss disables retention, so every block is read,
// CRC-checked and decoded on every op.
func BenchmarkTableScanMiss(b *testing.B) { benchScan(b, 0) }

// FuzzSegmentScan builds a segment from a fuzzed tuple set (arity 1-3
// over six values, 64-256-byte blocks, so prefix runs repeat and straddle
// block boundaries) and checks the reader against a sorted model under a
// disabled cache, a one-byte cache (only the newest block survives) and a
// warm 1 MiB cache: every prefix over the six values plus one absent
// value scans to exactly the model's run, Remaining never falls below the
// rows still to come, and Contains agrees with the model on every tuple.
func FuzzSegmentScan(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 600)
	rng.Read(buf)
	f.Add(byte(0), byte(0), []byte{})
	f.Add(byte(0), byte(0), buf[:40])
	f.Add(byte(1), byte(0), buf)
	f.Add(byte(1), byte(192), buf)
	f.Add(byte(2), byte(64), buf)
	f.Add(byte(2), byte(0), buf[:90])
	f.Fuzz(func(t *testing.T, arityB, blockB byte, data []byte) {
		leakcheck.CheckResources(t)
		arity := 1 + int(arityB%3)
		blockBytes := 64 + int(blockB)%193
		const domain = 6

		db := database.New()
		st := db.SymbolTable()
		vals := make([]rel.Value, domain+1) // vals[domain] is never stored
		for i := range vals {
			vals[i] = st.Intern(fmt.Sprintf("c%d", i))
		}
		r, err := db.Ensure("r", arity)
		if err != nil {
			t.Fatal(err)
		}
		var model []rel.Tuple
		for ; len(data) >= arity; data = data[arity:] {
			tu := make(rel.Tuple, arity)
			for j := range tu {
				tu[j] = vals[int(data[j])%domain]
			}
			if r.Insert(tu) {
				model = append(model, tu)
			}
		}
		keys.Sort(model)
		path := filepath.Join(t.TempDir(), "seg-0000000000000001.seg")
		if err := Build(path, db, blockBytes); err != nil {
			t.Fatalf("Build: %v", err)
		}

		probes := allPrefixes(vals, arity)
		for _, budget := range []int64{0, 1, 1 << 20} {
			s, err := Open(path, NewCache(budget))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			tab, _, ok := s.Table("r")
			if !ok {
				s.Close()
				if len(model) > 0 {
					t.Fatalf("budget %d: table missing with %d rows", budget, len(model))
				}
				continue
			}
			for _, p := range probes {
				checkScan(t, budget, tab, p, model)
				if len(p) == arity {
					want := false
					for _, tu := range model {
						want = want || hasPrefix(tu, p)
					}
					if got := tab.Contains(rel.Tuple(p)); got != want {
						t.Fatalf("budget %d: Contains(%v) = %v, want %v", budget, p, got, want)
					}
				}
			}
			s.Close()
		}
	})
}

// allPrefixes returns every sequence over vals of length 0..n.
func allPrefixes(vals []rel.Value, n int) [][]rel.Value {
	out, level := [][]rel.Value{nil}, [][]rel.Value{nil}
	for k := 0; k < n; k++ {
		var next [][]rel.Value
		for _, p := range level {
			for _, v := range vals {
				next = append(next, append(append([]rel.Value(nil), p...), v))
			}
		}
		out, level = append(out, next...), next
	}
	return out
}

func hasPrefix(tu rel.Tuple, p []rel.Value) bool {
	for i, v := range p {
		if tu[i] != v {
			return false
		}
	}
	return true
}

func checkScan(t *testing.T, budget int64, tab *Table, p []rel.Value, model []rel.Tuple) {
	t.Helper()
	var want []rel.Tuple
	for _, tu := range model {
		if hasPrefix(tu, p) {
			want = append(want, tu)
		}
	}
	cur := tab.Scan(p)
	for i := 0; ; i++ {
		if rem := cur.Remaining(); rem < len(want)-i {
			t.Fatalf("budget %d, prefix %v: Remaining = %d before row %d of %d", budget, p, rem, i, len(want))
		}
		tu, ok := cur.Next()
		if !ok {
			if i != len(want) {
				t.Fatalf("budget %d, prefix %v: %d rows, want %d", budget, p, i, len(want))
			}
			break
		}
		if i >= len(want) {
			t.Fatalf("budget %d, prefix %v: row %d = %v past the %d wanted", budget, p, i, tu, len(want))
		}
		if len(tu) != len(want[i]) || keys.Compare(tu, want[i]) != 0 {
			t.Fatalf("budget %d, prefix %v: row %d = %v, want %v", budget, p, i, tu, want[i])
		}
		if cap(tu) != len(tu) {
			t.Fatalf("budget %d, prefix %v: row %d has cap %d, want %d", budget, p, i, cap(tu), len(tu))
		}
	}
	if rem := cur.Remaining(); rem != 0 {
		t.Fatalf("budget %d, prefix %v: Remaining = %d after exhaustion", budget, p, rem)
	}
}
