package segment

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sepdl/internal/database"
	"sepdl/internal/keys"
	"sepdl/internal/leakcheck"
	"sepdl/internal/rel"
)

// buildDB populates a database with deterministic pseudo-random facts and
// returns it alongside the flat pred -> sorted rows oracle.
func buildDB(t *testing.T, seed int64, preds map[string]int, perPred int) (*database.Database, map[string][]rel.Tuple) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := database.New()
	oracle := map[string][]rel.Tuple{}
	for pred, arity := range preds {
		r, err := db.Ensure(pred, arity)
		if err != nil {
			t.Fatal(err)
		}
		// Cap the target by the key space so the generator terminates on
		// low-arity predicates.
		space := 1
		for i := 0; i < arity && space < 4*perPred; i++ {
			space *= 40
		}
		n := perPred
		if n > space/2 {
			n = space / 2
		}
		seen := map[string]bool{}
		for len(oracle[pred]) < n {
			args := make([]string, arity)
			tu := make(rel.Tuple, arity)
			for i := range args {
				args[i] = fmt.Sprintf("c%03d", rng.Intn(40))
			}
			for i, a := range args {
				tu[i] = db.SymbolTable().Intern(a)
			}
			k := fmt.Sprint(tu)
			if seen[k] {
				continue
			}
			seen[k] = true
			r.Insert(tu)
			oracle[pred] = append(oracle[pred], tu)
		}
		keys.Sort(oracle[pred])
	}
	return db, oracle
}

func mustBuild(t *testing.T, path string, state database.CheckpointState, blockBytes int) {
	t.Helper()
	if err := Build(path, state, blockBytes); err != nil {
		t.Fatalf("Build: %v", err)
	}
}

func mustOpen(t *testing.T, path string, cache *Cache) *Set {
	t.Helper()
	s, err := Open(path, cache)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func drain(c rel.Cursor) []rel.Tuple {
	var out []rel.Tuple
	for t, ok := c.Next(); ok; t, ok = c.Next() {
		out = append(out, t)
	}
	return out
}

// TestRoundTrip: build a multi-predicate, multi-block segment and read
// every tuple back in sorted order, symbols intact.
func TestRoundTrip(t *testing.T) {
	leakcheck.CheckResources(t)
	db, oracle := buildDB(t, 1, map[string]int{"edge": 2, "label": 3, "node": 1}, 500)
	path := filepath.Join(t.TempDir(), "seg-0000000000000001.seg")
	// Tiny blocks force multi-block predicates (500 rows * 8-12 B/row).
	mustBuild(t, path, db, 256)

	s := mustOpen(t, path, NewCache(1<<20))
	if err := s.VerifyData(nil); err != nil {
		t.Fatalf("VerifyData: %v", err)
	}
	wantPreds := []string{"edge", "label", "node"}
	gotPreds := append([]string(nil), s.Preds()...)
	sort.Strings(gotPreds)
	if fmt.Sprint(gotPreds) != fmt.Sprint(wantPreds) {
		t.Fatalf("Preds = %v, want %v", gotPreds, wantPreds)
	}
	for _, name := range db.SymbolTable().Names() {
		found := false
		for _, s2 := range s.Symbols() {
			if s2 == name {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("symbol %q missing from segment", name)
		}
	}
	for pred, rows := range oracle {
		tab, arity, ok := s.Table(pred)
		if !ok {
			t.Fatalf("Table(%s) missing", pred)
		}
		if arity != len(rows[0]) {
			t.Fatalf("Table(%s) arity = %d, want %d", pred, arity, len(rows[0]))
		}
		if tab.Len() != len(rows) {
			t.Fatalf("Table(%s).Len = %d, want %d", pred, tab.Len(), len(rows))
		}
		got := drain(tab.Scan(nil))
		if len(got) != len(rows) {
			t.Fatalf("Scan(%s) yielded %d rows, want %d", pred, len(got), len(rows))
		}
		for i := range got {
			if keys.Compare(got[i], rows[i]) != 0 {
				t.Fatalf("Scan(%s)[%d] = %v, want %v (sorted order broken?)", pred, i, got[i], rows[i])
			}
		}
		sample := rows
		if len(sample) > 50 {
			sample = sample[:50]
		}
		for _, tu := range sample {
			if !tab.Contains(tu) {
				t.Fatalf("Contains(%s %v) = false", pred, tu)
			}
		}
		if tab.Contains(make(rel.Tuple, arity)) && !containsOracle(rows, make(rel.Tuple, arity)) {
			t.Fatal("Contains of absent tuple = true")
		}
	}
}

func containsOracle(rows []rel.Tuple, tu rel.Tuple) bool {
	for _, r := range rows {
		if keys.Compare(r, tu) == 0 {
			return true
		}
	}
	return false
}

// TestPrefixScan: every bound-prefix probe over a multi-block table
// yields exactly the oracle's matching run, in order, and Remaining
// never underestimates.
func TestPrefixScan(t *testing.T) {
	leakcheck.CheckResources(t)
	db, oracle := buildDB(t, 2, map[string]int{"r": 3}, 800)
	path := filepath.Join(t.TempDir(), "seg-0000000000000001.seg")
	mustBuild(t, path, db, 128) // many small blocks: probe runs cross blocks

	s := mustOpen(t, path, NewCache(1<<20))
	tab, _, _ := s.Table("r")
	rows := oracle["r"]
	for v1 := 0; v1 < 45; v1++ {
		for _, prefix := range [][]rel.Value{
			{rel.Value(v1)},
			{rel.Value(v1), rel.Value(v1 % 7)},
		} {
			var want []rel.Tuple
			for _, tu := range rows {
				if keys.ComparePrefix(tu, prefix) == 0 {
					want = append(want, tu)
				}
			}
			cur := tab.Scan(prefix)
			if cur.Remaining() < len(want) {
				t.Fatalf("prefix %v: Remaining = %d underestimates %d", prefix, cur.Remaining(), len(want))
			}
			got := drain(cur)
			if len(got) != len(want) {
				t.Fatalf("prefix %v: %d rows, want %d", prefix, len(got), len(want))
			}
			for i := range got {
				if keys.Compare(got[i], want[i]) != 0 {
					t.Fatalf("prefix %v row %d: %v, want %v", prefix, i, got[i], want[i])
				}
			}
			if cur.Remaining() != 0 {
				t.Fatalf("prefix %v: Remaining = %d after exhaustion", prefix, cur.Remaining())
			}
		}
	}
}

// TestZeroArity: nullary predicates carry no bytes, only a count, and
// scan as unit tuples.
func TestZeroArity(t *testing.T) {
	leakcheck.CheckResources(t)
	db := database.New()
	if _, err := db.AddFact("flag"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "seg-0000000000000001.seg")
	mustBuild(t, path, db, DefaultBlockBytes)
	s := mustOpen(t, path, nil)
	tab, arity, ok := s.Table("flag")
	if !ok || arity != 0 || tab.Len() != 1 {
		t.Fatalf("flag table: ok=%v arity=%d len=%d", ok, arity, tab.Len())
	}
	got := drain(tab.Scan(nil))
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("nullary scan = %v", got)
	}
}

// TestOverlayMerge: a segment built from a cold relation merges the cold
// base and the overlay into one sorted run (the compaction step of a
// second checkpoint).
func TestOverlayMerge(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	db, oracle := buildDB(t, 3, map[string]int{"e": 2}, 300)
	p1 := filepath.Join(dir, "seg-0000000000000001.seg")
	mustBuild(t, p1, db, 256)
	s1 := mustOpen(t, p1, NewCache(1<<20))
	tab, _, _ := s1.Table("e")

	// Rebase onto the segment, add an overlay, build a second segment.
	if err := db.SetCold("e", 2, tab); err != nil {
		t.Fatal(err)
	}
	r := db.Relation("e")
	extra := []rel.Tuple{}
	for i := 0; i < 100; i++ {
		tu := rel.Tuple{db.SymbolTable().Intern(fmt.Sprintf("x%d", i)), rel.Value(i)}
		if r.Insert(tu) {
			extra = append(extra, tu)
		}
	}
	if r.OverlayLen() != len(extra) {
		t.Fatalf("overlay holds %d rows, want %d", r.OverlayLen(), len(extra))
	}
	p2 := filepath.Join(dir, "seg-0000000000000002.seg")
	mustBuild(t, p2, db, 256)
	s2 := mustOpen(t, p2, NewCache(1<<20))
	tab2, _, _ := s2.Table("e")

	want := append(append([]rel.Tuple{}, oracle["e"]...), extra...)
	keys.Sort(want)
	got := drain(tab2.Scan(nil))
	if len(got) != len(want) {
		t.Fatalf("merged segment has %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if keys.Compare(got[i], want[i]) != 0 {
			t.Fatalf("merged row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestCacheCounters: a cold read misses then hits; a disabled budget
// never retains; bytesRead grows only on real disk reads.
func TestCacheCounters(t *testing.T) {
	leakcheck.CheckResources(t)
	db, _ := buildDB(t, 4, map[string]int{"e": 2}, 400)
	path := filepath.Join(t.TempDir(), "seg-0000000000000001.seg")
	mustBuild(t, path, db, 256)

	cache := NewCache(1 << 20)
	s := mustOpen(t, path, cache)
	tab, _, _ := s.Table("e")
	drain(tab.Scan(nil))
	h1, m1, b1 := cache.Stats()
	if m1 == 0 || b1 == 0 {
		t.Fatalf("first scan: hits=%d misses=%d bytes=%d, want misses and bytes > 0", h1, m1, b1)
	}
	drain(tab.Scan(nil))
	h2, m2, b2 := cache.Stats()
	if h2 <= h1 || m2 != m1 || b2 != b1 {
		t.Fatalf("warm scan: hits %d->%d misses %d->%d bytes %d->%d, want hits up, rest flat",
			h1, h2, m1, m2, b1, b2)
	}

	// Budget <= 0: every scan re-reads from disk.
	cold := NewCache(0)
	s2 := mustOpen(t, path, cold)
	tab2, _, _ := s2.Table("e")
	drain(tab2.Scan(nil))
	drain(tab2.Scan(nil))
	ch, cm, cb := cold.Stats()
	if ch != 0 || cm == 0 || cb == 0 {
		t.Fatalf("disabled cache: hits=%d misses=%d bytes=%d, want 0 hits", ch, cm, cb)
	}

	// A tiny budget evicts but stays correct.
	tiny := NewCache(1)
	s3 := mustOpen(t, path, tiny)
	tab3, _, _ := s3.Table("e")
	if got := drain(tab3.Scan(nil)); len(got) != 400 {
		t.Fatalf("tiny-budget scan lost rows: %d", len(got))
	}
}

// TestCodecLifecycle: Write -> Validate -> Recover through a ColdSink,
// then DropBelow removes superseded files.
func TestCodecLifecycle(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	db, oracle := buildDB(t, 5, map[string]int{"e": 2, "n": 1}, 200)
	c := NewCodec(dir, 1<<20, 256)
	defer c.Close()

	if err := c.Write(3, db); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := c.Validate(3); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	sink := &coldSink{tables: map[string]rel.ColdBase{}}
	if err := c.Recover(3, sink, nil); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if fmt.Sprint(sink.symbols) != fmt.Sprint(db.SymbolTable().Names()) {
		t.Fatalf("recovered symbols %v, want %v", sink.symbols, db.SymbolTable().Names())
	}
	for pred, rows := range oracle {
		base, ok := sink.tables[pred]
		if !ok {
			t.Fatalf("pred %s not installed", pred)
		}
		if base.Len() != len(rows) {
			t.Fatalf("pred %s: %d rows, want %d", pred, base.Len(), len(rows))
		}
	}

	// A plain sink (no ColdSink) gets a fact-by-fact textual replay.
	total := 0
	for _, rows := range oracle {
		total += len(rows)
	}
	flat := &flatSink{}
	if err := c.Recover(3, flat, nil); err != nil {
		t.Fatalf("flat Recover: %v", err)
	}
	if flat.facts != total {
		t.Fatalf("flat replay delivered %d facts, want %d", flat.facts, total)
	}

	if err := c.Write(7, db); err != nil {
		t.Fatalf("Write(7): %v", err)
	}
	c.DropBelow(7)
	ents, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(ents) != 1 || !strings.Contains(ents[0], "seg-0000000000000007.seg") {
		t.Fatalf("after DropBelow(7): %v, want only seq 7", ents)
	}
	st := c.Stats()
	if st.SegmentFiles != 1 || st.SegmentBuilds != 2 || st.SegmentBuildErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	set := c.ColdSet()
	if set == nil {
		t.Fatal("ColdSet = nil after Write")
	}
	if _, _, ok := set.Cold("e"); !ok {
		t.Fatal("ColdSet missing pred e")
	}
}

// TestCodecInstallMonotone: checkpoints may finish out of order. A set
// for an older sequence written after a newer one must not become the
// current cold set.
func TestCodecInstallMonotone(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	newer, oracle := buildDB(t, 5, map[string]int{"e": 2}, 200)
	older, _ := buildDB(t, 6, map[string]int{"e": 2}, 20)
	c := NewCodec(dir, 1<<20, 256)
	defer c.Close()

	if err := c.Write(5, newer); err != nil {
		t.Fatalf("Write(5): %v", err)
	}
	if err := c.Write(4, older); err != nil {
		t.Fatalf("Write(4): %v", err)
	}
	base, _, ok := c.ColdSet().Cold("e")
	if !ok || base.Len() != len(oracle["e"]) {
		t.Fatalf("current set lost to the older write: ok=%v", ok)
	}
}

type coldSink struct {
	flatSink
	symbols []string
	tables  map[string]rel.ColdBase
}

func (s *coldSink) InstallSymbols(names []string) error {
	s.symbols = append([]string(nil), names...)
	return nil
}

func (s *coldSink) InstallCold(pred string, arity int, base rel.ColdBase) error {
	s.tables[pred] = base
	return nil
}

type flatSink struct{ facts int }

func (s *flatSink) AddFact(pred string, args []string) error { s.facts++; return nil }
func (s *flatSink) LoadFacts(src string) error               { return nil }
func (s *flatSink) LoadProgram(src string) error             { return nil }
func (s *flatSink) ClearProgram() error                      { return nil }
