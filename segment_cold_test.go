package sepdl

import (
	"fmt"
	"testing"
	"time"

	"sepdl/internal/leakcheck"
)

// coldGraphFacts builds a dense-ish layered edge set big enough to
// outgrow a small memtable budget several times over.
func coldGraphFacts(n int) [][]string {
	var out [][]string
	for i := 0; i < n; i++ {
		out = append(out, []string{"edge", fmt.Sprintf("n%03d", i), fmt.Sprintf("n%03d", (i+1)%n)})
		if i%3 == 0 {
			out = append(out, []string{"edge", fmt.Sprintf("n%03d", i), fmt.Sprintf("n%03d", (i+7)%n)})
		}
	}
	return out
}

const coldTCProgram = `
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`

// TestColdStorageEquivalence is the tentpole acceptance test: a durable
// engine whose dataset outgrows a tiny memtable budget — forcing flushes
// into segment files and rebases onto the cold tier mid-ingest — must
// answer byte-identically to a fully resident oracle under every
// strategy, both live and after recovery, with a block cache far smaller
// than the data.
func TestColdStorageEquivalence(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	facts := coldGraphFacts(96)

	e, err := Open(dir,
		WithMemtableBytes(2<<10),   // ~2 KB: a few dozen tuples per flush
		WithBlockCacheBytes(8<<10), // much smaller than the dataset
		WithCheckpointBytes(-1),    // isolate the memtable trigger
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadProgram(coldTCProgram); err != nil {
		t.Fatal(err)
	}
	oracle := New()
	if err := oracle.LoadProgram(coldTCProgram); err != nil {
		t.Fatal(err)
	}
	for _, f := range facts {
		if err := e.AddFact(f[0], f[1:]...); err != nil {
			t.Fatal(err)
		}
		if err := oracle.AddFact(f[0], f[1:]...); err != nil {
			t.Fatal(err)
		}
	}

	// The memtable trigger runs checkpoints in the background; wait for
	// at least one, then force a final flush so the tail is cold too.
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().WAL.Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if e.Stats().WAL.Checkpoints == 0 {
		t.Fatal("memtable budget never triggered a checkpoint")
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	st := e.Stats().WAL.Segment
	if st.SegmentFiles == 0 || st.SegmentBuilds == 0 || st.SegmentTuples == 0 {
		t.Fatalf("no segments built: %+v", st)
	}

	queries := []string{
		"path(n000, Y)?",
		"path(X, n005)?",
		"path(n010, n011)?",
		"edge(n000, Y)?",
		"path(X, Y)?",
	}
	assertEnginesAgree(t, "live cold vs resident", e, oracle, queries)

	// Cold reads must actually stream from disk: the block cache sees
	// traffic once queries touch segment-resident tuples.
	if _, _, bytesRead := cacheTraffic(e); bytesRead == 0 {
		t.Fatal("queries never read a segment block — cold tier unused")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover cold and compare again.
	re, err := Open(dir, WithMemtableBytes(2<<10), WithBlockCacheBytes(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertEnginesAgree(t, "recovered cold vs resident", re, oracle, queries)

	// And the explicit in-RAM oracle mode: same directory, cold storage
	// off, everything replayed into RAM.
	ram, err := Open(dir, WithColdStorage(false))
	if err != nil {
		t.Fatal(err)
	}
	defer ram.Close()
	assertEnginesAgree(t, "recovered cold vs coldOff recovery", re, ram, queries)
}

// cacheTraffic returns the engine store's block-cache counters.
func cacheTraffic(e *Engine) (hits, misses, bytesRead uint64) {
	s := e.Stats().WAL.Segment
	return s.BlockCacheHits, s.BlockCacheMisses, s.SegmentBytesRead
}

// TestColdStorageWritesAfterRebase: writes landing between checkpoints
// stay queryable from the overlay while older tuples serve cold.
func TestColdStorageWritesAfterRebase(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	e, err := Open(dir, WithCheckpointBytes(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.LoadProgram(coldTCProgram); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("edge", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint write: overlay on top of the cold base.
	if err := e.AddFact("edge", "b", "c"); err != nil {
		t.Fatal(err)
	}
	r, err := e.Query("path(a, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != "{(b) (c)}" {
		t.Fatalf("mixed-tier query = %q", got)
	}
	// Second checkpoint compacts overlay + cold into one new segment.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r, err = e.Query("path(a, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != "{(b) (c)}" {
		t.Fatalf("post-compaction query = %q", got)
	}
}

// TestInstallSymbolsMismatch pins the recovery refusal when the engine's
// symbol table cannot take the ids a segment recorded: a name already
// interned at another id must fail InstallSymbols with the offending name.
func TestInstallSymbolsMismatch(t *testing.T) {
	e := New()
	e.db.SymbolTable().Intern("b")
	err := coldRecoverSink{recoverSink{e}}.InstallSymbols([]string{"a", "b"})
	want := `sepdl: recovering segment symbols: "a" interned as 1, want 0`
	if err == nil || err.Error() != want {
		t.Fatalf("InstallSymbols = %v, want %q", err, want)
	}
	if err := (coldRecoverSink{recoverSink{New()}}).InstallSymbols([]string{"a", "b"}); err != nil {
		t.Fatalf("InstallSymbols on an empty table = %v", err)
	}
}
