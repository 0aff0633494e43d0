package sepdl

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sepdl/internal/faultinject"
	"sepdl/internal/leakcheck"
	"sepdl/internal/segment"
	"sepdl/internal/wal"
)

// assertEnginesAgree runs the queries under every served strategy on both
// engines and requires identical outcomes: the same accept/reject
// decision and, on success, byte-identical result strings.
func assertEnginesAgree(t *testing.T, label string, got, want *Engine, queries []string) {
	t.Helper()
	for _, q := range queries {
		for _, s := range servedStrategies {
			r1, err1 := got.Query(q, WithStrategy(s))
			r2, err2 := want.Query(q, WithStrategy(s))
			if (err1 == nil) != (err2 == nil) {
				t.Errorf("%s: %s [%s]: recovered err=%v, oracle err=%v", label, q, s, err1, err2)
				continue
			}
			if err1 == nil && r1.String() != r2.String() {
				t.Errorf("%s: %s [%s] = %s, oracle %s", label, q, s, r1, r2)
			}
		}
	}
}

// durableFactSeq is the ingest order durable tests append facts in; the
// recovered prefix after a crash is always a prefix of this sequence.
var durableFactSeq = [][]string{
	{"friend", "a", "b"}, {"friend", "a", "c"}, {"friend", "b", "d"},
	{"friend", "c", "d"}, {"idol", "d", "e"}, {"idol", "a", "e"},
	{"perfectFor", "e", "g1"}, {"perfectFor", "b", "g2"}, {"perfectFor", "z", "g3"},
}

// oracleWithFacts builds the in-RAM reference engine holding example11
// and the first k facts of the ingest sequence.
func oracleWithFacts(t *testing.T, k int) *Engine {
	t.Helper()
	e := New()
	if err := e.LoadProgram(example11); err != nil {
		t.Fatal(err)
	}
	for _, f := range durableFactSeq[:k] {
		if err := e.AddFact(f[0], f[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestDurableRoundTrip(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadProgram(example11); err != nil {
		t.Fatal(err)
	}
	for _, f := range durableFactSeq {
		if err := e.AddFact(f[0], f[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Stats().WAL.Durable {
		t.Error("durable engine reports Durable=false")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("friend", "x", "y"); err == nil {
		t.Error("AddFact after Close succeeded")
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.Stats().WAL
	if st.RecoveredRecords != uint64(1+len(durableFactSeq)) {
		t.Errorf("RecoveredRecords = %d, want %d", st.RecoveredRecords, 1+len(durableFactSeq))
	}
	assertEnginesAgree(t, "reopen", re, oracleWithFacts(t, len(durableFactSeq)),
		[]string{`buys(a, Y)?`, `buys(d, Y)?`, `buys(X, g1)?`, `buys(z, g1)?`})
}

// TestDurableCrashSweep is the headline crash-safety property: for crash
// points swept across the byte range of a real ingest's log, the reopened
// engine answers every query under all nine strategies exactly like an
// in-RAM oracle holding the acknowledged prefix of the ingest.
func TestDurableCrashSweep(t *testing.T) {
	leakcheck.CheckResources(t)
	// Record the full ingest once to learn the log's byte layout.
	full := t.TempDir()
	e, err := Open(full)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64 // log size after each acknowledged write
	if err := e.LoadProgram(example11); err != nil {
		t.Fatal(err)
	}
	ends = append(ends, int64(e.Stats().WAL.BytesAppended))
	for _, f := range durableFactSeq {
		if err := e.AddFact(f[0], f[1:]...); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int64(e.Stats().WAL.BytesAppended))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(full, "wal-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != ends[len(ends)-1] {
		t.Fatalf("log is %d bytes, appends total %d", len(data), ends[len(ends)-1])
	}

	queries := []string{`buys(a, Y)?`, `buys(X, g1)?`, `buys(d, Y)?`}
	oracles := map[int]*Engine{}
	step := 3
	if testing.Short() {
		step = 17
	}
	for l := 0; l <= len(data); l += step {
		// A crash at byte l preserves exactly the writes that ended at or
		// before l; the program record is writes[0].
		acked := 0
		for _, e := range ends {
			if e <= int64(l) {
				acked++
			}
		}
		dir := filepath.Join(t.TempDir(), "wal")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), data[:l], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatalf("crash=%d: Open: %v", l, err)
		}
		wantFacts := 0
		if acked > 0 {
			wantFacts = acked - 1
		}
		if re.NumFacts() != wantFacts {
			t.Fatalf("crash=%d: recovered %d facts, want %d", l, re.NumFacts(), wantFacts)
		}
		oracle := oracles[acked]
		if oracle == nil {
			oracle = New()
			if acked > 0 {
				if err := oracle.LoadProgram(example11); err != nil {
					t.Fatal(err)
				}
				for _, f := range durableFactSeq[:acked-1] {
					if err := oracle.AddFact(f[0], f[1:]...); err != nil {
						t.Fatal(err)
					}
				}
			}
			oracles[acked] = oracle
		}
		assertEnginesAgree(t, fmt.Sprintf("crash=%d", l), re, oracle, queries)
		re.Close()
	}
}

// TestDurableFaultedWritesInvisible: an append rejected by an injected
// disk fault must leave no trace — not in the in-memory state, not in
// what a reopen recovers.
func TestDurableFaultedWritesInvisible(t *testing.T) {
	leakcheck.CheckResources(t)
	for _, tc := range []struct {
		name string
		arm  func(d *faultinject.Disk)
	}{
		{"fsync failure", func(d *faultinject.Disk) { d.FailSync(3) }},
		{"short write", func(d *faultinject.Disk) { d.ShortWrite(3, 4) }},
		{"write failure", func(d *faultinject.Disk) { d.FailWrite(3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := faultinject.NewDisk()
			tc.arm(d)
			e := New()
			st, err := e.openStore(dir, wal.Options{Hooks: d.Hooks(), BeforeTruncate: d.BeforeTruncate})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.attach(st); err != nil {
				t.Fatal(err)
			}
			if err := e.LoadProgram(example11); err != nil {
				t.Fatal(err)
			}
			if err := e.AddFact("friend", "a", "b"); err != nil {
				t.Fatal(err)
			}
			// Write 3 hits the armed fault.
			if err := e.AddFact("friend", "b", "c"); !errors.Is(err, faultinject.ErrDisk) {
				t.Fatalf("faulted AddFact = %v, want ErrDisk", err)
			}
			if got := e.NumFacts(); got != 1 {
				t.Errorf("after faulted append: %d facts in memory, want 1", got)
			}
			if res, err := e.Query(`friend(b, X)?`); err != nil || res.Len() != 0 {
				t.Errorf("faulted fact visible to queries: %v, %v", res, err)
			}
			if e.Stats().WAL.AppendErrors != 1 {
				t.Errorf("AppendErrors = %d, want 1", e.Stats().WAL.AppendErrors)
			}
			// The store healed: the next write lands.
			if err := e.AddFact("friend", "c", "d"); err != nil {
				t.Fatal(err)
			}
			e.Close()
			re, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := re.NumFacts(); got != 2 {
				t.Errorf("recovered %d facts, want 2 (a-b and c-d, not the faulted b-c)", got)
			}
			if res, err := re.Query(`friend(b, X)?`); err != nil || res.Len() != 0 {
				t.Errorf("faulted fact recovered: %v, %v", res, err)
			}
		})
	}
}

// TestCheckpointFaultSweep injects a disk fault at every write and fsync
// of one Engine.Checkpoint: the segment's chunks, the marker, both file
// fsyncs and both directory fsyncs. Each write is failed, torn and
// crashed in turn, each fsync failed. Checkpoint must return the injected
// error, the engine must keep answering, and a reopen must answer exactly
// like the pre-checkpoint oracle without rejecting any checkpoint as
// damaged: a failed checkpoint leaves no marker naming an unfinished
// segment.
func TestCheckpointFaultSweep(t *testing.T) {
	leakcheck.CheckResources(t)
	// Enough facts that the segment streams in several write chunks.
	var pad strings.Builder
	for i := 0; i < 6000; i++ {
		fmt.Fprintf(&pad, "pad(p%05d, q%05d).\n", i, i)
	}
	oracle := oracleWithFacts(t, len(durableFactSeq))
	if err := oracle.LoadFacts(pad.String()); err != nil {
		t.Fatal(err)
	}
	queries := []string{`buys(a, Y)?`, `buys(X, g1)?`, `buys(z, Y)?`, `pad(p00042, Y)?`}

	// ingest opens a durable engine in dir writing through hooks and loads
	// the oracle's state; automatic checkpoints are off.
	ingest := func(t *testing.T, dir string, hooks segment.Hooks) *Engine {
		t.Helper()
		e := New(WithCheckpointBytes(-1))
		st, err := e.openStore(dir, wal.Options{Hooks: hooks})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.attach(st); err != nil {
			t.Fatal(err)
		}
		if err := e.LoadProgram(example11); err != nil {
			t.Fatal(err)
		}
		if err := e.LoadFacts(pad.String()); err != nil {
			t.Fatal(err)
		}
		for _, f := range durableFactSeq {
			if err := e.AddFact(f[0], f[1:]...); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}

	// Record the writes and fsyncs of one fault-free checkpoint.
	type write struct {
		name     string
		off, len int64
	}
	var writes []write
	syncs, recording := 0, false
	probe := ingest(t, t.TempDir(), segment.Hooks{
		BeforeWrite: func(name string, off int64, p []byte) ([]byte, error) {
			if recording {
				writes = append(writes, write{filepath.Base(name), off, int64(len(p))})
			}
			return p, nil
		},
		BeforeSync: func(string) error {
			if recording {
				syncs++
			}
			return nil
		},
	})
	recording = true
	if err := probe.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	recording = false
	probe.Close()
	if len(writes) < 3 || syncs != 4 {
		t.Fatalf("checkpoint made %d writes and %d fsyncs; want a multi-chunk segment, a marker and 4 fsyncs", len(writes), syncs)
	}

	type fault struct {
		name string
		arm  func(d *faultinject.Disk)
	}
	var faults []fault
	for i, w := range writes {
		faults = append(faults,
			fault{fmt.Sprintf("write %d failure", i+1), func(d *faultinject.Disk) { d.FailWrite(d.Writes() + i + 1) }},
			fault{fmt.Sprintf("write %d short", i+1), func(d *faultinject.Disk) { d.ShortWrite(d.Writes()+i+1, int(w.len/2)) }},
			fault{fmt.Sprintf("write %d crash", i+1), func(d *faultinject.Disk) { d.Match = w.name; d.CrashAt(w.off + w.len/2) }},
		)
	}
	for i := 0; i < syncs; i++ {
		faults = append(faults, fault{fmt.Sprintf("fsync %d failure", i+1), func(d *faultinject.Disk) { d.FailSync(d.Syncs() + i + 1) }})
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			d := faultinject.NewDisk()
			e := ingest(t, dir, d.Hooks())
			f.arm(d)
			if err := e.Checkpoint(); !errors.Is(err, faultinject.ErrDisk) {
				t.Fatalf("Checkpoint = %v, want ErrDisk", err)
			}
			assertEnginesAgree(t, "after failed checkpoint", e, oracle, queries)
			e.Close()
			re, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if n := re.Stats().WAL.CheckpointErrors; n != 0 {
				t.Errorf("reopen rejected %d checkpoint(s) as damaged", n)
			}
			assertEnginesAgree(t, "reopen", re, oracle, queries)
			if err := re.Checkpoint(); err != nil {
				t.Errorf("checkpoint after reopen: %v", err)
			}
		})
	}
}

// TestLoadFactsAtomic is the regression test for batch atomicity: a batch
// failing validation mid-way must leave the engine byte-for-byte
// unchanged — no prefix applied in memory, nothing in the log.
func TestLoadFactsAtomic(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadFacts("p(a, b).\n"); err != nil {
		t.Fatal(err)
	}
	rev := func() uint64 { e.mu.Lock(); defer e.mu.Unlock(); return e.dbRev }
	before := rev()
	// q(c) is fine alone, but p(d) clashes with p/2: the whole batch,
	// including the valid prefix q(c), must be rejected.
	if err := e.LoadFacts("q(c).\np(d).\nq(e).\n"); err == nil {
		t.Fatal("arity-clashing batch accepted")
	}
	if got := e.NumFacts(); got != 1 {
		t.Errorf("after rejected batch: %d facts, want 1", got)
	}
	if res, err := e.Query(`q(c)?`); err != nil || res.True() {
		t.Errorf("prefix of rejected batch applied: %v, %v", res, err)
	}
	if rev() != before {
		t.Error("rejected batch bumped the database revision")
	}
	if e.Stats().WAL.Appends != 1 {
		t.Errorf("rejected batch reached the log: %d appends, want 1", e.Stats().WAL.Appends)
	}
	e.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.NumFacts(); got != 1 {
		t.Errorf("recovered %d facts, want 1", got)
	}
}

// TestDurableClearProgram: a logged clear must survive reopen — rules
// gone, facts kept.
func TestDurableClearProgram(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadProgram(example11); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("perfectFor", "e", "g1"); err != nil {
		t.Fatal(err)
	}
	if err := e.ClearProgram(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.ProgramText() != "" {
		t.Errorf("rules survived a logged clear: %q", re.ProgramText())
	}
	if re.NumFacts() != 1 {
		t.Errorf("facts lost on clear: %d, want 1", re.NumFacts())
	}
}

// TestDurableCheckpointUnderLoad drives automatic checkpoints with a tiny
// threshold while concurrent readers query and a writer ingests — the
// compaction-vs-snapshot-isolation race the checkpoint design must
// survive — then reopens and verifies nothing acknowledged was lost.
func TestDurableCheckpointUnderLoad(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	e, err := Open(dir, WithCheckpointBytes(512))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadProgram(example11); err != nil {
		t.Fatal(err)
	}
	const n = 400
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Query(`buys(c0, Y)?`); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := e.AddFact("perfectFor", fmt.Sprintf("c%d", i), fmt.Sprintf("g%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	st := e.Stats().WAL
	if st.Checkpoints == 0 {
		t.Error("no checkpoint ran despite tiny threshold")
	}
	if st.CheckpointErrors != 0 {
		t.Errorf("CheckpointErrors = %d", st.CheckpointErrors)
	}
	// Drain (the SIGTERM path) and close while a checkpoint may be in
	// flight; Close must wait it out, not race it.
	e.Drain()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.NumFacts(); got != n {
		t.Errorf("recovered %d facts, want %d", got, n)
	}
	res, err := re.Query(fmt.Sprintf("buys(c%d, Y)?", n-1))
	if err != nil || res.Len() != 1 {
		t.Errorf("query after checkpointed recovery: %v, %v", res, err)
	}
	if rst := re.Stats().WAL; rst.RecoveredRecords >= uint64(n) {
		t.Errorf("recovery replayed %d records — checkpoint did not bound replay", rst.RecoveredRecords)
	}
}

// TestDurableNoSync: WithSyncWrites(false) still recovers everything on a
// clean Close (group durability), with zero per-append fsyncs.
func TestDurableNoSync(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	e, err := Open(dir, WithSyncWrites(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadProgram(example11); err != nil {
		t.Fatal(err)
	}
	for _, f := range durableFactSeq {
		if err := e.AddFact(f[0], f[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats().WAL.Syncs; s != 0 {
		t.Errorf("NoSync engine fsynced %d times on append", s)
	}
	e.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertEnginesAgree(t, "nosync reopen", re, oracleWithFacts(t, len(durableFactSeq)),
		[]string{`buys(a, Y)?`, `buys(X, g1)?`})
}

// TestManualCheckpoint: Checkpoint() compacts on demand and recovery uses
// the snapshot instead of replaying the whole log.
func TestManualCheckpoint(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	e, err := Open(dir, WithCheckpointBytes(-1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadProgram(example11); err != nil {
		t.Fatal(err)
	}
	for _, f := range durableFactSeq {
		if err := e.AddFact(f[0], f[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if e.Stats().WAL.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d, want 1", e.Stats().WAL.Checkpoints)
	}
	if err := e.AddFact("perfectFor", "post", "g9"); err != nil {
		t.Fatal(err)
	}
	e.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rst := re.Stats().WAL; rst.RecoveredRecords != 1 {
		t.Errorf("RecoveredRecords = %d, want 1 (just the post-checkpoint fact)", rst.RecoveredRecords)
	}
	if re.NumFacts() != len(durableFactSeq)+1 {
		t.Errorf("recovered %d facts, want %d", re.NumFacts(), len(durableFactSeq)+1)
	}
	if res, err := re.Query(`buys(a, Y)?`); err != nil || res.Len() == 0 {
		t.Errorf("checkpointed program lost: %v, %v", res, err)
	}
}

// TestMemStoreUnchanged: a New engine reports non-durable zeros and its
// ClearProgram/Close are no-ops — the in-RAM behavior is untouched.
func TestMemStoreUnchanged(t *testing.T) {
	e := New()
	if err := e.LoadProgram(example11); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("perfectFor", "e", "g1"); err != nil {
		t.Fatal(err)
	}
	st := e.Stats().WAL
	if st.Durable || st.Appends != 0 {
		t.Errorf("MemStore stats: %+v", st)
	}
	if err := e.ClearProgram(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRacesBackgroundCheckpoint forces checkpoints while tiny
// memtable and log thresholds keep background checkpoints in flight. A
// forced checkpoint must never overlap a background one, and an older
// segment finishing last must never replace a newer one as the engine's
// cold base: either would drop the facts written between the two
// rotations. Every acknowledged fact must be counted before and after a
// reopen.
func TestCheckpointRacesBackgroundCheckpoint(t *testing.T) {
	leakcheck.CheckResources(t)
	const n, every = 40000, 500
	dir := t.TempDir()
	e, err := Open(dir, WithSyncWrites(false), WithMemtableBytes(1<<10), WithCheckpointBytes(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := e.AddFact("edge", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1)); err != nil {
			t.Fatal(err)
		}
		if i%every == 0 {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := e.NumFacts(); got != n {
		t.Errorf("NumFacts = %d before reopen, want %d", got, n)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.NumFacts(); got != n {
		t.Errorf("NumFacts = %d after reopen, want %d", got, n)
	}
}

// TestOpensCheckpointFixture: testdata/compat-ckpt2 is a data directory
// that sepdl.Open wrote at commit 381b430: Example 1.1's program and the
// first 32 facts of testdata/compat-ckpt2.facts, one Checkpoint, then a
// log tail of four LoadFacts and three AddFact records holding the rest.
// Opened by this build, with cold storage on and off, it must recover
// every fact and answer every query under every served strategy exactly
// like an in-RAM engine loaded with the same facts.
func TestOpensCheckpointFixture(t *testing.T) {
	leakcheck.CheckResources(t)
	facts, err := os.ReadFile(filepath.Join("testdata", "compat-ckpt2.facts"))
	if err != nil {
		t.Fatal(err)
	}
	oracle := New()
	if err := oracle.LoadProgram(example11); err != nil {
		t.Fatal(err)
	}
	if err := oracle.LoadFacts(string(facts)); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`buys(p0, Y)?`, `buys(r5, Y)?`, `buys(X, g99)?`, `buys(X, "gift card")?`,
		`buys(X, Y)?`, `friend(X, p10)?`, `idol(p4, Y)?`,
	}
	for _, cold := range []bool{true, false} {
		t.Run(fmt.Sprintf("cold=%v", cold), func(t *testing.T) {
			dir := t.TempDir()
			ents, err := os.ReadDir(filepath.Join("testdata", "compat-ckpt2"))
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range ents {
				data, err := os.ReadFile(filepath.Join("testdata", "compat-ckpt2", ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, ent.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			e, err := Open(dir, WithColdStorage(cold))
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			st := e.Stats().WAL
			if st.CheckpointErrors != 0 || st.RecoveredRecords != 7 {
				t.Errorf("recovery stats: %d checkpoint errors, %d records replayed; want 0 and 7", st.CheckpointErrors, st.RecoveredRecords)
			}
			if e.NumFacts() != oracle.NumFacts() {
				t.Errorf("recovered %d facts, want %d", e.NumFacts(), oracle.NumFacts())
			}
			if e.ProgramText() != oracle.ProgramText() {
				t.Errorf("recovered program %q, want %q", e.ProgramText(), oracle.ProgramText())
			}
			assertEnginesAgree(t, "fixture", e, oracle, queries)
		})
	}
}
