package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sepdl/internal/faultinject"
	"sepdl/internal/leakcheck"
	"sepdl/internal/segment"
)

// memSink records replayed operations as strings, the oracle every
// recovery test compares against.
type memSink struct{ ops []string }

func (m *memSink) AddFact(pred string, args []string) error {
	m.ops = append(m.ops, "fact:"+pred+"("+strings.Join(args, ",")+")")
	return nil
}
func (m *memSink) LoadFacts(src string) error   { m.ops = append(m.ops, "facts:"+src); return nil }
func (m *memSink) LoadProgram(src string) error { m.ops = append(m.ops, "prog:"+src); return nil }
func (m *memSink) ClearProgram() error          { m.ops = append(m.ops, "clear"); return nil }

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func recoverOps(t *testing.T, dir string, opts Options) []string {
	t.Helper()
	s := mustOpen(t, dir, opts)
	defer s.Close()
	sink := &memSink{}
	if err := s.Recover(sink); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return sink.ops
}

func TestRoundTrip(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Recover(&memSink{}); err != nil {
		t.Fatalf("Recover on fresh dir: %v", err)
	}
	if err := s.AppendProgram("p(X) :- q(X)."); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFact("q", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFacts("q(c, d).\n"); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendClear(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFact("r", nil); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if !st.Durable || st.Appends != 5 || st.AppendErrors != 0 || st.Syncs != 5 {
		t.Errorf("stats after 5 appends: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFact("q", []string{"x"}); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: %v, want ErrClosed", err)
	}

	ticks := 0
	s2 := mustOpen(t, dir, Options{Tick: func() error { ticks++; return nil }})
	defer s2.Close()
	sink := &memSink{}
	if err := s2.Recover(sink); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	want := []string{
		"prog:p(X) :- q(X).",
		"fact:q(a,b)",
		"facts:q(c, d).\n",
		"clear",
		"fact:r()",
	}
	if fmt.Sprint(sink.ops) != fmt.Sprint(want) {
		t.Errorf("replayed ops = %v, want %v", sink.ops, want)
	}
	if ticks != 5 {
		t.Errorf("budget hook ticked %d times, want 5", ticks)
	}
	st = s2.Stats()
	if st.RecoveredRecords != 5 || st.RecoveredBytes == 0 || st.RecoveryTruncations != 0 {
		t.Errorf("recovery stats: %+v", st)
	}
}

// TestTruncationSweep proves the prefix property byte by byte: for every
// possible crash point L in a log of known records, a copy truncated at L
// recovers exactly the records that ended at or before L, and the store
// accepts appends afterward.
func TestTruncationSweep(t *testing.T) {
	leakcheck.CheckResources(t)
	src := t.TempDir()
	s := mustOpen(t, src, Options{})
	var ends []int64 // durable end offset after each record
	const n = 6
	for i := 0; i < n; i++ {
		if err := s.AppendFact("edge", []string{fmt.Sprint(i), fmt.Sprint(i + 1)}); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		ends = append(ends, s.off)
		s.mu.Unlock()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(src, segName(1)))
	if err != nil {
		t.Fatal(err)
	}

	for l := 0; l <= len(data); l++ {
		dir := filepath.Join(t.TempDir(), "wal")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data[:l], 0o644); err != nil {
			t.Fatal(err)
		}
		complete := 0
		for _, e := range ends {
			if e <= int64(l) {
				complete++
			}
		}
		s2 := mustOpen(t, dir, Options{})
		sink := &memSink{}
		if err := s2.Recover(sink); err != nil {
			t.Fatalf("len=%d: Recover: %v", l, err)
		}
		if len(sink.ops) != complete {
			t.Fatalf("len=%d: recovered %d records, want %d", l, len(sink.ops), complete)
		}
		for i := 0; i < complete; i++ {
			if want := fmt.Sprintf("fact:edge(%d,%d)", i, i+1); sink.ops[i] != want {
				t.Fatalf("len=%d: record %d = %q, want %q", l, i, sink.ops[i], want)
			}
		}
		// A cut exactly at a record boundary (or an empty file) leaves a
		// clean tail; anywhere else leaves a partial record to truncate.
		wantTrunc := uint64(1)
		if l == 0 {
			wantTrunc = 0
		}
		for _, e := range ends {
			if e == int64(l) {
				wantTrunc = 0
			}
		}
		if got := s2.Stats().RecoveryTruncations; got != wantTrunc {
			t.Fatalf("len=%d: truncations = %d, want %d", l, got, wantTrunc)
		}
		// The store must keep working from the recovered prefix.
		if err := s2.AppendFact("post", []string{"1"}); err != nil {
			t.Fatalf("len=%d: append after recovery: %v", l, err)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		ops := recoverOps(t, dir, Options{})
		if len(ops) != complete+1 || ops[complete] != "fact:post(1)" {
			t.Fatalf("len=%d: reopened ops = %v", l, ops)
		}
	}
}

// TestCrashAtSweep drives the fault injector's crash-at-offset through
// live appends: whatever the store acknowledged before the crash is
// exactly what a reopened store recovers.
func TestCrashAtSweep(t *testing.T) {
	leakcheck.CheckResources(t)
	// Learn the full log size first.
	probe := t.TempDir()
	s := mustOpen(t, probe, Options{})
	const n = 6
	for i := 0; i < n; i++ {
		if err := s.AppendFact("edge", []string{fmt.Sprint(i), fmt.Sprint(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	size := s.Stats().BytesAppended
	s.Close()

	for l := int64(0); l <= int64(size); l += 3 {
		dir := t.TempDir()
		d := faultinject.NewDisk().CrashAt(l)
		s := mustOpen(t, dir, Options{
			Hooks:          d.Hooks(),
			BeforeTruncate: d.BeforeTruncate,
		})
		acked := 0
		for i := 0; i < n; i++ {
			if err := s.AppendFact("edge", []string{fmt.Sprint(i), fmt.Sprint(i + 1)}); err != nil {
				if !errors.Is(err, faultinject.ErrDisk) {
					t.Fatalf("crash=%d: append %d: %v", l, i, err)
				}
				break
			}
			acked++
		}
		s.Close()
		if l < int64(size) && !d.Crashed() {
			t.Fatalf("crash=%d: injector never fired", l)
		}
		ops := recoverOps(t, dir, Options{})
		if len(ops) != acked {
			t.Fatalf("crash=%d: recovered %d records, want %d acked", l, len(ops), acked)
		}
		for i := 0; i < acked; i++ {
			if want := fmt.Sprintf("fact:edge(%d,%d)", i, i+1); ops[i] != want {
				t.Fatalf("crash=%d: record %d = %q, want %q", l, i, ops[i], want)
			}
		}
	}
}

// TestBitFlip covers silent corruption: a flipped byte in the newest
// segment truncates replay there; the same flip in an older segment is
// unreconcilable and must fail with ErrCorrupt.
func TestBitFlip(t *testing.T) {
	leakcheck.CheckResources(t)
	t.Run("newest segment", func(t *testing.T) {
		dir := t.TempDir()
		d := faultinject.NewDisk()
		s := mustOpen(t, dir, Options{Hooks: d.Hooks()})
		if err := s.AppendFact("a", []string{"1"}); err != nil {
			t.Fatal(err)
		}
		end := s.Stats().BytesAppended
		d.CorruptAt(int64(end)+recHeader+1, 1, 0x40) // flip a payload bit of record 2
		if err := s.AppendFact("b", []string{"2"}); err != nil {
			t.Fatal(err) // silent corruption: the write "succeeds"
		}
		if err := s.AppendFact("c", []string{"3"}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s2 := mustOpen(t, dir, Options{})
		sink := &memSink{}
		if err := s2.Recover(sink); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		// Replay stops at the bad checksum; record c, though intact on
		// disk, is after the tear and correctly dropped with it.
		if fmt.Sprint(sink.ops) != fmt.Sprint([]string{"fact:a(1)"}) {
			t.Errorf("ops = %v, want just fact:a(1)", sink.ops)
		}
		if s2.Stats().RecoveryTruncations != 1 {
			t.Errorf("truncations = %d, want 1", s2.Stats().RecoveryTruncations)
		}
		s2.Close()
	})
	t.Run("older segment", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{})
		if err := s.AppendFact("a", []string{"1"}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Rotate(); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendFact("b", []string{"2"}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		// Rot a byte in sealed segment 1 (no checkpoint covers it).
		path := filepath.Join(dir, segName(1))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[recHeader+1] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := mustOpen(t, dir, Options{})
		defer s2.Close()
		if err := s2.Recover(&memSink{}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Recover = %v, want ErrCorrupt", err)
		}
	})
}

// TestFailedAppendHeals covers the rollback path: a short write or failed
// fsync rejects the append, truncates the tear away, and the very next
// append lands cleanly at the durable end.
func TestFailedAppendHeals(t *testing.T) {
	leakcheck.CheckResources(t)
	cases := []struct {
		name string
		arm  func(d *faultinject.Disk)
	}{
		{"short write", func(d *faultinject.Disk) { d.ShortWrite(2, 5) }},
		{"full write failure", func(d *faultinject.Disk) { d.FailWrite(2) }},
		{"fsync failure", func(d *faultinject.Disk) { d.FailSync(2) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := faultinject.NewDisk()
			tc.arm(d)
			s := mustOpen(t, dir, Options{
				Hooks:          d.Hooks(),
				BeforeTruncate: d.BeforeTruncate,
			})
			if err := s.AppendFact("a", []string{"1"}); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendFact("b", []string{"2"}); !errors.Is(err, faultinject.ErrDisk) {
				t.Fatalf("faulted append = %v, want ErrDisk", err)
			}
			if err := s.AppendFact("c", []string{"3"}); err != nil {
				t.Fatalf("append after heal: %v", err)
			}
			st := s.Stats()
			if st.Appends != 2 || st.AppendErrors != 1 {
				t.Errorf("stats: %+v", st)
			}
			s.Close()
			ops := recoverOps(t, dir, Options{})
			want := []string{"fact:a(1)", "fact:c(3)"}
			if fmt.Sprint(ops) != fmt.Sprint(want) {
				t.Errorf("ops = %v, want %v", ops, want)
			}
		})
	}
}

// TestPoisoning: when even the rollback truncation fails, the store must
// refuse all further appends rather than write after garbage.
func TestPoisoning(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	d := faultinject.NewDisk().FailWrite(2).FailTruncate(1)
	s := mustOpen(t, dir, Options{
		Hooks:          d.Hooks(),
		BeforeTruncate: d.BeforeTruncate,
	})
	defer s.Close()
	if err := s.AppendFact("a", []string{"1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFact("b", []string{"2"}); !errors.Is(err, faultinject.ErrDisk) {
		t.Fatalf("faulted append = %v, want ErrDisk", err)
	}
	err := s.AppendFact("c", []string{"3"})
	if err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("append on poisoned store = %v, want poisoned error", err)
	}
	if _, err := s.Rotate(); err == nil {
		t.Error("Rotate on poisoned store succeeded")
	}
	if s.NeedCheckpoint() {
		t.Error("poisoned store asked for a checkpoint")
	}
}

// TestCheckpointCompaction: rotate, checkpoint, verify superseded files
// are gone and recovery replays checkpoint + tail records only.
func TestCheckpointCompaction(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	s := mustOpen(t, dir, segOpts(dir))
	if err := s.AppendProgram("old(X) :- gone(X)."); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFact("pre", []string{"1"}); err != nil {
		t.Fatal(err)
	}
	seq, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("Rotate = %d, want 2", seq)
	}
	// Appends racing the checkpoint land in the new segment.
	if err := s.AppendFact("post", []string{"2"}); err != nil {
		t.Fatal(err)
	}
	prog := "p(X) :- q(X)."
	err = s.WriteCheckpoint(seq, prog, segState(t, map[string][][]string{"q": {{"a"}, {"b"}}}))
	if err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	st := s.Stats()
	if st.Checkpoints != 1 || st.Segments != 1 {
		t.Errorf("stats after checkpoint: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Errorf("segment 1 survived compaction: %v", err)
	}
	s.Close()

	ops := recoverOps(t, dir, segOpts(dir))
	want := []string{"fact:q(a)", "fact:q(b)", "prog:" + prog, "fact:post(2)"}
	if fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Errorf("ops = %v, want %v", ops, want)
	}
}

// TestCheckpointFaults: a failed, torn or fsync-failed checkpoint file,
// segment or marker, fails the checkpoint and leaves the old state
// authoritative — recovery falls back to full log replay and finds no
// marker naming an unfinished segment.
func TestCheckpointFaults(t *testing.T) {
	leakcheck.CheckResources(t)
	for _, tc := range []struct {
		name string
		arm  func(d *faultinject.Disk)
	}{
		{"write failure", func(d *faultinject.Disk) { d.Match = ".ckpt.tmp"; d.FailWrite(1) }},
		{"short write", func(d *faultinject.Disk) { d.Match = ".ckpt.tmp"; d.ShortWrite(1, 10) }},
		{"fsync failure", func(d *faultinject.Disk) { d.Match = ".ckpt.tmp"; d.FailSync(1) }},
		{"segment write failure", func(d *faultinject.Disk) { d.Match = ".seg.tmp"; d.FailWrite(1) }},
		{"segment short write", func(d *faultinject.Disk) { d.Match = ".seg.tmp"; d.ShortWrite(1, 10) }},
		{"segment fsync failure", func(d *faultinject.Disk) { d.Match = ".seg.tmp"; d.FailSync(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := faultinject.NewDisk()
			tc.arm(d)
			s := mustOpen(t, dir, Options{Hooks: d.Hooks(), Checkpointer: segment.NewCodec(dir, 1<<20, 256, d.Hooks())})
			if err := s.AppendFact("a", []string{"1"}); err != nil {
				t.Fatal(err)
			}
			seq, err := s.Rotate()
			if err != nil {
				t.Fatal(err)
			}
			err = s.WriteCheckpoint(seq, "", segState(t, map[string][][]string{"a": {{"1"}}}))
			if !errors.Is(err, faultinject.ErrDisk) {
				t.Fatalf("WriteCheckpoint = %v, want ErrDisk", err)
			}
			if s.Stats().CheckpointErrors != 1 {
				t.Errorf("CheckpointErrors = %d, want 1", s.Stats().CheckpointErrors)
			}
			s.Close()
			re := mustOpen(t, dir, segOpts(dir))
			defer re.Close()
			if n := re.Stats().CheckpointErrors; n != 0 {
				t.Errorf("reopen rejected %d checkpoint(s); a failed checkpoint must leave no marker", n)
			}
			sink := &memSink{}
			if err := re.Recover(sink); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(sink.ops) != fmt.Sprint([]string{"fact:a(1)"}) {
				t.Errorf("ops = %v, want full-log replay of fact:a(1)", sink.ops)
			}
		})
	}
}

// TestCorruptCheckpointFallsBack: a checkpoint whose marker fails its
// checksum is rejected; with its superseded log segments gone there is no
// consistent prefix to fall back to, so Open must refuse. A stray marker
// in the retired flat format is rejected the same way.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	leakcheck.CheckResources(t)
	for _, tc := range []struct {
		name string
		rot  func(marker []byte) []byte
	}{
		{"rotted checksum", func(m []byte) []byte { m[len(m)-1] ^= 0xFF; return m }},
		{"flat format version", func(m []byte) []byte { m[len("sepdl-ckpt")] = '1'; return m }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, segOpts(dir))
			if err := s.AppendFact("a", []string{"1"}); err != nil {
				t.Fatal(err)
			}
			seq, err := s.Rotate()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.WriteCheckpoint(seq, "", segState(t, map[string][][]string{"a": {{"1"}}})); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendFact("b", []string{"2"}); err != nil {
				t.Fatal(err)
			}
			s.Close()
			path := filepath.Join(dir, fmt.Sprintf("ckpt-%016d.ckpt", seq))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.rot(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, segOpts(dir)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Open with rejected checkpoint = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestSegmentGap: a deleted mid-chain segment with no covering checkpoint
// must refuse to open rather than serve a gapped database.
func TestSegmentGap(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.AppendFact("a", []string{"1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.Remove(filepath.Join(dir, segName(2))); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open with segment gap = %v, want ErrCorrupt", err)
	}
}

// TestNeedCheckpoint exercises the size trigger and NoSync group
// durability at rotation.
func TestNeedCheckpoint(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CheckpointBytes: 64, NoSync: true})
	if s.NeedCheckpoint() {
		t.Error("fresh store wants a checkpoint")
	}
	for i := 0; i < 8; i++ {
		if err := s.AppendFact("pad", []string{strings.Repeat("x", 16)}); err != nil {
			t.Fatal(err)
		}
	}
	if !s.NeedCheckpoint() {
		t.Error("store past threshold does not want a checkpoint")
	}
	if s.Stats().Syncs != 0 {
		t.Errorf("NoSync store fsynced %d times on append", s.Stats().Syncs)
	}
	if _, err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if s.NeedCheckpoint() {
		t.Error("fresh segment still wants a checkpoint")
	}
	s.Close()
	if ops := recoverOps(t, dir, Options{}); len(ops) != 8 {
		t.Errorf("recovered %d records, want 8", len(ops))
	}
}
