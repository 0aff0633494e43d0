package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sepdl/internal/database"
	"sepdl/internal/leakcheck"
	"sepdl/internal/rel"
	"sepdl/internal/segment"
)

// segState builds a database.CheckpointState with the given facts.
func segState(t *testing.T, facts map[string][][]string) *database.Database {
	t.Helper()
	db := database.New()
	for pred, rows := range facts {
		for _, args := range rows {
			if _, err := db.AddFact(pred, args...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// coldSink records a segment-backed recovery: installed symbols, cold
// bases, and the log records replayed after the checkpoint.
type coldSink struct {
	memSink
	symbols []string
	cold    map[string]rel.ColdBase
}

func (s *coldSink) InstallSymbols(names []string) error {
	s.symbols = append([]string(nil), names...)
	return nil
}

func (s *coldSink) InstallCold(pred string, arity int, base rel.ColdBase) error {
	if s.cold == nil {
		s.cold = map[string]rel.ColdBase{}
	}
	s.cold[pred] = base
	s.ops = append(s.ops, fmt.Sprintf("cold:%s/%d=%d", pred, arity, base.Len()))
	return nil
}

func segOpts(dir string) Options {
	return Options{Checkpointer: segment.NewCodec(dir, 1<<20, 256, segment.Hooks{})}
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestSegmentCheckpointCompaction pins the compaction contract: after a
// successful segment-backed checkpoint at seq, no wal segment, no ckpt
// marker, and no codec segment below seq survives — including orphans
// from earlier runs that a previous (crashed or failed) compaction left
// behind. This is what keeps a long-lived directory from accumulating
// superseded state forever.
func TestSegmentCheckpointCompaction(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	s := mustOpen(t, dir, segOpts(dir))
	if err := s.AppendFact("e", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	seq, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(seq, "p(X) :- e(X, X).", segState(t, map[string][][]string{
		"e": {{"a", "b"}},
	})); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	s.Close()

	// Seed orphans a crashed earlier run could have left: a stale log, a
	// stale marker, and a stale codec segment, all below the live seq.
	for name, content := range map[string]string{
		"wal-0000000000000001.log":   "stale",
		"ckpt-0000000000000001.ckpt": "stale",
		"seg-0000000000000001.seg":   "stale",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s = mustOpen(t, dir, segOpts(dir))
	if err := s.AppendFact("e", []string{"b", "c"}); err != nil {
		t.Fatal(err)
	}
	seq2, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(seq2, "", segState(t, map[string][][]string{
		"e": {{"a", "b"}, {"b", "c"}},
	})); err != nil {
		t.Fatalf("WriteCheckpoint 2: %v", err)
	}

	for _, name := range listDir(t, dir) {
		var q uint64
		switch {
		case strings.HasPrefix(name, "wal-"):
			fmt.Sscanf(name, "wal-%016d.log", &q)
		case strings.HasPrefix(name, "ckpt-"):
			fmt.Sscanf(name, "ckpt-%016d.ckpt", &q)
		case strings.HasPrefix(name, "seg-"):
			fmt.Sscanf(name, "seg-%016d.seg", &q)
		default:
			t.Fatalf("unexpected file %s after compaction", name)
		}
		if q < seq2 {
			t.Fatalf("stale file %s (seq %d < %d) survived compaction; dir: %v",
				name, q, seq2, listDir(t, dir))
		}
	}
	s.Close()

	// Recovery through a ColdSink installs the cold base and replays
	// nothing below the checkpoint.
	s = mustOpen(t, dir, segOpts(dir))
	defer s.Close()
	sink := &coldSink{}
	if err := s.Recover(sink); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	want := fmt.Sprintf("[cold:e/2=2]")
	if fmt.Sprint(sink.ops) != want {
		t.Fatalf("ops = %v, want %s", sink.ops, want)
	}
	if len(sink.symbols) == 0 {
		t.Fatal("no symbols installed")
	}
}

// TestSegmentCheckpointRecovery: a segment-backed checkpoint recovers its
// program, its cold bases, and the post-checkpoint tail records, in that
// order; a plain sink (no ColdSink) gets the same content as facts.
func TestSegmentCheckpointRecovery(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	s := mustOpen(t, dir, segOpts(dir))
	if err := s.AppendFact("e", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	seq, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	prog := "p(X) :- e(X, X)."
	if err := s.WriteCheckpoint(seq, prog, segState(t, map[string][][]string{
		"e": {{"a", "b"}},
	})); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFact("e", []string{"b", "c"}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s = mustOpen(t, dir, segOpts(dir))
	sink := &coldSink{}
	if err := s.Recover(sink); err != nil {
		t.Fatalf("cold Recover: %v", err)
	}
	wantOps := []string{"cold:e/2=1", "prog:" + prog, "fact:e(b,c)"}
	if fmt.Sprint(sink.ops) != fmt.Sprint(wantOps) {
		t.Fatalf("cold ops = %v, want %v", sink.ops, wantOps)
	}
	s.Close()

	s = mustOpen(t, dir, segOpts(dir))
	defer s.Close()
	flat := &memSink{}
	if err := s.Recover(flat); err != nil {
		t.Fatalf("flat Recover: %v", err)
	}
	wantFlat := []string{"fact:e(a,b)", "prog:" + prog, "fact:e(b,c)"}
	if fmt.Sprint(flat.ops) != fmt.Sprint(wantFlat) {
		t.Fatalf("flat ops = %v, want %v", flat.ops, wantFlat)
	}
}

// TestCorruptSegmentFallsBack: when the newest checkpoint's segment file
// rots, open-time validation rejects it, counts a CheckpointError, and
// recovery falls back to the older checkpoint chain when one survives —
// the same contract as a rotted marker.
func TestCorruptSegmentFallsBack(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	s := mustOpen(t, dir, segOpts(dir))
	if err := s.AppendFact("e", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	seq1, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(seq1, "", segState(t, map[string][][]string{
		"e": {{"a", "b"}},
	})); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFact("e", []string{"b", "c"}); err != nil {
		t.Fatal(err)
	}

	// Snapshot the older chain — compaction for the next checkpoint will
	// remove it, and the fallback needs it back.
	saved := map[string][]byte{}
	for _, name := range listDir(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		saved[name] = data
	}

	seq2, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(seq2, "", segState(t, map[string][][]string{
		"e": {{"a", "b"}, {"b", "c"}},
	})); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Rot the newest checkpoint's segment, then restore the superseded
	// chain so recovery has somewhere to fall back to.
	segPath := filepath.Join(dir, fmt.Sprintf("seg-%016d.seg", seq2))
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, content := range saved {
		path := filepath.Join(dir, name)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	s = mustOpen(t, dir, segOpts(dir))
	defer s.Close()
	if got := s.Stats().CheckpointErrors; got == 0 {
		t.Fatal("corrupt segment produced no CheckpointError at open")
	}
	sink := &coldSink{}
	if err := s.Recover(sink); err != nil {
		t.Fatalf("Recover after fallback: %v", err)
	}
	// The older checkpoint serves e(a,b) cold; the replayed tail re-adds
	// e(b,c); the rotted segment contributes nothing.
	wantOps := []string{"cold:e/2=1", "fact:e(b,c)"}
	if fmt.Sprint(sink.ops) != fmt.Sprint(wantOps) {
		t.Fatalf("ops after fallback = %v, want %v", sink.ops, wantOps)
	}
	if n := sink.cold["e"].Len(); n != 1 {
		t.Fatalf("fallback cold base has %d tuples, want 1", n)
	}
}
