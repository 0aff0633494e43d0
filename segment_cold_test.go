package sepdl

import (
	"testing"

	"sepdl/internal/leakcheck"
)

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
