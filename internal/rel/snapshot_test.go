package rel

import (
	"fmt"
	"sync"
	"testing"
)

func tup(vs ...Value) Tuple { return Tuple(vs) }

func TestSnapshotFrozenUnderInsert(t *testing.T) {
	r := New(2)
	r.Insert(tup(1, 2))
	r.Insert(tup(3, 4))

	snap := r.Snapshot()
	if snap.Len() != 2 {
		t.Fatalf("snapshot Len = %d, want 2", snap.Len())
	}

	// Mutating the master must not show through the snapshot.
	if !r.Insert(tup(5, 6)) {
		t.Fatal("insert into master failed")
	}
	if snap.Len() != 2 {
		t.Fatalf("snapshot grew to %d after master insert", snap.Len())
	}
	if snap.Contains(tup(5, 6)) {
		t.Fatal("snapshot sees tuple inserted after it was taken")
	}
	if r.Len() != 3 || !r.Contains(tup(5, 6)) {
		t.Fatal("master lost its own insert")
	}
}

func TestSnapshotFrozenUnderDelete(t *testing.T) {
	r := New(1)
	for v := Value(0); v < 10; v++ {
		r.Insert(tup(v))
	}
	snap := r.Snapshot()
	if !r.Delete(tup(3)) {
		t.Fatal("delete from master failed")
	}
	if snap.Len() != 10 || !snap.Contains(tup(3)) {
		t.Fatal("snapshot observed master's delete")
	}
	if r.Len() != 9 || r.Contains(tup(3)) {
		t.Fatal("master lost its delete")
	}
}

func TestSnapshotDuplicateInsertKeepsSharing(t *testing.T) {
	// A duplicate insert is a no-op and must not force a copy: the shared
	// flag stays set and a later real insert still detaches.
	r := New(1)
	r.Insert(tup(1))
	snap := r.Snapshot()
	if r.Insert(tup(1)) {
		t.Fatal("duplicate insert reported new")
	}
	if !r.shared {
		t.Fatal("duplicate insert detached the shared storage")
	}
	r.Insert(tup(2))
	if snap.Len() != 1 {
		t.Fatalf("snapshot Len = %d after post-duplicate insert, want 1", snap.Len())
	}
}

func TestSnapshotOfSnapshotAndMultipleSnapshots(t *testing.T) {
	r := New(1)
	r.Insert(tup(1))
	s1 := r.Snapshot()
	r.Insert(tup(2))
	s2 := r.Snapshot()
	r.Insert(tup(3))
	s3 := s2.Snapshot() // snapshot of a snapshot: same frozen content

	if s1.Len() != 1 || s2.Len() != 2 || s3.Len() != 2 || r.Len() != 3 {
		t.Fatalf("lens = %d %d %d %d, want 1 2 2 3", s1.Len(), s2.Len(), s3.Len(), r.Len())
	}
}

func TestSnapshotConcurrentReadersWhileMasterMutates(t *testing.T) {
	// The race detector is the real assertion here: N readers hammer
	// snapshots of one generation (Index builds into their shared lazy
	// cache) while the master keeps inserting and deleting.
	r := New(2)
	for v := Value(0); v < 50; v++ {
		r.Insert(tup(v, v+1))
	}
	const readers = 8
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		snap := r.Snapshot() // snapshots taken while the writer is idle
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				if snap.Len() != 50 {
					panic(fmt.Sprintf("snapshot len changed to %d", snap.Len()))
				}
				snap.Contains(tup(7, 8))
				snap.Index([]int{0}).Lookup([]Value{7})
			}
		}()
	}
	// Writer mutates the master concurrently with all readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := Value(50); v < 250; v++ {
			r.Insert(tup(v, v+1))
			r.Delete(tup(v-50, v-49))
		}
	}()
	wg.Wait()
	if r.Len() != 50 {
		t.Fatalf("master Len = %d, want 50", r.Len())
	}
}
