package segment

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sepdl/internal/leakcheck"
	"sepdl/internal/rel"
)

// scanAll reads every tuple of every predicate, converting the reader's
// internal panics (mustBlock on a corrupt data block) into an error, and
// returns a flat fingerprint for comparison against the intact oracle.
func scanAll(s *Set) (fp string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("read panic: %v", r)
		}
	}()
	for _, pred := range s.Preds() {
		tab, _, _ := s.Table(pred)
		cur := tab.Scan(nil)
		for t, ok := cur.Next(); ok; t, ok = cur.Next() {
			fp += fmt.Sprint(pred, t)
		}
	}
	return fp, nil
}

// TestBitFlipSweep: flip one bit in every byte of a segment file. Every
// flip must surface as an open error, a verify error, or a read error —
// never as silently different data. This is the whole point of the
// per-block and index checksums.
func TestBitFlipSweep(t *testing.T) {
	leakcheck.CheckResources(t)
	db, _ := buildDB(t, 11, map[string]int{"e": 2, "n": 1}, 60)
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-0000000000000001.seg")
	mustBuild(t, path, db, 128)

	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	intact := mustOpen(t, path, nil)
	oracle, err := scanAll(intact)
	if err != nil || oracle == "" {
		t.Fatalf("intact segment unreadable: %v", err)
	}

	work := filepath.Join(dir, "flipped.seg")
	caught := map[string]int{}
	for off := 0; off < len(good); off++ {
		bad := append([]byte(nil), good...)
		bad[off] ^= 1 << (off % 8)
		if err := os.WriteFile(work, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(work, nil)
		if err != nil {
			caught["open"]++
			continue
		}
		if err := s.VerifyData(nil); err != nil {
			caught["verify"]++
			s.Close()
			continue
		}
		fp, err := scanAll(s)
		s.Close()
		if err != nil {
			caught["read"]++
			continue
		}
		if fp != oracle {
			t.Fatalf("bit flip at offset %d yielded different data without any error", off)
		}
		t.Fatalf("bit flip at offset %d fully undetected (open, verify, and scan all clean)", off)
	}
	if caught["open"] == 0 || caught["verify"] == 0 {
		t.Fatalf("sweep did not exercise both detection layers: %v", caught)
	}
}

// TestTornTail: every proper prefix of a segment file must fail to open —
// a torn write can never present as a valid segment.
func TestTornTail(t *testing.T) {
	leakcheck.CheckResources(t)
	db, _ := buildDB(t, 12, map[string]int{"e": 2}, 80)
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-0000000000000001.seg")
	mustBuild(t, path, db, 256)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(dir, "torn.seg")
	for n := 0; n < len(good); n += 7 { // stride keeps the sweep fast
		if err := os.WriteFile(work, good[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(work, nil); err == nil {
			s.Close()
			t.Fatalf("segment truncated to %d/%d bytes opened cleanly", n, len(good))
		}
	}
}

// TestValidateRejectsCorruptData: Codec.Validate (the boot-time gate the
// WAL trusts before using a segment-backed checkpoint) must reject a
// segment whose data blocks rot even when the index is intact.
func TestValidateRejectsCorruptData(t *testing.T) {
	leakcheck.CheckResources(t)
	db, _ := buildDB(t, 13, map[string]int{"e": 2}, 120)
	dir := t.TempDir()
	c := NewCodec(dir, 1<<20, 256, Hooks{})
	defer c.Close()
	if err := c.Write(2, "", db); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Validate(2); err != nil {
		t.Fatalf("intact Validate: %v", err)
	}
	// Rot one byte in the first data block (just past the head magic).
	path := filepath.Join(dir, "seg-0000000000000002.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(headMagic)+3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := NewCodec(dir, 1<<20, 256, Hooks{})
	defer c2.Close()
	if _, err := c2.Validate(2); err == nil {
		t.Fatal("Validate accepted a segment with a rotted data block")
	}
}

// TestContainsOnCorruptBlockPanicsNotLies: a targeted flip inside a data
// block must never let Contains fabricate an answer from bad bytes.
func TestContainsOnCorruptBlockPanicsNotLies(t *testing.T) {
	leakcheck.CheckResources(t)
	db, oracle := buildDB(t, 14, map[string]int{"e": 2}, 120)
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-0000000000000001.seg")
	mustBuild(t, path, db, 128)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(headMagic)+9] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, nil)
	if err != nil {
		return // index-adjacent flip: open-time detection is fine too
	}
	defer s.Close()
	tab, _, _ := s.Table("e")
	probe := func(tu rel.Tuple) (hit bool, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		return tab.Contains(tu), nil
	}
	sawErr := false
	for _, tu := range oracle["e"] {
		hit, err := probe(tu)
		if err != nil {
			sawErr = true
			continue
		}
		if !hit {
			// A miss on a present tuple is only acceptable if the block
			// holding it is detectably corrupt — which scanning reveals.
			if _, serr := scanAll(s); serr == nil {
				t.Fatalf("Contains(%v) = false on an allegedly clean file", tu)
			}
			sawErr = true
		}
	}
	if !sawErr {
		// The flip landed in padding nothing reads; verify still sees it.
		if err := s.VerifyData(nil); err == nil {
			t.Fatal("corrupt block neither surfaced on probe nor on verify")
		}
	}
}
