package segment

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sepdl/internal/leakcheck"
)

// hookEvent is one call a recording Hooks saw: a write or an fsync, the
// name it targeted, and for a directory fsync which names the directory
// held at that instant.
type hookEvent struct {
	op   string // "write", "sync" or "dirsync"
	name string
	size int      // bytes offered to a write
	dir  []string // directory listing at a dirsync
}

// recordHooks returns hooks that log every call into events. At a file
// fsync it fails the test if the file's final name already exists.
func recordHooks(t *testing.T, events *[]hookEvent) Hooks {
	return Hooks{
		BeforeWrite: func(name string, off int64, p []byte) ([]byte, error) {
			*events = append(*events, hookEvent{op: "write", name: name, size: len(p)})
			return p, nil
		},
		BeforeSync: func(name string) error {
			fi, err := os.Stat(name)
			if err != nil {
				t.Fatalf("fsync of missing %s: %v", name, err)
			}
			if !fi.IsDir() {
				if _, err := os.Stat(strings.TrimSuffix(name, ".tmp")); err == nil {
					t.Errorf("final name of %s exists before its fsync", name)
				}
				*events = append(*events, hookEvent{op: "sync", name: name})
				return nil
			}
			ents, err := os.ReadDir(name)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range ents {
				names = append(names, e.Name())
			}
			*events = append(*events, hookEvent{op: "dirsync", name: name, dir: names})
			return nil
		},
	}
}

// TestPublishOrder pins the one writer's crash-safety order for a whole
// checkpoint. For the segment and then its marker: every write and file
// fsync targets the *.tmp name; the final name does not exist when the
// tmp file is fsynced; the directory fsync comes after the rename (the
// final name is listed, the tmp name is not); and the marker's first
// write comes after the segment's directory fsync, so a marker never
// names a segment that is not durable. The segment streams through the
// hook in chunks no larger than the write buffer.
func TestPublishOrder(t *testing.T) {
	leakcheck.CheckResources(t)
	db, _ := buildDB(t, 21, map[string]int{"t": 3}, 9000)
	dir := t.TempDir()
	var events []hookEvent
	c := NewCodec(dir, 1<<20, 0, recordHooks(t, &events))
	defer c.Close()
	if err := c.Write(4, "p(X) :- t(X, X, X).", db); err != nil {
		t.Fatal(err)
	}

	i := 0
	for _, final := range []string{"seg-0000000000000004.seg", "ckpt-0000000000000004.ckpt"} {
		tmp := filepath.Join(dir, final+".tmp")
		writes, n := 0, 0
		for ; i < len(events) && events[i].op == "write"; i++ {
			if events[i].name != tmp {
				t.Fatalf("%s: write to %s, want %s", final, events[i].name, tmp)
			}
			if events[i].size > 1<<16 {
				t.Errorf("%s: one write of %d bytes; the file must stream in buffer-sized chunks", final, events[i].size)
			}
			writes++
			n += events[i].size
		}
		if writes == 0 {
			t.Fatalf("%s: no writes at event %d; events %v", final, i, events)
		}
		if final[:4] == "seg-" && (n <= 1<<16 || writes < 2) {
			t.Fatalf("segment of %d bytes in %d writes: too small to show streaming", n, writes)
		}
		if i >= len(events) || events[i].op != "sync" || events[i].name != tmp {
			t.Fatalf("%s: event %d is not the fsync of %s: %v", final, i, tmp, events[i:])
		}
		i++
		if i >= len(events) || events[i].op != "dirsync" || events[i].name != dir {
			t.Fatalf("%s: no directory fsync after the file fsync: %v", final, events[i:])
		}
		listed := strings.Join(events[i].dir, " ")
		if !strings.Contains(listed, final) || strings.Contains(listed, final+".tmp") {
			t.Fatalf("%s: directory fsync before the rename; directory held %v", final, events[i].dir)
		}
		i++
	}
	if i != len(events) {
		t.Fatalf("unexpected hook calls after the marker: %v", events[i:])
	}
}

// FuzzCheckpointMarker feeds the marker decoder arbitrary bytes. It must
// never panic, and any marker it accepts must re-encode to the same
// bytes: the format has exactly one encoding per program.
func FuzzCheckpointMarker(f *testing.F) {
	f.Add(encodeMarker(""))
	f.Add(encodeMarker("p(X) :- q(X).\n"))
	f.Add(encodeMarker("buys(X, Y) :- friend(X, W) & buys(W, Y).\nbuys(X, Y) :- perfectFor(X, Y).\n"))
	flat := encodeMarker("p(X) :- q(X).")
	flat[len(markerMagic)-2] = '1' // the retired flat format's version digit
	f.Add(flat)
	f.Add([]byte(markerMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := decodeMarker(data)
		if err != nil {
			return
		}
		if again := encodeMarker(prog); !bytes.Equal(again, data) {
			t.Fatalf("accepted marker %q re-encodes to %q", data, again)
		}
	})
}

// TestMarkerRoundTrip: a marker decodes to the program it was encoded
// from, and any single flipped bit is rejected.
func TestMarkerRoundTrip(t *testing.T) {
	for _, prog := range []string{"", "p(X) :- q(X).", strings.Repeat("r(a). ", 100)} {
		m := encodeMarker(prog)
		if got, err := decodeMarker(m); err != nil || got != prog {
			t.Fatalf("decode(encode(%q)) = %q, %v", prog, got, err)
		}
		for bit := 0; bit < 8*len(m); bit++ {
			bad := append([]byte(nil), m...)
			bad[bit/8] ^= 1 << (bit % 8)
			if got, err := decodeMarker(bad); err == nil {
				t.Fatalf("bit %d flipped: accepted, program %q", bit, got)
			}
		}
	}
}
