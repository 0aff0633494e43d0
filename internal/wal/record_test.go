package wal

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzWALRecord feeds the log's record parser and the AddFact payload
// decoder arbitrary bytes, as a replay of a damaged segment would. Neither
// may panic. Every record parseRecord accepts must re-encode to exactly
// the bytes it was parsed from, and every fact payload decodeFact accepts
// must survive an encode/decode round trip unchanged.
func FuzzWALRecord(f *testing.F) {
	var log []byte
	log = appendRecord(log, recProgram, []byte("p(X) :- q(X)."))
	log = appendRecord(log, recAddFact, encodeFact("edge", []string{"a", "b"}))
	log = appendRecord(log, recFacts, []byte("q(c, d).\n"))
	log = appendRecord(log, recClear, nil)
	log = appendRecord(log, recAddFact, encodeFact("r", nil))
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add(appendRecord(nil, recAddFact, encodeFact("quoted", []string{"two words", ""})))
	f.Add(encodeFact("edge", []string{"a", "b"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		for off := 0; off < len(data); {
			typ, payload, next, err := parseRecord(data, off)
			if err != nil {
				break
			}
			if again := appendRecord(nil, typ, payload); !bytes.Equal(again, data[off:next]) {
				t.Fatalf("record at %d re-encodes to %x, parsed from %x", off, again, data[off:next])
			}
			off = next
		}
		// The payload decoder also sees the raw bytes: a record whose CRC
		// matches can still carry any payload.
		pred, args, err := decodeFact(data)
		if err != nil {
			return
		}
		p2, a2, err := decodeFact(encodeFact(pred, args))
		if err != nil || p2 != pred || fmt.Sprint(a2) != fmt.Sprint(args) || len(a2) != len(args) {
			t.Fatalf("fact %q%q round-trips to %q%q, %v", pred, args, p2, a2, err)
		}
	})
}
