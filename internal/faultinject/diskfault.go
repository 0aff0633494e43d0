package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"sepdl/internal/segment"
)

// ErrDisk is the sentinel every injected disk fault wraps, so tests can
// assert an error came from the harness and not from a real I/O failure.
var ErrDisk = errors.New("faultinject: injected disk fault")

// Disk injects failures into a durable store's file operations through
// the hook seams: segment.Hooks (each log append's write and fsync, and
// every write and fsync of a checkpoint file's publish, its directory
// fsync included; see Hooks) and internal/wal's Options.BeforeTruncate.
// It models the disk faults a durable store must survive:
//
//   - FailWrite: the nth write fails outright, no bytes persisted.
//   - ShortWrite: the nth write persists only a prefix, then fails — a
//     torn record the next recovery must truncate.
//   - FailSync: the nth fsync fails, so the append cannot be acknowledged.
//   - FailTruncate: the store's self-heal truncation fails, forcing it to
//     poison itself rather than append after garbage.
//   - CorruptAt: bytes written over the given absolute file offset are
//     bit-flipped before they hit the disk — silent corruption recovery
//     must detect by checksum.
//   - CrashAt: the file stops persisting at the given absolute offset and
//     every later operation (writes, syncs, truncates) fails — the moral
//     equivalent of the machine dying at offset N, after which the test
//     reopens the directory and checks the recovered prefix.
//
// A zero Disk injects nothing. Faults apply to files whose name contains
// Match (every file when Match is empty). Counters are safe to read while
// the store runs. One Disk is meant for one fault scenario; compose
// scenarios with separate stores.
type Disk struct {
	// Match restricts injection to files whose path contains the substring.
	Match string

	mu     sync.Mutex
	writes int64
	syncs  int64

	failWriteAt int64 // 1-based write ordinal; 0 = off
	shortKeep   int   // with failWriteAt: persist this many bytes first

	failSyncAt     int64
	failTruncateAt int64
	truncates      int64

	corruptOff  int64
	corruptLen  int64
	corruptMask byte

	crashAt int64 // absolute offset; negative = off
	crashed bool
}

// NewDisk returns a Disk that injects nothing until a fault is armed.
func NewDisk() *Disk { return &Disk{crashAt: -1} }

// FailWrite arms the injector to fail the nth write (1-based) outright.
func (d *Disk) FailWrite(n int) *Disk {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failWriteAt, d.shortKeep = int64(n), 0
	return d
}

// ShortWrite arms the injector to persist only keep bytes of the nth
// write, then fail it — the classic torn-write crash.
func (d *Disk) ShortWrite(n, keep int) *Disk {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failWriteAt, d.shortKeep = int64(n), keep
	return d
}

// FailSync arms the injector to fail the nth fsync (1-based).
func (d *Disk) FailSync(n int) *Disk {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failSyncAt = int64(n)
	return d
}

// FailTruncate arms the injector to fail the nth truncate (1-based).
func (d *Disk) FailTruncate(n int) *Disk {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failTruncateAt = int64(n)
	return d
}

// CorruptAt arms the injector to XOR mask into n bytes of anything
// written over absolute file offset off — silent bit rot at write time.
func (d *Disk) CorruptAt(off, n int64, mask byte) *Disk {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.corruptOff, d.corruptLen, d.corruptMask = off, n, mask
	return d
}

// CrashAt arms the injector to stop persisting at absolute offset off:
// the write reaching it is clipped and fails, and every later operation
// fails too, as if the machine died mid-write.
func (d *Disk) CrashAt(off int64) *Disk {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashAt = off
	return d
}

// Writes returns how many write operations the injector observed.
func (d *Disk) Writes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.writes)
}

// Syncs returns how many fsyncs the injector observed.
func (d *Disk) Syncs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.syncs)
}

// Truncates returns how many truncates the injector observed.
func (d *Disk) Truncates() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.truncates)
}

// Crashed reports whether the CrashAt point was reached.
func (d *Disk) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// Hooks returns the write and fsync hooks to hand a store and its codec.
func (d *Disk) Hooks() segment.Hooks {
	return segment.Hooks{BeforeWrite: d.BeforeWrite, BeforeSync: d.BeforeSync}
}

func (d *Disk) matches(name string) bool {
	return d.Match == "" || strings.Contains(name, d.Match)
}

// BeforeWrite is the write hook: it returns the bytes to persist (possibly
// clipped or corrupted) and the error the write must report. Bytes
// returned are persisted even when err is non-nil, modelling writes torn
// by a fault.
func (d *Disk) BeforeWrite(name string, off int64, p []byte) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.matches(name) {
		return p, nil
	}
	d.writes++
	if d.crashed {
		return nil, fmt.Errorf("%w: write after crash", ErrDisk)
	}
	if d.crashAt >= 0 && off+int64(len(p)) > d.crashAt {
		d.crashed = true
		keep := d.crashAt - off
		if keep < 0 {
			keep = 0
		}
		return p[:keep], fmt.Errorf("%w: crash at offset %d", ErrDisk, d.crashAt)
	}
	if d.failWriteAt > 0 && d.writes == d.failWriteAt {
		if d.shortKeep > 0 && d.shortKeep < len(p) {
			return p[:d.shortKeep], fmt.Errorf("%w: short write (%d of %d bytes)", ErrDisk, d.shortKeep, len(p))
		}
		return nil, fmt.Errorf("%w: write failed", ErrDisk)
	}
	if d.corruptLen > 0 && off < d.corruptOff+d.corruptLen && d.corruptOff < off+int64(len(p)) {
		q := append([]byte(nil), p...)
		for i := range q {
			pos := off + int64(i)
			if pos >= d.corruptOff && pos < d.corruptOff+d.corruptLen {
				q[i] ^= d.corruptMask
			}
		}
		return q, nil
	}
	return p, nil
}

// BeforeSync is the fsync hook.
func (d *Disk) BeforeSync(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.matches(name) {
		return nil
	}
	d.syncs++
	if d.crashed {
		return fmt.Errorf("%w: sync after crash", ErrDisk)
	}
	if d.failSyncAt > 0 && d.syncs == d.failSyncAt {
		return fmt.Errorf("%w: fsync failed", ErrDisk)
	}
	return nil
}

// BeforeTruncate is the wal hook for the store's self-heal truncation.
func (d *Disk) BeforeTruncate(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.matches(name) {
		return nil
	}
	d.truncates++
	if d.crashed {
		return fmt.Errorf("%w: truncate after crash", ErrDisk)
	}
	if d.failTruncateAt > 0 && d.truncates == d.failTruncateAt {
		return fmt.Errorf("%w: truncate failed", ErrDisk)
	}
	return nil
}
