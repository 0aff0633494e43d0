// Package wal implements the durable Store behind the engine: an
// append-only, length-prefixed, CRC32C-checksummed write-ahead log of the
// engine's logical writes (AddFact, LoadFacts, LoadProgram, ClearProgram)
// plus the checkpoints that bound replay time and let old log segments be
// deleted. The log is this package's; the checkpoint files — one segment
// and one marker per checkpoint, and their on-disk format and publish
// order — belong to the internal/segment codec attached as
// Options.Checkpointer.
//
// Layout of a data directory:
//
//	wal-%016d.log    log segments; records append to the highest sequence
//	seg-%016d.seg    a checkpoint's database (internal/segment)
//	ckpt-%016d.ckpt  the marker committing the checkpoint covering every
//	                 log segment below its sequence (internal/segment)
//	*.tmp            in-progress checkpoint files; removed at open
//
// Durability contract: an append is acknowledged only after its bytes and
// an fsync reached the current segment, and a failed append is rolled
// back (the segment is truncated to its previous durable end) so the log
// never carries garbage between good records. Boot-time recovery loads
// the newest checkpoint that verifies, replays every record after it,
// and truncates a torn tail at the first bad length or checksum in the
// newest segment — a crash at any byte offset therefore recovers exactly
// the acknowledged prefix of the history. A bad record in an older
// segment (bit rot in bytes a checkpoint-less replay still needs) cannot
// be reconciled to any consistent prefix and fails recovery with
// ErrCorrupt instead of serving a gapped database.
//
// Fault injection: Options' Hooks and BeforeTruncate intercept every log
// write, fsync and truncation (and the codec's Hooks every checkpoint
// file's); internal/faultinject's Disk provides
// short writes, fsync failures, bit flips, and crash-at-offset through
// them, and the tests in this package sweep a crash over every byte
// offset of a log to prove the prefix property.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"sepdl/internal/database"
	"sepdl/internal/leakcheck"
	"sepdl/internal/segment"
)

// DefaultCheckpointBytes is the log growth that triggers NeedCheckpoint
// when Options does not override it.
const DefaultCheckpointBytes = 8 << 20

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("wal: store closed")

// ErrCorrupt reports log or checkpoint damage recovery cannot reconcile
// to a consistent prefix: a bad record in a non-final segment, a missing
// segment in the replay chain, or an unreadable checkpoint whose
// superseded segments are gone.
var ErrCorrupt = errors.New("wal: corrupt log")

// Options configures a Store. The zero value is production defaults.
type Options struct {
	// CheckpointBytes is the current-segment size at which NeedCheckpoint
	// starts reporting true; 0 means DefaultCheckpointBytes, negative
	// disables checkpoint prompting entirely.
	CheckpointBytes int64
	// NoSync skips fsync on appends — group durability only at rotation,
	// checkpoint, and close. It trades the per-write crash guarantee for
	// throughput; benches use it to separate log-append cost from fsync
	// cost.
	NoSync bool

	// Hooks intercept every log append's write and fsync; fault
	// injection plugs in here. The log's directory fsyncs bypass them.
	Hooks segment.Hooks
	// BeforeTruncate, if set, intercepts the self-heal truncation after a
	// failed append.
	BeforeTruncate func(name string) error

	// Tick, if set, is called during recovery after every replayed record
	// and between steps of the checkpoint install, the budget hook that keeps
	// replay loops cancellable and accounted (the budgetcheck lint
	// enforces that every replay loop reaches one).
	Tick func() error

	// Checkpointer writes, verifies and recovers the store's checkpoints.
	// Open asks it for the newest checkpoint that verifies, WriteCheckpoint
	// hands it the state to persist, and recovery installs that state
	// through the RecoverSink's ColdSink extension instead of replaying
	// every fact. Pass it the same Hooks. nil makes the store log-only:
	// recovery replays the whole log and WriteCheckpoint fails.
	Checkpointer *segment.Codec
}

// progress adapts Options.Tick to a method named Tick so replay loops
// satisfy the budget-hook invariant the budgetcheck analyzer enforces.
type progress struct{ fn func() error }

func (p progress) Tick() error {
	if p.fn == nil {
		return nil
	}
	return p.fn()
}

// Store is the write-ahead-log implementation of database.Store. Appends
// and Rotate are serialized by the caller (the engine's writer lock);
// WriteCheckpoint and Stats may run concurrently with them; every method
// locks internally, so misuse degrades to contention, not corruption.
type Store struct {
	dir  string
	opts Options
	tick progress

	mu      sync.Mutex
	f       *os.File // current segment, open read-write
	name    string   // current segment path
	tok     uint64   // leakcheck token for f
	seq     uint64   // current segment sequence
	minSeq  uint64   // lowest live segment sequence
	off     int64    // durable end of the current segment
	failed  error    // non-nil once the store poisoned itself
	closed  bool
	stats   database.StoreStats
	ckpSeq  uint64 // newest valid checkpoint at open (0 = none)
	ckpProg string // its program text
}

// Open opens (creating if necessary) the log in dir. The store is ready
// for Recover and appends; no replay happens here beyond locating and
// validating the newest checkpoint.
func Open(dir string, opts Options) (*Store, error) {
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = DefaultCheckpointBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, tick: progress{opts.Tick}}
	s.stats.Durable = true

	segs, err := s.scan()
	if err != nil {
		return nil, err
	}
	var ckpts []uint64
	if c := opts.Checkpointer; c != nil {
		if ckpts, err = c.Checkpoints(); err != nil {
			return nil, err
		}
	}
	if len(segs) == 0 {
		s.seq, s.minSeq = 1, 1
		if err := s.openSegment(1, true); err != nil {
			return nil, err
		}
		s.stats.Segments = 1
		return s, nil
	}
	s.minSeq, s.seq = segs[0], segs[len(segs)-1]
	s.stats.Segments = uint64(len(segs))

	// Pick the newest checkpoint whose marker and segment verify and whose
	// replay chain (its own sequence up to the newest segment) is intact.
	segSet := make(map[uint64]bool, len(segs))
	for _, q := range segs {
		segSet[q] = true
	}
	for i := len(ckpts) - 1; i >= 0; i-- {
		c := ckpts[i]
		if c > s.seq || !chainIntact(segSet, c, s.seq) {
			continue
		}
		prog, err := opts.Checkpointer.Validate(c)
		if err != nil {
			s.stats.CheckpointErrors++
			continue
		}
		s.ckpSeq, s.ckpProg = c, prog
		break
	}
	if s.ckpSeq == 0 && !chainIntact(segSet, s.minSeq, s.seq) {
		return nil, fmt.Errorf("%w: segment gap between %d and %d with no usable checkpoint", ErrCorrupt, s.minSeq, s.seq)
	}
	if s.ckpSeq == 0 && s.minSeq != 1 {
		return nil, fmt.Errorf("%w: oldest segment is %d but no usable checkpoint covers segments before it", ErrCorrupt, s.minSeq)
	}
	if err := s.openSegment(s.seq, false); err != nil {
		return nil, err
	}
	return s, nil
}

// chainIntact reports whether every segment sequence in [lo, hi] exists.
func chainIntact(segs map[uint64]bool, lo, hi uint64) bool {
	for q := lo; q <= hi; q++ {
		if !segs[q] {
			return false
		}
	}
	return true
}

// scan returns the sorted sequences of the log segments in the directory.
func (s *Store) scan() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range entries {
		if q, ok := logSeq(e.Name()); ok && q > 0 {
			segs = append(segs, q)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// logSeq parses a log segment's file name.
func logSeq(name string) (uint64, bool) {
	var q uint64
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	_, err := fmt.Sscanf(name, "wal-%016d.log", &q)
	return q, err == nil
}

func segName(seq uint64) string { return fmt.Sprintf("wal-%016d.log", seq) }

// openSegment opens segment seq as the current append target, creating it
// (and fsyncing the directory so the name survives a crash) when create
// is set.
func (s *Store) openSegment(seq uint64, create bool) error {
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE | os.O_EXCL
	}
	path := filepath.Join(s.dir, segName(seq))
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	if create {
		if err := (segment.Hooks{}).SyncDir(s.dir); err != nil {
			f.Close()
			return err
		}
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if s.f != nil {
		s.f.Close()
		leakcheck.CloseResource(s.tok)
	}
	s.f, s.name, s.off = f, path, fi.Size()
	s.tok = leakcheck.OpenResource("walfile " + path)
	return nil
}

// writeAt writes p at off in the current segment through the fault hook.
func (s *Store) writeAt(p []byte, off int64) error {
	return s.opts.Hooks.WriteAt(s.f, p, off)
}

// syncFile fsyncs the current segment through the fault hook. NoSync
// skips it entirely (group durability at rotation/close only).
func (s *Store) syncFile() error {
	if s.opts.NoSync {
		return nil
	}
	s.stats.Syncs++
	if err := s.opts.Hooks.Sync(s.f); err != nil {
		s.stats.SyncErrors++
		return err
	}
	return nil
}

// heal rolls a failed append back by truncating the segment to its last
// durable end. If even that fails the store poisons itself: every later
// append reports the poisoning error, because appending after garbage
// would corrupt the log for every record that follows.
func (s *Store) heal() {
	if h := s.opts.BeforeTruncate; h != nil {
		if err := h(s.name); err != nil {
			s.failed = fmt.Errorf("wal: poisoned, failed append could not be rolled back: %w", err)
			return
		}
	}
	if err := s.f.Truncate(s.off); err != nil {
		s.failed = fmt.Errorf("wal: poisoned, failed append could not be rolled back: %w", err)
	}
}

// append encodes and durably appends one record. On any failure the
// segment is rolled back to its previous end (or the store poisons
// itself), so the log never acknowledges a record it might not replay.
func (s *Store) append(typ byte, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		s.stats.AppendErrors++
		return s.failed
	}
	rec := appendRecord(nil, typ, payload)
	if err := s.writeAt(rec, s.off); err != nil {
		s.heal()
		s.stats.AppendErrors++
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := s.syncFile(); err != nil {
		s.heal()
		s.stats.AppendErrors++
		return fmt.Errorf("wal: append sync: %w", err)
	}
	s.off += int64(len(rec))
	s.stats.Appends++
	s.stats.BytesAppended += uint64(len(rec))
	return nil
}

// AppendFact logs one AddFact.
func (s *Store) AppendFact(pred string, args []string) error {
	return s.append(recAddFact, encodeFact(pred, args))
}

// AppendFacts logs one LoadFacts batch as its raw source text.
func (s *Store) AppendFacts(src string) error { return s.append(recFacts, []byte(src)) }

// AppendProgram logs one LoadProgram source text.
func (s *Store) AppendProgram(src string) error { return s.append(recProgram, []byte(src)) }

// AppendClear logs a ClearProgram.
func (s *Store) AppendClear() error { return s.append(recClear, nil) }

// NeedCheckpoint reports that the current segment outgrew the checkpoint
// threshold. The engine polls it after writes and runs the checkpoint
// (Rotate under its writer lock, then WriteCheckpoint concurrently).
func (s *Store) NeedCheckpoint() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opts.CheckpointBytes > 0 && s.off >= s.opts.CheckpointBytes &&
		s.failed == nil && !s.closed
}

// Rotate seals the current segment (with a final fsync so group-commit
// configurations lose nothing at a segment boundary) and starts a new
// one. The caller must exclude appends and snapshot its state at the same
// instant; the returned sequence is what WriteCheckpoint must cover.
func (s *Store) Rotate() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.failed != nil {
		return 0, s.failed
	}
	if s.opts.NoSync {
		// Group durability boundary: everything in the sealed segment must
		// be on disk before a checkpoint can claim to supersede it.
		if err := s.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: rotate sync: %w", err)
		}
	}
	if err := s.openSegment(s.seq+1, true); err != nil {
		return 0, fmt.Errorf("wal: rotate: %w", err)
	}
	s.seq++
	s.stats.Segments++
	return s.seq, nil
}

// Stats returns a copy of the store's counters, with the segment tier's
// counters merged in when a Checkpointer is attached.
func (s *Store) Stats() database.StoreStats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	if c := s.opts.Checkpointer; c != nil {
		st.Segment = c.Stats()
	}
	return st
}

// ColdSet exposes the newest installed segment checkpoint's predicates as
// cold bases (database.ColdStore); nil without a Checkpointer or before
// the first segment checkpoint.
func (s *Store) ColdSet() database.ColdSet {
	if c := s.opts.Checkpointer; c != nil {
		return c.ColdSet()
	}
	return nil
}

// Close releases the store's file handles. In-flight checkpoints must be
// waited out by the caller first (the engine does); appends after Close
// fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.f != nil {
		err = s.f.Sync()
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		leakcheck.CloseResource(s.tok)
		s.f = nil
	}
	if c := s.opts.Checkpointer; c != nil {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
