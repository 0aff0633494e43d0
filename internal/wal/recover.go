package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sepdl/internal/database"
)

// Recover replays the persisted history into sink: the newest valid
// checkpoint first, then every log record after it, in acknowledged
// order. A torn tail in the newest segment — a crash mid-append — is
// truncated at the first bad length or checksum, so the store resumes
// appending from the end of the acknowledged prefix; damage anywhere
// earlier fails with ErrCorrupt. Call once, before any append; recovery
// is single-threaded and runs before the engine admits queries.
func (s *Store) Recover(sink database.RecoverSink) error {
	start := time.Now()
	if s.ckpSeq != 0 {
		// Symbols first (cold tuples reference interned ids, so the table
		// must align before anything else interns a name), then the
		// per-predicate cold bases, then the program.
		if err := s.opts.Checkpointer.Recover(s.ckpSeq, sink, s.tick.Tick); err != nil {
			return fmt.Errorf("wal: checkpoint segment: %w", err)
		}
		if s.ckpProg != "" {
			if err := sink.LoadProgram(s.ckpProg); err != nil {
				return fmt.Errorf("wal: checkpoint program: %w", err)
			}
		}
	}
	from := s.ckpSeq
	if from == 0 {
		from = s.minSeq
	}
	for q := from; q <= s.seq; q++ {
		data, err := os.ReadFile(filepath.Join(s.dir, segName(q)))
		if err != nil {
			return fmt.Errorf("wal: recover: %w", err)
		}
		if err := s.replaySegment(sink, data, q == s.seq); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.stats.RecoveryNanos = uint64(time.Since(start))
	s.ckpProg = "" // replayed into the sink; no need to keep it
	s.mu.Unlock()
	return nil
}

// replaySegment applies one segment's records to the sink. In the last
// segment a bad record is the torn tail: the file is truncated there and
// replay ends successfully. In any earlier segment the same damage is
// unreconcilable corruption.
func (s *Store) replaySegment(sink database.RecoverSink, data []byte, last bool) error {
	off := 0
	for off < len(data) {
		typ, payload, next, perr := parseRecord(data, off)
		if perr != nil {
			if !last {
				return fmt.Errorf("%w: bad record at offset %d of a non-final segment", ErrCorrupt, off)
			}
			return s.truncateTail(off)
		}
		var err error
		switch typ {
		case recAddFact:
			var pred string
			var args []string
			if pred, args, err = decodeFact(payload); err == nil {
				err = sink.AddFact(pred, args)
			}
		case recFacts:
			err = sink.LoadFacts(string(payload))
		case recProgram:
			err = sink.LoadProgram(string(payload))
		case recClear:
			err = sink.ClearProgram()
		default:
			err = fmt.Errorf("%w: unknown record type %d", ErrCorrupt, typ)
		}
		if err != nil {
			return fmt.Errorf("wal: replay record at offset %d: %w", off, err)
		}
		s.mu.Lock()
		s.stats.RecoveredRecords++
		s.stats.RecoveredBytes += uint64(next - off)
		s.mu.Unlock()
		if err := s.tick.Tick(); err != nil {
			return err
		}
		off = next
	}
	return nil
}

// truncateTail cuts the current segment at the first bad record, making
// the acknowledged prefix the whole log again, and fsyncs so the
// truncation itself survives the next crash.
func (s *Store) truncateTail(off int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Truncate(int64(off)); err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	s.off = int64(off)
	s.stats.RecoveryTruncations++
	return nil
}
