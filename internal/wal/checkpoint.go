package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"sepdl/internal/database"
)

// errLogOnly reports a checkpoint asked of a store opened without a codec.
var errLogOnly = errors.New("wal: checkpoint: store has no checkpoint codec (log only)")

// WriteCheckpoint hands the codec the snapshot covering every segment
// below seq (the sequence Rotate returned), then deletes the superseded
// log segments and checkpoints. state must be the engine state at the
// exact instant of that rotation. The codec publishes the segment and
// then its marker; the write runs concurrent with appends to the new
// segment, and only bookkeeping takes the store lock. A store opened
// without a codec keeps only its log and fails every checkpoint.
func (s *Store) WriteCheckpoint(seq uint64, program string, state database.CheckpointState) error {
	c := s.opts.Checkpointer
	err := errLogOnly
	if c != nil {
		err = c.Write(seq, program, state)
	}
	if err != nil {
		s.mu.Lock()
		s.stats.CheckpointErrors++
		s.mu.Unlock()
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	s.compact(seq)
	return nil
}

// compact deletes every log segment and checkpoint the new checkpoint at
// seq supersedes. It rescans the directory rather than trusting
// bookkeeping: files a previous compaction failed to remove, or stale
// checkpoints from runs that crashed between install and cleanup, must
// not accumulate — the one guarantee is that nothing at or above seq is
// touched. An individual removal error leaves a file the *next*
// compaction's rescan retries, so leftovers are transient, not permanent;
// errors never fail the checkpoint itself (recovery always prefers the
// newest valid checkpoint).
func (s *Store) compact(seq uint64) {
	s.mu.Lock()
	hi := s.seq
	if seq > s.minSeq {
		s.minSeq = seq
	}
	s.stats.Checkpoints++
	if hi >= s.minSeq {
		s.stats.Segments = hi - s.minSeq + 1
	}
	s.ckpSeq, s.ckpProg = seq, ""
	s.mu.Unlock()

	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			if q, ok := logSeq(e.Name()); ok && q < seq {
				os.Remove(filepath.Join(s.dir, e.Name()))
			}
		}
	}
	s.opts.Checkpointer.DropBelow(seq)
}
