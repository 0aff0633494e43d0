package database

import (
	"sepdl/internal/rel"
	"sepdl/internal/symtab"
)

// Store is the durability seam behind the engine's writers. Every logical
// mutation of the extensional database — a single fact, a parsed fact
// batch, a program load, a program clear — is offered to the store
// *before* it is applied to the in-memory state, so an acknowledged write
// is durable and a failed append leaves both the store and the snapshot
// unchanged. Reads never touch the store: queries run against in-memory
// copy-on-write snapshots, and the store's only read path is Recover,
// which replays the persisted history into a fresh engine at boot.
//
// Two implementations exist: MemStore (the default; keeps nothing, so the
// engine behaves exactly as the pure in-RAM system always has) and the
// write-ahead log in internal/wal (append-only, checksummed, with
// checkpoint compaction and crash recovery).
//
// Callers serialize Append*, Rotate, and Recover with each other (the
// engine invokes them under its writer lock); WriteCheckpoint and Stats
// may run concurrently with appends, and Close may race a checkpoint.
type Store interface {
	// Recover replays the persisted history into sink in acknowledged
	// order: first the newest valid checkpoint (its symbols and cold bases
	// through ColdSink, or its facts one AddFact at a time for a sink
	// without it, then its program), then every log record after it. It
	// must be called once, before any Append.
	Recover(sink RecoverSink) error

	// AppendFact logs one AddFact. The record is durable when the call
	// returns nil; on error nothing of the record remains in the log.
	AppendFact(pred string, args []string) error
	// AppendFacts logs one LoadFacts batch as its raw source text, which
	// replays through the same parser that accepted it.
	AppendFacts(src string) error
	// AppendProgram logs one LoadProgram source text.
	AppendProgram(src string) error
	// AppendClear logs a ClearProgram.
	AppendClear() error

	// NeedCheckpoint reports that the log has grown past its compaction
	// threshold and the engine should run a checkpoint.
	NeedCheckpoint() bool
	// Rotate seals the current log segment and starts a new one, returning
	// the new segment's sequence number. The caller must exclude writers
	// for the duration and snapshot its state at the same instant: a
	// checkpoint written for the returned sequence must hold exactly the
	// state produced by every record in the sealed segments.
	Rotate() (seq uint64, err error)
	// WriteCheckpoint durably writes the state covering all segments below
	// seq, then deletes the log segments and checkpoints it supersedes. It
	// may run concurrently with appends to the post-Rotate segment. state
	// must be an immutable snapshot taken at the Rotate instant; the
	// write-ahead log hands it to its segment codec, which writes it as a
	// queryable sorted segment.
	WriteCheckpoint(seq uint64, program string, state CheckpointState) error

	// Stats returns the store's cumulative counters.
	Stats() StoreStats
	// Close releases the store's file handles. Appends after Close fail.
	Close() error
}

// RecoverSink receives the logical operations of a store's persisted
// history, in the order they were acknowledged. The engine implements it
// with direct (non-logging) writes to its in-memory state.
type RecoverSink interface {
	AddFact(pred string, args []string) error
	LoadFacts(src string) error
	LoadProgram(src string) error
	ClearProgram() error
}

// CheckpointState is the read surface a segment build needs from the
// engine's snapshot: the predicate directory, each relation (for sorted
// enumeration of cold base + overlay), and the symbol table (segment
// files persist interned ids, so the id→name mapping must travel with
// them). The snapshot is immutable, so all methods are safe to call off
// the engine's locks. *Database implements it.
type CheckpointState interface {
	Preds() []string
	Relation(pred string) *rel.Relation
	SymbolTable() *symtab.Table
}

// ColdSink is the optional extension of RecoverSink a segment-aware
// recovery target implements: instead of replaying every checkpointed
// fact, the store installs the symbol table and per-predicate cold bases
// (disk-resident sorted tuple sets) directly, and only post-checkpoint
// log records replay fact by fact.
type ColdSink interface {
	// InstallSymbols interns names in id order into the target's symbol
	// table and fails if the resulting ids do not align — cold tuples
	// reference these ids, so misalignment would silently corrupt answers.
	InstallSymbols(names []string) error
	// InstallCold rebases pred onto base: the relation's bulk serves from
	// base with an empty in-RAM overlay on top.
	InstallCold(pred string, arity int, base rel.ColdBase) error
}

// ColdSet is the directory of cold bases a checkpoint produced, handed
// back to the engine after a flush so it can rebase its relations onto
// the freshly written segment (dropping the flushed overlay from RAM).
type ColdSet interface {
	Preds() []string
	Cold(pred string) (base rel.ColdBase, arity int, ok bool)
}

// ColdStore is the optional Store extension for stores whose checkpoints
// are queryable segments. ColdSet returns the newest durably installed
// checkpoint's cold bases, or nil before the first segment checkpoint.
type ColdStore interface {
	Store
	ColdSet() ColdSet
}

// StoreStats are a store's cumulative counters, the durability slice of
// the engine's observability surface (EngineStats embeds these fields and
// sepdld exports them as Prometheus sepdl_wal_* series). MemStore reports
// zeros with Durable false.
type StoreStats struct {
	// Durable reports that writes survive the process (false for MemStore).
	Durable bool
	// Appends counts acknowledged log records; AppendErrors counts appends
	// that failed (and were rolled back, leaving no partial record).
	Appends      uint64
	AppendErrors uint64
	// Syncs counts fsyncs issued for appended data; SyncErrors the fsyncs
	// that failed (the append is then reported failed too).
	Syncs      uint64
	SyncErrors uint64
	// BytesAppended totals the encoded bytes of acknowledged records.
	BytesAppended uint64
	// Checkpoints counts checkpoints durably installed; CheckpointErrors
	// counts attempts abandoned on error (recovery ignores their leftovers).
	Checkpoints      uint64
	CheckpointErrors uint64
	// Segments is the number of live log segments (a gauge).
	Segments uint64
	// RecoveredRecords and RecoveredBytes describe what boot-time recovery
	// replayed from the log (checkpoint contents not included).
	RecoveredRecords uint64
	RecoveredBytes   uint64
	// RecoveryTruncations counts torn log tails cut off at the first bad
	// length or checksum during recovery.
	RecoveryTruncations uint64
	// RecoveryNanos is how long boot-time recovery took.
	RecoveryNanos uint64
	// Segment describes the segment tier of a ColdStore (zeros otherwise).
	Segment SegmentStats
}

// SegmentStats are the segment tier's cumulative counters (exported by
// sepdld as Prometheus sepdl_store_* series).
type SegmentStats struct {
	// SegmentFiles is the number of live segment files (a gauge);
	// SegmentTuples the tuple count of the newest installed segment.
	SegmentFiles  uint64
	SegmentTuples uint64
	// SegmentBuilds counts segment files durably written; SegmentBuildErrors
	// counts builds abandoned on error.
	SegmentBuilds      uint64
	SegmentBuildErrors uint64
	// BlockCacheHits/Misses count decoded-block cache probes;
	// SegmentBytesRead totals bytes fetched from segment files on misses.
	BlockCacheHits   uint64
	BlockCacheMisses uint64
	SegmentBytesRead uint64
}

// MemStore is the in-RAM Store: it persists nothing, recovers nothing,
// and never asks for a checkpoint. An engine built on it is exactly the
// original all-in-memory system.
type MemStore struct{}

// NewMemStore returns the in-RAM no-op store.
func NewMemStore() *MemStore { return &MemStore{} }

// Recover replays nothing: there is no persisted history.
func (*MemStore) Recover(RecoverSink) error { return nil }

// AppendFact is a no-op.
func (*MemStore) AppendFact(string, []string) error { return nil }

// AppendFacts is a no-op.
func (*MemStore) AppendFacts(string) error { return nil }

// AppendProgram is a no-op.
func (*MemStore) AppendProgram(string) error { return nil }

// AppendClear is a no-op.
func (*MemStore) AppendClear() error { return nil }

// NeedCheckpoint never fires: there is no log to compact.
func (*MemStore) NeedCheckpoint() bool { return false }

// Rotate is a no-op.
func (*MemStore) Rotate() (uint64, error) { return 0, nil }

// WriteCheckpoint is a no-op.
func (*MemStore) WriteCheckpoint(uint64, string, CheckpointState) error { return nil }

// Stats reports zeros.
func (*MemStore) Stats() StoreStats { return StoreStats{} }

// Close is a no-op.
func (*MemStore) Close() error { return nil }
