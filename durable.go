package sepdl

import (
	"errors"
	"fmt"

	"sepdl/internal/ast"
	"sepdl/internal/database"
	"sepdl/internal/parser"
	"sepdl/internal/rel"
	"sepdl/internal/segment"
	"sepdl/internal/wal"
)

// This file is the durability layer over the core engine: Open builds an
// Engine whose writes go through a write-ahead log (internal/wal) before
// they touch memory, recovering the persisted state first. Everything
// else about the engine — snapshots, admission control, strategies — is
// identical to New; queries never touch the disk.

// ErrEngineClosed reports a write on an engine whose Close has run.
var ErrEngineClosed = errors.New("sepdl: engine closed")

// StoreStats is the durable store's counter snapshot, re-exported so
// callers outside the module can name EngineStats.WAL's type.
type StoreStats = database.StoreStats

// WithCheckpointBytes sets the log-growth threshold (bytes in the current
// segment) at which a durable engine checkpoints and compacts its log.
// 0 (the default) uses wal.DefaultCheckpointBytes; a negative value
// disables automatic checkpoints (the log grows until Checkpoint is
// called). Ignored by New.
func WithCheckpointBytes(n int64) EngineOption {
	return func(e *Engine) { e.ckptBytes = n }
}

// WithSyncWrites controls fsync-per-write on a durable engine. The
// default (true) fsyncs every acknowledged write — the full crash
// guarantee. false batches durability: writes reach the OS immediately
// but are only guaranteed on disk at checkpoints and Close, trading the
// per-write guarantee for ingest throughput. Ignored by New.
func WithSyncWrites(sync bool) EngineOption {
	return func(e *Engine) { e.noSync = !sync }
}

// WithMemtableBytes bounds the in-RAM overlay of a durable engine: when
// the resident rows on top of the cold tier outgrow n bytes, the engine
// checkpoints and rebases onto the fresh segment regardless of log
// growth, so memory stays bounded by the memtable budget plus the block
// cache even when the dataset does not fit in RAM. 0 (the default)
// leaves flushing to the log-growth threshold alone. Ignored by New and
// by engines running WithColdStorage(false).
func WithMemtableBytes(n int64) EngineOption {
	return func(e *Engine) { e.memtableBytes = n }
}

// WithBlockCacheBytes budgets the decoded-block cache segment reads go
// through: the disk-warm working set. 0 (the default) uses
// segment.DefaultCacheBytes; negative disables retention, making every
// cold read hit the disk (the honest disk-cold benchmark mode). Ignored
// by New.
func WithBlockCacheBytes(n int64) EngineOption {
	return func(e *Engine) { e.blockCacheBytes = n }
}

// WithColdStorage controls whether a durable engine serves checkpointed
// data from segment files (the default) or keeps everything resident.
// false recovers segment checkpoints by replaying them fact by fact into
// RAM and never rebases after a flush — the in-RAM oracle the
// equivalence suites and benches compare cold execution against.
// Ignored by New.
func WithColdStorage(on bool) EngineOption {
	return func(e *Engine) { e.coldOff = !on }
}

// Open returns an engine whose facts and rules are durable in dir,
// creating the directory on first use. Open replays the existing log —
// checkpoint first, then every acknowledged write after it, truncating a
// tail torn by a crash — so the returned engine holds exactly the state
// every acknowledged write built, and is ready to serve queries. All
// EngineOptions apply as with New. The caller must Close the engine to
// release the log; a crash instead of a Close loses nothing acknowledged.
func Open(dir string, opts ...EngineOption) (*Engine, error) {
	e := New(opts...)
	st, err := e.openStore(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	if err := e.attach(st); err != nil {
		st.Close()
		return nil, err
	}
	return e, nil
}

// openStore opens the write-ahead log in dir with the segment codec
// attached, both writing through o's fault hooks (zero in Open; tests
// pass faultinject hooks). The codec is attached even with cold storage
// off: checkpoints must stay readable, and Recover then replays them fact
// by fact instead of installing cold bases.
func (e *Engine) openStore(dir string, o wal.Options) (*wal.Store, error) {
	cacheBytes := e.blockCacheBytes
	if cacheBytes == 0 {
		cacheBytes = segment.DefaultCacheBytes
	}
	o.CheckpointBytes = e.ckptBytes
	o.NoSync = e.noSync
	o.Checkpointer = segment.NewCodec(dir, cacheBytes, 0, o.Hooks)
	o.Tick = func() error {
		if e.closed.Load() {
			return ErrEngineClosed
		}
		return nil
	}
	return wal.Open(dir, o)
}

// attach installs a recovered durable store as the engine's write-ahead
// seam: replay the persisted history into the in-memory state, then start
// logging. Split from Open so tests can attach a store with fault hooks.
func (e *Engine) attach(st database.Store) error {
	var sink database.RecoverSink = recoverSink{e}
	if !e.coldOff {
		// The ColdSink extension lets a segment-backed checkpoint install
		// its predicates as disk-resident cold bases instead of replaying
		// every fact into RAM.
		sink = coldRecoverSink{recoverSink{e}}
	}
	if err := st.Recover(sink); err != nil {
		return fmt.Errorf("sepdl: recovering %w", err)
	}
	e.mu.Lock()
	e.store = st
	e.bumpDBRevLocked()
	e.mu.Unlock()
	return nil
}

// Close waits out any in-flight checkpoint and releases the durable
// store's files; writes after Close fail with the store's closed error.
// The caller must have stopped its writers (a serving layer drains
// first); queries need nothing from the store and keep working against
// the in-memory state. Close is idempotent and a no-op on New engines.
func (e *Engine) Close() error {
	e.closed.Store(true)
	e.ckptWG.Wait()
	return e.store.Close()
}

// Checkpoint forces a checkpoint synchronously: the log is rotated under
// the writer lock and the engine's exact state at that instant is written
// as the new recovery baseline, superseding the sealed segments. A
// background checkpoint still in flight finishes first; the two never
// overlap. On a New engine it is a no-op. Automatic checkpoints
// (WithCheckpointBytes) make calling this optional; it exists for
// maintenance windows and tests.
func (e *Engine) Checkpoint() error {
	e.ckptBusy.Lock()
	defer e.ckptBusy.Unlock()
	e.mu.Lock()
	seq, err := e.store.Rotate()
	if err != nil {
		e.mu.Unlock()
		return err
	}
	prog := e.state.prog.String()
	snap := e.db.Snapshot()
	e.mu.Unlock()
	if seq == 0 {
		return nil // MemStore: nothing to checkpoint
	}
	if err := e.store.WriteCheckpoint(seq, prog, snap); err != nil {
		return err
	}
	e.rebaseCold()
	return nil
}

// maybeCheckpointLocked starts a background checkpoint when the log has
// outgrown its threshold and none is already running. The rotation and
// state snapshot happen here, under the writer lock the caller holds, so
// the checkpoint is exactly the state the sealed segments produce; the
// expensive write streams from the immutable snapshot off-lock,
// concurrent with new appends and with readers.
func (e *Engine) maybeCheckpointLocked() {
	if !e.needCheckpointLocked() || !e.ckptBusy.TryLock() {
		return
	}
	seq, err := e.store.Rotate()
	if err != nil {
		e.ckptBusy.Unlock()
		return
	}
	prog := e.state.prog.String()
	snap := e.db.Snapshot()
	st := e.store
	e.ckptWG.Add(1)
	go func() {
		defer e.ckptWG.Done()
		defer e.ckptBusy.Unlock()
		// Failure is recorded in StoreStats.CheckpointErrors; the sealed
		// segments stay live, so nothing acknowledged is at risk and the
		// next threshold crossing retries.
		if st.WriteCheckpoint(seq, prog, snap) == nil {
			e.rebaseCold()
		}
	}()
}

// needCheckpointLocked reports whether a background checkpoint should
// start: the store's log-growth threshold, or — on a cold-storage engine
// with a memtable budget — the in-RAM overlay outgrowing that budget.
func (e *Engine) needCheckpointLocked() bool {
	if e.store.NeedCheckpoint() {
		return true
	}
	if e.memtableBytes <= 0 || e.coldOff {
		return false
	}
	if _, ok := e.store.(database.ColdStore); !ok {
		return false // flushing would not shrink the overlay
	}
	return e.db.OverlayBytes() >= e.memtableBytes
}

// rebaseCold swaps every predicate the newest checkpoint covered onto
// its segment-backed cold base, dropping the flushed rows from RAM while
// keeping writes that landed after the rotation as the new overlay. The
// database revision is NOT bumped: the content is identical, so plan and
// closure caches stay warm. No-op for stores without cold storage
// (MemStore) and with cold storage off.
func (e *Engine) rebaseCold() {
	if e.coldOff {
		return
	}
	cs, ok := e.store.(database.ColdStore)
	if !ok {
		return
	}
	set := cs.ColdSet()
	if set == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, pred := range set.Preds() {
		if base, arity, ok := set.Cold(pred); ok {
			e.db.SetCold(pred, arity, base)
		}
	}
}

// recoverSink applies the store's replayed history directly to the
// engine's in-memory state, without logging (the records are already in
// the log) and without strict checks (the writes were accepted when first
// acknowledged; a policy change must not brick an existing database).
// Recovery runs single-threaded before the engine serves, but the sink
// locks anyway so a misuse degrades to contention.
type recoverSink struct{ e *Engine }

func (s recoverSink) AddFact(pred string, args []string) error {
	s.e.mu.Lock()
	defer s.e.mu.Unlock()
	_, err := s.e.db.AddFact(pred, args...)
	return err
}

func (s recoverSink) LoadFacts(src string) error {
	fs, err := parser.Facts(src)
	if err != nil {
		return err
	}
	s.e.mu.Lock()
	defer s.e.mu.Unlock()
	return s.e.db.Load(fs)
}

func (s recoverSink) LoadProgram(src string) error {
	s.e.mu.Lock()
	defer s.e.mu.Unlock()
	combined, err := s.e.compileProgramLocked(src, false)
	if err != nil {
		return err
	}
	s.e.state = newProgState(combined)
	return nil
}

func (s recoverSink) ClearProgram() error {
	s.e.mu.Lock()
	defer s.e.mu.Unlock()
	s.e.state = newProgState(&ast.Program{})
	return nil
}

// coldRecoverSink extends recoverSink with the database.ColdSink methods
// a segment-backed checkpoint uses to install disk-resident bases
// instead of replaying facts. InstallSymbols must run before anything
// else interns a name: cold tuples reference interned ids, so the
// recovered table has to assign exactly the ids the segment recorded.
type coldRecoverSink struct{ recoverSink }

func (s coldRecoverSink) InstallSymbols(names []string) error {
	s.e.mu.Lock()
	defer s.e.mu.Unlock()
	tab := s.e.db.SymbolTable()
	if i := tab.InternAll(names); i >= 0 {
		got, _ := tab.Lookup(names[i])
		return fmt.Errorf("sepdl: recovering segment symbols: %q interned as %d, want %d", names[i], got, i)
	}
	return nil
}

func (s coldRecoverSink) InstallCold(pred string, arity int, base rel.ColdBase) error {
	s.e.mu.Lock()
	defer s.e.mu.Unlock()
	return s.e.db.SetCold(pred, arity, base)
}

var _ database.ColdSink = coldRecoverSink{}
