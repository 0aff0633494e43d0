package sepdl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/check"
	"sepdl/internal/core"
	"sepdl/internal/database"
	"sepdl/internal/diag"
	"sepdl/internal/eval"
	"sepdl/internal/magic"
	"sepdl/internal/parser"
	"sepdl/internal/plancache"
	"sepdl/internal/provenance"
	"sepdl/internal/rel"
	"sepdl/internal/stats"
)

// Strategy selects how a query is evaluated.
type Strategy string

// The strategies the engine serves. Auto runs the separability test and
// picks Separable, MagicSets, or SemiNaive.
const (
	Auto         Strategy = "auto"
	Separable    Strategy = "separable"
	MagicSets    Strategy = "magic"
	MagicSetsSup Strategy = "magic-sup" // supplementary-magic variant [BR87]
	SemiNaive    Strategy = "seminaive"
	Naive        Strategy = "naive"
)

// checkStrategy rejects a strategy the engine does not serve. Queries call
// it before admission, so an unknown name never reaches the plan cache,
// whose keys would otherwise grow with every distinct name a client sends.
func checkStrategy(s Strategy) error {
	switch s {
	case Auto, Separable, MagicSets, MagicSetsSup, SemiNaive, Naive:
		return nil
	}
	return fmt.Errorf("%w: %q", ErrUnknownStrategy, s)
}

// Engine holds a program and a fact database and answers queries.
// The zero value is not usable; construct with New.
//
// An Engine is safe for concurrent use. Queries run under snapshot
// isolation: each Query/QueryCtx (and each Materialize) evaluates against
// an immutable copy-on-write snapshot of the fact database taken at entry,
// so concurrent readers never block each other and never observe a
// half-applied update. Writers — AddFact, LoadFacts, LoadProgram,
// ClearProgram — serialize on an internal writer lock and are visible to
// every query admitted after they return. WithMaxConcurrent adds admission
// control on top: excess queries queue until a slot frees or their
// deadline expires, then fail with ErrOverloaded instead of thrashing.
type Engine struct {
	// mu serializes database mutation, program swaps, and snapshot
	// creation (taking a snapshot flips per-relation copy-on-write marks,
	// so it needs the same exclusion as a write; it is O(#relations) and
	// never held during evaluation).
	mu    sync.Mutex
	db    *database.Database
	state *progState
	// store is the durability seam: every write is appended (and fsynced)
	// here before it is applied to db/state, so an acknowledged write is
	// durable and a failed append changes nothing. New engines get the
	// no-op MemStore; Open swaps in the write-ahead log.
	store database.Store
	// dbRev is the fact-database revision: bumped under mu by every write
	// that actually changes the fact set. Closure-cache entries are keyed
	// by it, so a bump strands every entry computed against older facts.
	dbRev uint64

	maxConcurrent int
	admitWait     time.Duration
	gate          chan struct{}
	strict        bool
	planCacheOff  bool
	closureBytes  int64
	closures      *plancache.Closures
	ckptBytes     int64
	noSync        bool
	// memtableBytes, when positive, is the in-RAM overlay footprint that
	// triggers a checkpoint flush on a cold-storage engine, independent of
	// log growth. blockCacheBytes budgets the segment block cache
	// (0 = segment.DefaultCacheBytes, negative = no retention). coldOff
	// keeps recovered and checkpointed data fully resident (the in-RAM
	// oracle mode benches and equivalence tests compare against).
	memtableBytes   int64
	blockCacheBytes int64
	coldOff         bool

	// ckptBusy is held by the one checkpoint in flight: background
	// checkpoints skip when it is taken, Checkpoint waits for it. ckptWG
	// lets Close wait out a background one; closed gates writes after Close.
	ckptBusy sync.Mutex
	ckptWG   sync.WaitGroup
	closed   atomic.Bool

	// draining is the runtime drain switch (see Drain); drainCh is closed
	// on Drain so queries queued at the admission gate wake up and fail
	// instead of waiting out a slot that will never serve them.
	draining atomic.Bool
	drainMu  sync.Mutex
	drainCh  chan struct{}

	// counters aggregates lifetime totals across all queries; see Stats.
	counters engineCounters
}

// progState is one immutable program revision plus its memoized
// separability analyses and compiled query plans. LoadProgram and
// ClearProgram install a fresh state, so queries already running keep
// analyzing the revision they started with and never pollute the new
// cache; the plan cache dies with its revision, which is exactly its
// validity scope (plans depend only on the program and the query form).
type progState struct {
	prog *ast.Program
	// rev is this revision's engine-global number, used to scope
	// closure-cache entries; see plancache.Scope.
	rev      uint64
	mu       sync.Mutex
	analyses map[string]analysisEntry
	plans    map[planKey]*plan
}

// analysisEntry memoizes one AnalyzeOpts outcome, keeping the error so
// Explain can report why a recursion is not separable without re-running
// the analysis.
type analysisEntry struct {
	a   *core.Analysis
	err error
}

// progRevCounter numbers program revisions engine-globally, so closure
// cache scopes never collide across engines sharing one cache in tests.
var progRevCounter atomic.Uint64

func newProgState(p *ast.Program) *progState {
	return &progState{
		prog:     p,
		rev:      progRevCounter.Add(1),
		analyses: make(map[string]analysisEntry),
		plans:    make(map[planKey]*plan),
	}
}

// planKey identifies one compiled plan: the requested strategy (Auto
// included — its entry memoizes the pick), the predicate, which argument
// positions carry constants, and the connectivity relaxation.
type planKey struct {
	strategy Strategy
	pred     string
	mask     string
	relaxed  bool
}

// plan holds the constant-independent compiled artifacts for one query
// form: the resolved strategy, the separability analysis the strategy
// consumes (nil when not separable), and the magic rewrite template for
// the Magic strategies.
type plan struct {
	strategy Strategy
	analysis *core.Analysis
	template *magic.Template
}

// formMask renders which argument positions carry constants ('b') versus
// variables ('f') — the query-form key plans and batches group by.
func formMask(q ast.Atom) string {
	b := make([]byte, len(q.Args))
	for i, t := range q.Args {
		if t.IsVar() {
			b[i] = 'f'
		} else {
			b[i] = 'b'
		}
	}
	return string(b)
}

// EngineOption configures an Engine at construction.
type EngineOption func(*Engine)

// WithMaxConcurrent bounds how many queries (including Materialize calls)
// the engine evaluates at once. n > 0 admits at most n; a query arriving
// with every slot busy queues until a slot frees, its context is done, or
// the WithAdmissionWait bound elapses — whichever is first — and a query
// that never gets a slot fails with an *OverloadError matching
// ErrOverloaded. With no admission wait and no context deadline, a query
// that finds every slot busy is rejected immediately (load shedding).
// n == 0 (the default) means unlimited. n < 0 admits nothing: every query
// fails overloaded, a drain mode for maintenance windows and for testing
// overload handling.
func WithMaxConcurrent(n int) EngineOption {
	return func(e *Engine) { e.maxConcurrent = n }
}

// WithAdmissionWait bounds how long a query queues for an admission slot
// under WithMaxConcurrent before failing with ErrOverloaded. The query's
// context deadline still applies while queued; the earlier bound wins.
func WithAdmissionWait(d time.Duration) EngineOption {
	return func(e *Engine) { e.admitWait = d }
}

// WithStrictChecks makes LoadProgram run the full static-analysis pass
// (the same one as sepdl check) on the combined program and reject it when
// any warning-or-worse diagnostic remains: non-stratifiable negation,
// non-separable recursions, cartesian joins, singleton variables. Without
// it only the well-formedness errors reject at load time and the rest
// surface at query time (stratification) or degrade the strategy choice
// (separability). The returned error is a Diagnostics list carrying every
// finding with its code and position.
func WithStrictChecks() EngineOption {
	return func(e *Engine) { e.strict = true }
}

// WithParallelism once set how many goroutines Separable's second loop
// spread its equivalence classes over. Every query now evaluates on one
// goroutine: with two or more classes the second loop is the product of
// the per-class closures, which is where the gain was.
//
// Deprecated: no effect.
func WithParallelism(n int) EngineOption {
	return func(*Engine) {}
}

// WithPlanCache toggles the per-program-revision plan cache (default on):
// compiled query plans — strategy picks, separability analyses, magic
// rewrite templates — are memoized by query form, so repeated forms skip
// rewrite and analysis. Disabling it recompiles every query, which only
// makes sense for measuring the cache's own benefit.
func WithPlanCache(enabled bool) EngineOption {
	return func(e *Engine) { e.planCacheOff = !enabled }
}

// WithClosureCache sets the byte budget of the cross-query closure cache:
// the Separable evaluator's non-driver class closures depend only on the
// program and the facts, never on the selection constant, so they are
// memoized across queries and invalidated by revision bump on every write.
// maxBytes == 0 (the default) uses plancache.DefaultMaxBytes; maxBytes < 0
// disables the cache. Enabling it (the default) routes the Separable
// second phase through the product evaluator, whose answers are identical.
func WithClosureCache(maxBytes int64) EngineOption {
	return func(e *Engine) { e.closureBytes = maxBytes }
}

// New returns an empty engine.
func New(opts ...EngineOption) *Engine {
	e := &Engine{
		db:      database.New(),
		state:   newProgState(&ast.Program{}),
		store:   database.NewMemStore(),
		dbRev:   1,
		drainCh: make(chan struct{}),
	}
	for _, o := range opts {
		o(e)
	}
	if e.maxConcurrent > 0 {
		e.gate = make(chan struct{}, e.maxConcurrent)
	}
	if e.closureBytes >= 0 {
		e.closures = plancache.NewClosures(e.closureBytes)
	}
	return e
}

// ErrOverloaded is the sentinel every *OverloadError matches via
// errors.Is: the engine's admission gate rejected the query because
// WithMaxConcurrent slots stayed busy for the whole admissible wait.
var ErrOverloaded = errors.New("sepdl: engine overloaded")

// ErrDraining is the sentinel matched (in addition to ErrOverloaded) by
// rejections from a draining engine: Drain was called, or the engine was
// built with a negative WithMaxConcurrent. A draining engine finishes the
// queries it already admitted and rejects everything new, so callers that
// see ErrDraining should fail over to another replica rather than retry.
var ErrDraining = errors.New("sepdl: engine draining")

// ErrInternal is the sentinel wrapped by the panic-recovery boundary: an
// evaluation strategy panicked and the engine converted the panic into an
// error instead of crashing the process. It indicates a bug in the engine,
// not in the caller's program or query.
var ErrInternal = errors.New("sepdl: internal panic")

// Drain puts the engine in drain mode: queries already admitted run to
// completion, but every new Query/QueryBatch/Materialize — and any query
// still queued at the admission gate — fails with an *OverloadError
// matching both ErrOverloaded and ErrDraining. Writes (AddFact, LoadFacts,
// LoadProgram) remain allowed. Drain is idempotent and safe to call
// concurrently with queries; a server uses it on SIGTERM to finish
// in-flight work while shedding new requests, then exits once InFlight
// (see Stats) returns to zero.
func (e *Engine) Drain() {
	e.drainMu.Lock()
	defer e.drainMu.Unlock()
	if e.draining.CompareAndSwap(false, true) {
		close(e.drainCh)
	}
}

// Resume takes the engine back out of drain mode, admitting queries again.
func (e *Engine) Resume() {
	e.drainMu.Lock()
	defer e.drainMu.Unlock()
	if e.draining.CompareAndSwap(true, false) {
		e.drainCh = make(chan struct{})
	}
}

// Draining reports whether the engine is in drain mode (via Drain; a
// negative WithMaxConcurrent is a construction-time drain and reports
// false here but still rejects with ErrDraining).
func (e *Engine) Draining() bool { return e.draining.Load() }

// drainSignal returns the channel closed by Drain, for admission waits.
func (e *Engine) drainSignal() <-chan struct{} {
	e.drainMu.Lock()
	defer e.drainMu.Unlock()
	return e.drainCh
}

// OverloadError reports a query rejected by admission control: how many
// slots the engine has, how long the query queued, and the context error
// that ended the wait (nil when the admission wait elapsed or the engine
// is draining). It matches ErrOverloaded via errors.Is, plus the context
// cause when present.
type OverloadError struct {
	// MaxConcurrent is the engine's admission limit (negative in drain mode).
	MaxConcurrent int
	// Waited is how long the query queued before giving up.
	Waited time.Duration
	// Cause is the context error that cut the wait short, if any.
	Cause error
	// Draining reports that the rejection came from runtime drain mode
	// (Drain was called); the error then also matches ErrDraining.
	Draining bool
}

// Error renders the rejection with its limit and wait.
func (e *OverloadError) Error() string {
	if e.Draining || e.MaxConcurrent < 0 {
		return "sepdl: engine overloaded: draining, no queries admitted"
	}
	return fmt.Sprintf("sepdl: engine overloaded: no admission slot freed in %v (max %d concurrent)",
		e.Waited.Round(time.Microsecond), e.MaxConcurrent)
}

// Unwrap matches ErrOverloaded always, ErrDraining for drain rejections,
// plus the context cause when present.
func (e *OverloadError) Unwrap() []error {
	errs := []error{ErrOverloaded}
	if e.Draining || e.MaxConcurrent < 0 {
		errs = append(errs, ErrDraining)
	}
	if e.Cause != nil {
		errs = append(errs, e.Cause)
	}
	return errs
}

// admit acquires an admission slot, returning the release func. The
// returned error is always an *OverloadError.
func (e *Engine) admit(ctx context.Context) (release func(), err error) {
	if e.draining.Load() {
		return nil, &OverloadError{MaxConcurrent: e.maxConcurrent, Draining: true}
	}
	if e.maxConcurrent == 0 {
		return func() {}, nil
	}
	if e.maxConcurrent < 0 {
		return nil, &OverloadError{MaxConcurrent: e.maxConcurrent}
	}
	select {
	case e.gate <- struct{}{}:
		return func() { <-e.gate }, nil
	default:
	}
	// Every slot is busy: queue with a deadline.
	if e.admitWait <= 0 && ctx.Done() == nil {
		// Nothing bounds the wait, so shed immediately rather than pile up
		// unbounded waiters behind a saturated engine.
		return nil, &OverloadError{MaxConcurrent: e.maxConcurrent}
	}
	var expired <-chan time.Time
	if e.admitWait > 0 {
		timer := time.NewTimer(e.admitWait)
		defer timer.Stop()
		expired = timer.C
	}
	start := time.Now()
	select {
	case e.gate <- struct{}{}:
		return func() { <-e.gate }, nil
	case <-e.drainSignal():
		// Drain flipped while we queued: the slots still busy belong to
		// queries that will run to completion, but nothing new is admitted.
		return nil, &OverloadError{MaxConcurrent: e.maxConcurrent, Waited: time.Since(start), Draining: true}
	case <-expired:
		return nil, &OverloadError{MaxConcurrent: e.maxConcurrent, Waited: time.Since(start)}
	case <-ctx.Done():
		return nil, &OverloadError{MaxConcurrent: e.maxConcurrent, Waited: time.Since(start), Cause: ctx.Err()}
	}
}

// snapshot captures, under the writer lock, the current program revision,
// an immutable snapshot of the fact database, and the database revision
// the snapshot corresponds to, for one query to evaluate against.
func (e *Engine) snapshot() (*progState, *database.Database, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state, e.db.Snapshot(), e.dbRev
}

// bumpDBRevLocked records that the fact set changed: queries snapshotted
// from now on key closure-cache entries under the new revision, which no
// old entry can match. The eager sweep only reclaims the stranded entries'
// memory; correctness needs nothing beyond the bump.
func (e *Engine) bumpDBRevLocked() {
	e.dbRev++
	if e.closures != nil {
		rev := e.dbRev
		e.closures.Invalidate(func(s plancache.Scope) bool { return s.DBRev >= rev })
	}
}

// LoadProgram parses src and appends its rules to the engine's program.
// On a durable engine the source is logged (and fsynced) before the
// program swap, so a load that returns nil survives a crash and a load
// that fails leaves both the log and the program unchanged.
func (e *Engine) LoadProgram(src string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	combined, err := e.compileProgramLocked(src, e.strict)
	if err != nil {
		return err
	}
	if err := e.store.AppendProgram(src); err != nil {
		return err
	}
	e.state = newProgState(combined)
	e.closures.Clear()
	e.maybeCheckpointLocked()
	return nil
}

// compileProgramLocked parses src and validates the program that would
// result from appending its rules, without installing anything — the
// write-ahead ordering needs every failure found before the log append.
func (e *Engine) compileProgramLocked(src string, strict bool) (*ast.Program, error) {
	p, err := parser.Program(src)
	if err != nil {
		return nil, err
	}
	combined := &ast.Program{Rules: append(append([]ast.Rule{}, e.state.prog.Rules...), p.Rules...)}
	if err := combined.Validate(); err != nil {
		return nil, err
	}
	if strict {
		if l := check.Program(combined, nil).Filter(diag.Warning); len(l) > 0 {
			return nil, l
		}
	}
	return combined, nil
}

// ClearProgram removes all rules (facts are kept). The error is always
// nil on an in-RAM engine; a durable engine can fail to log the clear,
// in which case the rules remain.
func (e *Engine) ClearProgram() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.store.AppendClear(); err != nil {
		return err
	}
	e.state = newProgState(&ast.Program{})
	e.closures.Clear()
	e.maybeCheckpointLocked()
	return nil
}

// ProgramText renders the current rules.
func (e *Engine) ProgramText() string { return e.progState().prog.String() }

// progState returns the current program revision under the writer lock.
func (e *Engine) progState() *progState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state
}

// LoadFacts parses ground atoms from src and adds them to the database.
// The batch is atomic: it is validated whole before anything is logged or
// applied, so an error — parse, groundness, arity — leaves the engine
// byte-for-byte unchanged, with no prefix of the batch visible.
func (e *Engine) LoadFacts(src string) error {
	fs, err := parser.Facts(src)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.db.CheckFacts(fs); err != nil {
		return err
	}
	if err := e.store.AppendFacts(src); err != nil {
		return err
	}
	before := e.db.NumTuples()
	e.db.Load(fs) // cannot fail: validated above
	if e.db.NumTuples() != before {
		e.bumpDBRevLocked()
	}
	e.maybeCheckpointLocked()
	return nil
}

// AddFact adds a single fact. Queries admitted after AddFact returns see
// the fact; queries already evaluating keep their snapshot. On a durable
// engine the fact is logged and fsynced before it becomes visible.
func (e *Engine) AddFact(pred string, args ...string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.db.CheckFact(pred, args); err != nil {
		return err
	}
	if err := e.store.AppendFact(pred, args); err != nil {
		return err
	}
	added, _ := e.db.AddFact(pred, args...) // cannot fail: validated above
	if added {
		e.bumpDBRevLocked()
	}
	e.maybeCheckpointLocked()
	return nil
}

// Predicates returns the names of all relations with facts, sorted.
func (e *Engine) Predicates() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.db.Preds()
}

// NumFacts returns the number of stored base facts.
func (e *Engine) NumFacts() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.db.NumTuples()
}

// DistinctConstants returns the paper's n: the number of distinct
// constants appearing in base facts.
func (e *Engine) DistinctConstants() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.db.DistinctConstants()
}

// Budget bounds the resources one query (or one materialized view) may
// consume; zero fields mean unlimited. The general-purpose strategies are
// exactly the ones that blow up on adversarial inputs — Generalized Magic
// builds Ω(n²) intermediate tuples where Separable builds O(n) — so a
// server embedding the engine should always set at least MaxTuples or a
// deadline.
type Budget struct {
	// MaxTuples bounds insertions into derived relations.
	MaxTuples int
	// MaxRounds bounds fixpoint (or carry-loop) rounds.
	MaxRounds int
	// MaxBytes bounds the estimated bytes of derived tuples materialized.
	MaxBytes int64
}

// ResourceError is the typed error returned when a query exceeds its
// Budget, deadline, or iteration bound: it reports which limit was hit, how
// much was consumed, and the strategy and round evaluation had reached.
// Every ResourceError matches ErrBudgetExceeded via errors.Is; deadline and
// cancellation additionally match context.DeadlineExceeded and
// context.Canceled.
type ResourceError = budget.ResourceError

// ErrBudgetExceeded is the sentinel every *ResourceError matches via
// errors.Is, distinguishing a resource cutoff from a malformed program.
var ErrBudgetExceeded = budget.ErrBudget

// The values a ResourceError's Limit field can take.
const (
	LimitTuples   = budget.LimitTuples   // Budget.MaxTuples exhausted
	LimitRounds   = budget.LimitRounds   // Budget.MaxRounds exhausted
	LimitBytes    = budget.LimitBytes    // Budget.MaxBytes exhausted
	LimitDeadline = budget.LimitDeadline // context deadline expired
	LimitCanceled = budget.LimitCanceled // context canceled
)

// queryConfig collects query options, plus the per-attempt cache wiring
// the engine threads through to the strategies.
type queryConfig struct {
	strategy          Strategy
	allowDisconnected bool
	budget            Budget
	deadline          time.Duration
	fallback          bool
	closures          *plancache.Closures // engine's closure cache (nil when disabled)
	scope             plancache.Scope     // revisions of the attempt's snapshot
}

// tracker builds the internal budget tracker for ctx and the configured
// limits (nil when nothing is bounded).
func (c *queryConfig) tracker(ctx context.Context) *budget.Budget {
	return budget.New(ctx, budget.Limits{
		MaxTuples: c.budget.MaxTuples,
		MaxRounds: c.budget.MaxRounds,
		MaxBytes:  c.budget.MaxBytes,
	})
}

// QueryOption customizes a single Query call.
type QueryOption func(*queryConfig)

// WithStrategy forces a particular evaluation strategy.
func WithStrategy(s Strategy) QueryOption {
	return func(c *queryConfig) { c.strategy = s }
}

// WithRelaxedConnectivity lets the Separable strategy accept recursions
// that violate condition 4 of Definition 2.4 (still correct, §5, but the
// selection no longer focuses the disconnected part).
func WithRelaxedConnectivity() QueryOption {
	return func(c *queryConfig) { c.allowDisconnected = true }
}

// WithBudget bounds the resources the query may consume; exceeding any
// limit returns a *ResourceError promptly (limits are checked every
// fixpoint round and at join-inner-loop granularity) with the engine's
// database unmodified.
func WithBudget(b Budget) QueryOption {
	return func(c *queryConfig) { c.budget = b }
}

// WithDeadline gives the query a wall-clock deadline measured from the
// start of evaluation, equivalent to passing QueryCtx a context built with
// context.WithTimeout. Exceeding it returns a *ResourceError matching
// context.DeadlineExceeded.
func WithDeadline(d time.Duration) QueryOption {
	return func(c *queryConfig) { c.deadline = d }
}

// WithFallback opts the query into graceful degradation: if the selected
// compiled strategy (Separable, MagicSets, MagicSetsSup) aborts on a
// tuple, round, or byte budget, the query is retried once
// under SemiNaive. The retry runs under the same context — any wall-clock
// deadline spans both attempts, so only the remaining time is available —
// with a fresh allowance of the per-query tuple/round/byte limits (the
// aborted attempt consumed its allowance discovering the blowup; the
// fallback is a different evaluation, bounded the same way). Stats on the
// returned Result report which strategy ultimately answered: Strategy is
// the one that produced the answer and FallbackFrom names the strategy
// that hit its budget first. Deadline expiry and cancellation never fall
// back — there is no budget left to retry with — and SemiNaive/Naive do
// not fall back to themselves. If the fallback also fails, the original
// strategy's error is returned, annotated with the fallback's.
func WithFallback() QueryOption {
	return func(c *queryConfig) { c.fallback = true }
}

// Stats summarizes the work one query performed.
type Stats struct {
	// Strategy actually used (differs from the request only under Auto, or
	// when WithFallback retried under SemiNaive).
	Strategy Strategy
	// FallbackFrom is the strategy that exhausted its resource budget
	// before WithFallback's SemiNaive retry answered ("" when the first
	// strategy answered).
	FallbackFrom Strategy
	// RelationSizes maps each relation the strategy materialized to its
	// peak size — the paper's Definition 4.2 measure.
	RelationSizes map[string]int
	// MaxRelation and MaxRelationSize identify the largest of those.
	MaxRelation     string
	MaxRelationSize int
	// Iterations counts fixpoint/carry-loop rounds; Inserted counts tuple
	// insertions into derived relations.
	Iterations int
	Inserted   int
	// PlanCacheHit reports whether the query's compiled plan (strategy
	// pick, analysis, magic rewrite template) came from the plan cache
	// instead of being compiled for this query.
	PlanCacheHit bool
	// ClosureCacheHits and ClosureCacheMisses count the Separable
	// evaluator's per-start class closures resolved from the cross-query
	// closure cache versus computed (and filled) during this query. Both
	// zero for other strategies or with the cache disabled.
	ClosureCacheHits   int
	ClosureCacheMisses int
	// BatchSize is how many queries shared this evaluation's fixpoint: 1
	// for a standalone Query, len(batch) for QueryBatch/RunBatch (every
	// result of one batch reports the whole batch's work).
	BatchSize int
	// PeakIntermediateBytes is the largest delta any single fixpoint round
	// or carry-loop step produced, counted even though a round appends its
	// delta to the total and reads it as a window of it. It is not part of
	// RelationSizes (the paper's Definition 4.2 measure counts named
	// relations, not round scratch).
	PeakIntermediateBytes int64
	// Duration is wall-clock evaluation time.
	Duration time.Duration
}

// Result is the answer to a query.
type Result struct {
	// Columns are the query's distinct variables in first-occurrence
	// order; answers are tuples over these columns.
	Columns []string
	// Stats describes the evaluation.
	Stats Stats

	rel *rel.Relation
	db  *database.Database
}

// Len returns the number of answer tuples.
func (r *Result) Len() int { return r.rel.Len() }

// Rows returns the answers as strings, one slice per tuple, in sorted
// order.
func (r *Result) Rows() [][]string {
	out := make([][]string, 0, r.rel.Len())
	for _, t := range r.rel.Rows() {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = r.db.Syms.Name(v)
		}
		out = append(out, row)
	}
	sortRows(out)
	return out
}

// True reports whether a fully ground query succeeded (its answer is the
// empty tuple).
func (r *Result) True() bool { return len(r.Columns) == 0 && r.rel.Len() == 1 }

// String renders the result compactly, e.g. "{(radio) (tv)}".
func (r *Result) String() string { return r.rel.Dump(r.db.Syms) }

// ErrUnknownStrategy reports an unrecognized strategy name.
var ErrUnknownStrategy = errors.New("sepdl: unknown strategy")

// testHookEval, when non-nil, runs inside QueryCtx's recovery boundary
// just before strategy dispatch; tests use it to inject failures and to
// hold admission slots open deterministically.
var testHookEval func()

// Query parses and evaluates a query such as "buys(tom, Y)?". It is
// QueryCtx with a background context; use QueryCtx (or WithDeadline /
// WithBudget) when evaluation must be bounded.
func (e *Engine) Query(query string, opts ...QueryOption) (*Result, error) {
	return e.QueryCtx(context.Background(), query, opts...)
}

// QueryCtx parses and evaluates a query under ctx. The query evaluates
// against an immutable snapshot of the database taken at admission, so it
// is safe to call concurrently with AddFact and other queries and always
// observes a fully applied state. Cancellation and deadlines are honored
// at fixpoint-round and join-inner-loop granularity by every strategy, so
// a cut-off returns promptly; the engine's database is never modified by
// an aborted (or completed) query. A cut-off returns a *ResourceError
// matching ErrBudgetExceeded and, for context limits,
// context.DeadlineExceeded or context.Canceled. Under WithMaxConcurrent,
// an admission rejection returns an *OverloadError matching ErrOverloaded.
// A query is a batch of one: it runs QueryBatch's pipeline, but counts
// only in EngineStats.Queries, not as a batch.
func (e *Engine) QueryCtx(ctx context.Context, query string, opts ...QueryOption) (*Result, error) {
	cfg := e.newQueryConfig(opts)
	if err := checkStrategy(cfg.strategy); err != nil {
		return nil, err
	}
	q, err := parser.Query(query)
	if err != nil {
		return nil, err
	}
	return e.queryAtom(ctx, q, cfg)
}

// newQueryConfig resolves QueryOptions against the engine's defaults.
func (e *Engine) newQueryConfig(opts []QueryOption) queryConfig {
	cfg := queryConfig{strategy: Auto}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// queryAtom evaluates one already-parsed query as a batch of one:
// Query/QueryCtx and Prepared.Run land here, and share queryBatch's
// pipeline without counting as batches.
func (e *Engine) queryAtom(ctx context.Context, q ast.Atom, cfg queryConfig) (*Result, error) {
	out, err := e.queryBatch(ctx, []ast.Atom{q}, cfg, false)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// planFor resolves q's compiled plan against st, honoring WithPlanCache:
// with the cache off the plan is compiled fresh and not stored.
func (e *Engine) planFor(st *progState, q ast.Atom, cfg queryConfig) (*plan, bool) {
	if e.planCacheOff {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.compileLocked(q, cfg), false
	}
	return st.cachedPlan(q, cfg)
}

// fallbackEligible reports whether WithFallback should retry after err: a
// resource cutoff that was not the clock running out, on a strategy that
// is not already the fallback.
func fallbackEligible(s Strategy, err error) bool {
	if s == SemiNaive || s == Naive {
		return false
	}
	return errors.Is(err, ErrBudgetExceeded) &&
		!errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, context.Canceled)
}

func result(db *database.Database, q ast.Atom, ans *rel.Relation, st Stats, c *stats.Collector) *Result {
	st.RelationSizes = c.Sizes
	st.MaxRelation, st.MaxRelationSize = c.MaxRelation()
	st.Iterations = c.Iterations
	st.Inserted = c.Inserted
	st.ClosureCacheHits, st.ClosureCacheMisses = c.ClosureCounts()
	st.PeakIntermediateBytes = c.PeakIntermediate()
	return &Result{Columns: eval.QueryVars(q), Stats: st, rel: ans, db: db}
}

// analysisErr returns the cached separability analysis for pred under the
// given relaxation, with the analysis error when it is not separable. The
// cache is scoped to one program revision and safe for concurrent queries.
func (st *progState) analysisErr(pred string, relaxed bool) (*core.Analysis, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.analysisLocked(pred, relaxed)
}

// analysisLocked is analysisErr for callers already holding st.mu (the
// plan-compilation path, which would deadlock taking it twice).
func (st *progState) analysisLocked(pred string, relaxed bool) (*core.Analysis, error) {
	key := pred
	if relaxed {
		key = pred + "\x00relaxed"
	}
	if ent, ok := st.analyses[key]; ok {
		return ent.a, ent.err
	}
	a, err := core.AnalyzeOpts(st.prog, pred, core.Options{AllowDisconnected: relaxed})
	if err != nil {
		a = nil
	}
	st.analyses[key] = analysisEntry{a: a, err: err}
	return a, err
}

// cachedPlan returns the memoized plan for q's form, compiling it on first
// use. The second return reports a cache hit.
func (st *progState) cachedPlan(q ast.Atom, cfg queryConfig) (*plan, bool) {
	key := planKey{strategy: cfg.strategy, pred: q.Pred, mask: formMask(q), relaxed: cfg.allowDisconnected}
	st.mu.Lock()
	defer st.mu.Unlock()
	if pl, ok := st.plans[key]; ok {
		return pl, true
	}
	pl := st.compileLocked(q, cfg)
	st.plans[key] = pl
	return pl, false
}

// compileLocked builds the plan for q's form under st.mu: resolve Auto,
// then compile the strategy's constant-independent artifacts. A magic
// template that fails to compile stays nil, so evaluation reproduces the
// rewrite's error instead of reporting a cache artifact.
func (st *progState) compileLocked(q ast.Atom, cfg queryConfig) *plan {
	strategy := cfg.strategy
	if strategy == Auto {
		strategy = st.pickLocked(q, cfg)
	}
	pl := &plan{strategy: strategy}
	switch strategy {
	case Separable:
		pl.analysis, _ = st.analysisLocked(q.Pred, cfg.allowDisconnected)
	case MagicSets, MagicSetsSup:
		if tpl, err := magic.NewTemplate(st.prog, q, strategy == MagicSetsSup); err == nil {
			pl.template = tpl
		}
	}
	return pl
}

// pickLocked implements Auto: Separable when the recursion is separable
// and the query is a selection; Magic Sets for other selections;
// semi-naive otherwise.
func (st *progState) pickLocked(q ast.Atom, cfg queryConfig) Strategy {
	hasConst := false
	for _, t := range q.Args {
		if !t.IsVar() {
			hasConst = true
			break
		}
	}
	if !hasConst {
		return SemiNaive
	}
	if a, _ := st.analysisLocked(q.Pred, cfg.allowDisconnected); a != nil {
		if sel, err := a.Classify(q); err == nil && sel.Kind != core.SelNone {
			return Separable
		}
	}
	return MagicSets
}

// Explain reports, without evaluating, how Query would answer the query
// under the same options. The first line names the strategy: the one
// WithStrategy forces, or Auto's own pick. For a derived predicate the
// separability findings of sepdl check follow, drawn from the analysis
// Query uses (WithRelaxedConnectivity included), and under Separable the
// program the query compiles to: the paper's Figure 2 schema instantiated
// (Figures 3 and 4 for its examples).
func (e *Engine) Explain(query string, opts ...QueryOption) (string, error) {
	cfg := e.newQueryConfig(opts)
	if err := checkStrategy(cfg.strategy); err != nil {
		return "", err
	}
	q, err := parser.Query(query)
	if err != nil {
		return "", err
	}
	st := e.progState()
	if !st.prog.IDBPreds()[q.Pred] {
		return fmt.Sprintf("%s is a base predicate: direct index lookup\n", q.Pred), nil
	}
	strategy, how := cfg.strategy, "forced"
	if strategy == Auto {
		st.mu.Lock()
		strategy, how = st.pickLocked(q, cfg), "chosen by auto"
		st.mu.Unlock()
	}
	a, aerr := st.analysisErr(q.Pred, cfg.allowDisconnected)
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %s (%s)\n", strategy, how)
	b.WriteString(check.Separability(st.prog, a, aerr, &q).Render(""))
	if strategy == Separable && a != nil {
		if program, err := a.CompileText(q); err == nil {
			b.WriteString(program)
		}
	}
	return b.String(), nil
}

func sortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if k >= len(b) {
				return false
			}
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

// WriteFacts writes the engine's base facts as sorted, parseable ground
// atoms, suitable for reloading with LoadFacts. The facts written are a
// consistent snapshot even while writers run.
func (e *Engine) WriteFacts(w io.Writer) error {
	_, db, _ := e.snapshot()
	return db.WriteFacts(w)
}

// Why explains a ground fact: it returns a well-founded derivation tree
// (fact, the rule deriving it, and recursively the supporting facts),
// rendered as indented text. The fact must actually hold.
func (e *Engine) Why(fact string) (string, error) {
	return e.WhyCtx(context.Background(), fact)
}

// WhyCtx is Why with a context and query options. Building an
// explanation runs the semi-naive fixpoint over the whole IDB, recording
// each round's end, so it is evaluation-shaped work: ctx cancellation and
// WithBudget limits bound it exactly as they bound a query.
func (e *Engine) WhyCtx(ctx context.Context, fact string, opts ...QueryOption) (string, error) {
	a, err := parser.Query(fact)
	if err != nil {
		return "", err
	}
	cfg := e.newQueryConfig(opts)
	bud := cfg.tracker(ctx)
	if err := bud.Err(); err != nil {
		return "", err
	}
	st, db, _ := e.snapshot()
	ex, err := provenance.New(st.prog, db, bud)
	if err != nil {
		return "", err
	}
	n, err := ex.Explain(a)
	if err != nil {
		return "", err
	}
	return n.String(), nil
}
