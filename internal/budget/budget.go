// Package budget implements per-query resource governance: a tracker that
// every evaluation strategy consults at fixpoint-round and join-inner-loop
// granularity, so a runaway evaluation (the Ω(n²) Magic and Ω(2ⁿ) Counting
// blowups of the paper's §4, or any adversarial input) is cut off with a
// typed *ResourceError instead of an unbounded hang.
//
// A nil *Budget is valid and records nothing, so hot paths need no nil
// checks beyond the method receivers. Violations abort the evaluation by
// panicking with an internal sentinel; every strategy's entry point
// converts that back into an error with a deferred Guard, so no panic
// escapes to callers and no partially evaluated state is published.
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Limit identifies which resource bound a query exhausted.
type Limit string

// The limits a query can hit.
const (
	LimitTuples   Limit = "tuples"   // derived-tuple insertions
	LimitRounds   Limit = "rounds"   // fixpoint / carry-loop rounds
	LimitBytes    Limit = "bytes"    // estimated bytes of materialized state
	LimitDeadline Limit = "deadline" // context deadline expired
	LimitCanceled Limit = "canceled" // context canceled
)

// ErrBudget is the sentinel every *ResourceError matches via errors.Is,
// letting callers distinguish a resource cutoff from a malformed program.
var ErrBudget = errors.New("resource budget exceeded")

// ResourceError reports which limit a query hit, how much of the resource
// it had consumed, and where evaluation stood when it was cut off.
type ResourceError struct {
	// Limit names the exhausted resource.
	Limit Limit
	// Consumed and Max are the resource's consumption and bound; for the
	// context limits Max is 0 and Consumed counts inner-loop ticks.
	Consumed int64
	Max      int64
	// Strategy is the evaluation strategy that was running, when known.
	Strategy string
	// Round is the fixpoint round the evaluation had reached (0 before the
	// first round or when the strategy does not count rounds).
	Round int
	// Cause is the underlying error for the context limits
	// (context.DeadlineExceeded or context.Canceled), nil otherwise.
	Cause error
}

// Error renders the failure with its limit, consumption, and location.
func (e *ResourceError) Error() string {
	where := ""
	if e.Strategy != "" {
		where = fmt.Sprintf(" (strategy %s, round %d)", e.Strategy, e.Round)
	}
	switch e.Limit {
	case LimitDeadline, LimitCanceled:
		return fmt.Sprintf("budget: %s after %d inner-loop ticks%s", e.Limit, e.Consumed, where)
	default:
		return fmt.Sprintf("budget: %s limit %d exceeded (consumed %d)%s", e.Limit, e.Max, e.Consumed, where)
	}
}

// Unwrap matches ErrBudget always, plus the context cause when present, so
// both errors.Is(err, ErrBudget) and errors.Is(err, context.DeadlineExceeded)
// hold as appropriate.
func (e *ResourceError) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrBudget, e.Cause}
	}
	return []error{ErrBudget}
}

// Limits are the configurable resource bounds; zero means unlimited.
type Limits struct {
	// MaxTuples bounds insertions into derived relations across the query.
	MaxTuples int
	// MaxRounds bounds fixpoint (or carry-loop) rounds across the query.
	MaxRounds int
	// MaxBytes bounds the estimated bytes of derived tuples materialized
	// (tuples × arity × the value width); it is an estimate, not an
	// accounting of allocator behaviour.
	MaxBytes int64
}

// valueBytes is the estimated storage per tuple slot (a rel.Value).
const valueBytes = 4

// tickStride is how many inner-loop ticks pass between context polls; it
// amortizes the channel select so the per-candidate cost is one increment.
const tickStride = 256

// Budget tracks one query's resource consumption against its limits and
// context. The zero value is not used; construct with New or NewProbed.
// The consumption counters are atomics, so one Budget may be shared by
// the Separable evaluator's per-class workers: every worker ticks and
// charges the same tracker, limits are enforced against the query-wide
// totals, and the first worker to cross a limit aborts (the shared
// counters make the rest follow promptly). The probe hook is serialized
// internally, so injected faults fire in a well-defined order even under
// concurrency.
type Budget struct {
	ctx     context.Context
	done    <-chan struct{}
	limits  Limits
	probe   func() error
	probeMu sync.Mutex

	strategy string
	tuples   atomic.Int64
	rounds   atomic.Int64
	bytes    atomic.Int64
	ticks    atomic.Int64
}

// New returns a tracker for ctx and limits, or nil when nothing is bounded
// (the context can never be done and every limit is zero), so unbudgeted
// evaluations skip all bookkeeping.
func New(ctx context.Context, l Limits) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() == nil && ctx.Err() == nil && l == (Limits{}) {
		return nil
	}
	return &Budget{ctx: ctx, done: ctx.Done(), limits: l}
}

// NewProbed returns a tracker (always non-nil) that additionally runs probe
// on every inner-loop tick and round; a non-nil probe error aborts the
// evaluation with that error. The fault-injection harness uses it to fire
// failures and stalls at exact points inside every strategy.
func NewProbed(ctx context.Context, l Limits, probe func() error) *Budget {
	b := New(ctx, l)
	if b == nil {
		b = &Budget{ctx: ctx, done: ctx.Done(), limits: l}
	}
	b.probe = probe
	return b
}

// SetStrategy records the strategy name carried by any ResourceError.
func (b *Budget) SetStrategy(s string) {
	if b != nil {
		b.strategy = s
	}
}

// Strategy returns the recorded strategy name ("" for nil budgets).
func (b *Budget) Strategy() string {
	if b == nil {
		return ""
	}
	return b.strategy
}

// abort is the panic value Guard recovers; err is what the caller returns.
type abort struct{ err error }

// Abort aborts the enclosing evaluation with err; a deferred Guard converts
// it into the strategy's returned error. External wrappers (fault
// injection) use it to stop an evaluation from inside a callback that has
// no error return path.
func Abort(err error) { panic(abort{err}) }

// AsAbort reports whether a recovered panic value is a budget abort and, if
// so, returns its error. The engine's last-resort panic recovery uses it so
// a budget abort escaping a path without a Guard still surfaces as its
// typed error rather than as an internal-panic report.
func AsAbort(r any) (error, bool) {
	if a, ok := r.(abort); ok {
		return a.err, true
	}
	return nil, false
}

// Guard converts a budget abort into *err; deferred at every strategy entry
// point. Other panics propagate unchanged.
//
//	func Answer(...) (ans *rel.Relation, err error) {
//		defer budget.Guard(&err)
//		...
func Guard(err *error) {
	if r := recover(); r != nil {
		a, ok := r.(abort)
		if !ok {
			panic(r)
		}
		*err = a.err
	}
}

func (b *Budget) fail(l Limit, consumed, max int64, cause error) {
	Abort(&ResourceError{
		Limit:    l,
		Consumed: consumed,
		Max:      max,
		Strategy: b.strategy,
		Round:    int(b.rounds.Load()),
		Cause:    cause,
	})
}

// pollCtx aborts if the context is done; runs the probe when installed.
func (b *Budget) pollCtx() {
	if b.probe != nil {
		b.probeMu.Lock()
		err := b.probe()
		b.probeMu.Unlock()
		if err != nil {
			Abort(err)
		}
	}
	if b.done == nil {
		return
	}
	select {
	case <-b.done:
		cause := b.ctx.Err()
		l := LimitDeadline
		if errors.Is(cause, context.Canceled) {
			l = LimitCanceled
		}
		b.fail(l, b.ticks.Load(), 0, cause)
	default:
	}
}

// Err polls the context and limits without panicking; the engine uses it to
// reject an already-expired context before evaluation starts.
func (b *Budget) Err() (err error) {
	if b == nil {
		return nil
	}
	defer Guard(&err)
	b.pollCtx()
	b.checkLimits()
	return nil
}

func (b *Budget) checkLimits() {
	if t := b.tuples.Load(); b.limits.MaxTuples > 0 && t > int64(b.limits.MaxTuples) {
		b.fail(LimitTuples, t, int64(b.limits.MaxTuples), nil)
	}
	if by := b.bytes.Load(); b.limits.MaxBytes > 0 && by > b.limits.MaxBytes {
		b.fail(LimitBytes, by, b.limits.MaxBytes, nil)
	}
}

// Round marks the start of one fixpoint (or carry-loop) round: it polls the
// context, runs the probe, and enforces the round limit.
func (b *Budget) Round() {
	if b == nil {
		return
	}
	r := b.rounds.Add(1)
	if b.limits.MaxRounds > 0 && r > int64(b.limits.MaxRounds) {
		b.fail(LimitRounds, r, int64(b.limits.MaxRounds), nil)
	}
	b.pollCtx()
}

// AddDerived records n tuple insertions of the given arity into derived
// relations and enforces the tuple and byte limits.
func (b *Budget) AddDerived(n, arity int) {
	if b == nil || n == 0 {
		return
	}
	b.tuples.Add(int64(n))
	b.bytes.Add(int64(n) * int64(arity) * valueBytes)
	b.checkLimits()
}

// Tick is the join-inner-loop check, called once per candidate tuple the
// join kernel considers: a counter increment, with the context polled every
// tickStride calls (every call when a probe is installed).
func (b *Budget) Tick() {
	if b == nil {
		return
	}
	t := b.ticks.Add(1)
	if b.probe != nil || t%tickStride == 0 {
		b.pollCtx()
	}
}

// DetachContext drops the context so only the cumulative counters and
// limits remain enforced. A materialized view detaches after its initial
// computation: the caller's context (and any deadline) governs the build,
// but must not poison incremental maintenance performed long after the
// build's context was canceled.
func (b *Budget) DetachContext() {
	if b != nil {
		b.ctx = nil
		b.done = nil
	}
}

// Reset zeroes the consumption counters, restoring the full configured
// allowance; the limits, strategy label, probe, and any attached context
// are kept. A self-repairing view resets its cumulative budget before
// re-materializing: the rebuild replaces all previously accounted work, so
// charging it on top of that work would make repair impossible exactly
// when it is needed.
func (b *Budget) Reset() {
	if b == nil {
		return
	}
	b.tuples.Store(0)
	b.rounds.Store(0)
	b.bytes.Store(0)
	b.ticks.Store(0)
}

// TickFunc returns Tick as a closure for the join kernel's tick hook, or
// nil for a nil budget so unbudgeted plans pay nothing per candidate.
func (b *Budget) TickFunc() func() {
	if b == nil {
		return nil
	}
	return b.Tick
}
