package budget

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNewNilWhenUnbounded(t *testing.T) {
	if b := New(context.Background(), Limits{}); b != nil {
		t.Fatalf("New with no limits and a background context = %v, want nil", b)
	}
	if b := New(nil, Limits{}); b != nil {
		t.Fatalf("New(nil ctx, no limits) = %v, want nil", b)
	}
	if b := New(context.Background(), Limits{MaxTuples: 1}); b == nil {
		t.Fatal("New with a tuple limit = nil, want tracker")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if b := New(ctx, Limits{}); b == nil {
		t.Fatal("New with a cancellable context = nil, want tracker")
	}
}

func TestNilBudgetIsNoop(t *testing.T) {
	var b *Budget
	b.Round()
	b.AddDerived(1000, 3)
	b.Tick()
	b.SetStrategy("x")
	if got := b.Strategy(); got != "" {
		t.Fatalf("nil.Strategy() = %q, want empty", got)
	}
	if f := b.TickFunc(); f != nil {
		t.Fatal("nil.TickFunc() != nil")
	}
	if err := b.Err(); err != nil {
		t.Fatalf("nil.Err() = %v", err)
	}
}

func run(b *Budget, f func()) (err error) {
	defer Guard(&err)
	f()
	return nil
}

func TestTupleLimit(t *testing.T) {
	b := New(context.Background(), Limits{MaxTuples: 10})
	b.SetStrategy("seminaive")
	if err := run(b, func() { b.AddDerived(10, 2) }); err != nil {
		t.Fatalf("within limit: %v", err)
	}
	err := run(b, func() { b.AddDerived(1, 2) })
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("over limit: got %v, want *ResourceError", err)
	}
	if re.Limit != LimitTuples || re.Consumed != 11 || re.Max != 10 || re.Strategy != "seminaive" {
		t.Fatalf("unexpected fields: %+v", re)
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatal("errors.Is(err, ErrBudget) = false")
	}
}

func TestByteLimit(t *testing.T) {
	b := New(context.Background(), Limits{MaxBytes: 100})
	err := run(b, func() { b.AddDerived(10, 3) }) // 120 estimated bytes
	var re *ResourceError
	if !errors.As(err, &re) || re.Limit != LimitBytes {
		t.Fatalf("got %v, want bytes ResourceError", err)
	}
}

func TestRoundLimit(t *testing.T) {
	b := New(context.Background(), Limits{MaxRounds: 2})
	if err := run(b, func() { b.Round(); b.Round() }); err != nil {
		t.Fatalf("within limit: %v", err)
	}
	err := run(b, func() { b.Round() })
	var re *ResourceError
	if !errors.As(err, &re) || re.Limit != LimitRounds || re.Round != 3 {
		t.Fatalf("got %v, want rounds ResourceError at round 3", err)
	}
}

func TestDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	b := New(ctx, Limits{})
	<-ctx.Done()
	err := run(b, func() {
		for i := 0; i < 10*tickStride; i++ {
			b.Tick()
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	var re *ResourceError
	if !errors.As(err, &re) || re.Limit != LimitDeadline {
		t.Fatalf("got %v, want deadline ResourceError", err)
	}
	if err2 := b.Err(); !errors.Is(err2, ErrBudget) {
		t.Fatalf("Err() on expired context = %v, want budget error", err2)
	}
}

func TestCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := New(ctx, Limits{})
	err := run(b, b.Round)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want Canceled", err)
	}
	var re *ResourceError
	if !errors.As(err, &re) || re.Limit != LimitCanceled {
		t.Fatalf("got %v, want canceled ResourceError", err)
	}
}

func TestProbeFiresEveryTick(t *testing.T) {
	boom := errors.New("injected")
	calls := 0
	b := NewProbed(context.Background(), Limits{}, func() error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	})
	err := run(b, func() {
		for i := 0; i < 100; i++ {
			b.Tick()
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want injected error", err)
	}
	if calls != 3 {
		t.Fatalf("probe ran %d times, want 3", calls)
	}
}

func TestGuardPassesThroughForeignPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want original panic", r)
		}
	}()
	_ = run(nil, func() { panic("boom") })
}

// TestRoundsExceeded pins the error a round bound produces, which is the
// only round bound there is: Round past MaxRounds aborts with a rounds
// ResourceError carrying the strategy label and the round it tripped on.
func TestRoundsExceeded(t *testing.T) {
	b := New(context.Background(), Limits{MaxRounds: 7})
	b.SetStrategy("magic")
	err := run(b, func() {
		for range 8 {
			b.Round()
		}
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	var re *ResourceError
	if !errors.As(err, &re) || re.Limit != LimitRounds || re.Strategy != "magic" ||
		re.Consumed != 8 || re.Max != 7 || re.Round != 8 {
		t.Fatalf("unexpected: %+v", err)
	}
}
