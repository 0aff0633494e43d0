package sepdl

// WithParallelism is deprecated and has no effect. An engine built with it
// must abort exactly as the default engine does; its answers are checked by
// the differential harness's parallel mode.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestParallelBudgetAbortParity reuses the per-strategy budget cases: an
// engine built with WithParallelism(8) must abort with the same typed
// error, limit kind, and strategy tag as the engines in
// budget_api_test.go. The baselines run on its snapshot.
func TestParallelBudgetAbortParity(t *testing.T) {
	e := New(WithParallelism(8))
	if err := e.LoadProgram(`
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	const n = 30
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&sb, "friend(a%02d, a%02d).\n", i, i+1)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "perfectFor(a%02d, g%02d).\n", i, i)
	}
	if err := e.LoadFacts(sb.String()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range budgetCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Unbudgeted sanity first.
			if _, err := tc.run(ctx, e, tc.query, Budget{}); err != nil {
				t.Fatalf("unbudgeted: %v", err)
			}
			_, err := tc.run(ctx, e, tc.query, Budget{MaxTuples: 1})
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("err = %v, want ErrBudgetExceeded", err)
			}
			var re *ResourceError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v, want *ResourceError", err)
			}
			if re.Limit != LimitTuples {
				t.Errorf("Limit = %s, want %s", re.Limit, LimitTuples)
			}
			if re.Strategy != tc.name {
				t.Errorf("Strategy = %s, want %s", re.Strategy, tc.name)
			}
		})
	}
}
