package tabling

import (
	"fmt"
	"testing"
	"time"

	"sepdl/internal/datagen"
	"sepdl/internal/stats"
)

// TestTablingE1Timing guards against the tabling evaluator regressing to
// whole-table re-solving: the e1 sweep's largest point must finish fast.
func TestTablingE1Timing(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	prog := datagen.Example12Program()
	db := datagen.Example12DB(256)
	c := stats.New()
	start := time.Now()
	ans, err := Answer(prog, db, mustQuery(t, "buys(a1, Y)?"), Options{Collector: c})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 256 {
		t.Fatalf("answers = %d", ans.Len())
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("tabling too slow: %v", d)
	}
	fmt.Printf("tabling n=256: total=%d in %v\n", c.TotalSize(), time.Since(start))
}
