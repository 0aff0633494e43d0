package stats

import "testing"

func TestObserveKeepsMax(t *testing.T) {
	c := New()
	c.Observe("r", 5)
	c.Observe("r", 3)
	c.Observe("r", 9)
	if c.Sizes["r"] != 9 {
		t.Fatalf("Sizes[r] = %d, want 9", c.Sizes["r"])
	}
}

func TestMaxRelation(t *testing.T) {
	c := New()
	c.Observe("small", 2)
	c.Observe("big", 10)
	name, size := c.MaxRelation()
	if name != "big" || size != 10 {
		t.Fatalf("MaxRelation = %s, %d", name, size)
	}
}

func TestMaxRelationTieBreaksByName(t *testing.T) {
	c := New()
	c.Observe("b", 4)
	c.Observe("a", 4)
	name, _ := c.MaxRelation()
	if name != "a" {
		t.Fatalf("tie break = %s, want a", name)
	}
}

func TestMaxRelationEmpty(t *testing.T) {
	name, size := New().MaxRelation()
	if name != "" || size != 0 {
		t.Fatalf("empty MaxRelation = %q, %d", name, size)
	}
}

func TestTotalSize(t *testing.T) {
	c := New()
	c.Observe("a", 1)
	c.Observe("b", 2)
	if c.TotalSize() != 3 {
		t.Fatalf("TotalSize = %d", c.TotalSize())
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Observe("r", 1)
	c.AddInserted(1)
	c.AddIteration()
	c.AddRounds(1, 1, 1)
	if n, s := c.MaxRelation(); n != "" || s != 0 {
		t.Fatal("nil collector returned data")
	}
	if c.TotalSize() != 0 {
		t.Fatal("nil TotalSize nonzero")
	}
	if c.String() != "<no stats>" {
		t.Fatalf("nil String = %q", c.String())
	}
}

func TestCounters(t *testing.T) {
	c := New()
	c.AddInserted(3)
	c.AddInserted(4)
	c.AddIteration()
	if c.Inserted != 7 || c.Iterations != 1 {
		t.Fatalf("counters = %d, %d", c.Inserted, c.Iterations)
	}
	c.AddRounds(5, 2, 64)
	c.AddRounds(3, 1, 16)
	if c.Inserted != 10 || c.Iterations != 9 || c.PeakIntermediate() != 64 {
		t.Fatalf("after AddRounds: inserted %d, iterations %d, peak %d; want 10, 9, 64",
			c.Inserted, c.Iterations, c.PeakIntermediate())
	}
}

func TestString(t *testing.T) {
	c := New()
	c.Observe("b", 2)
	c.Observe("a", 1)
	c.AddIteration()
	want := "iterations=1 inserted=0 a=1 b=2"
	if got := c.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
