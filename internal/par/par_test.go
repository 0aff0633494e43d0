package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDegree(t *testing.T) {
	if got := Degree(3); got != 3 {
		t.Fatalf("Degree(3) = %d", got)
	}
	if got := Degree(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Degree(0) = %d, want GOMAXPROCS", got)
	}
	if got := Degree(-5); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Degree(-5) = %d, want GOMAXPROCS", got)
	}
}

func TestRunAllWorkersRun(t *testing.T) {
	var hits atomic.Int64
	seen := make([]atomic.Bool, 7)
	Run(7, func(w int) {
		hits.Add(1)
		seen[w].Store(true)
	})
	if hits.Load() != 7 {
		t.Fatalf("hits = %d", hits.Load())
	}
	for w := range seen {
		if !seen[w].Load() {
			t.Fatalf("worker %d never ran", w)
		}
	}
}

func TestRunInlineWhenSingle(t *testing.T) {
	ran := false
	Run(1, func(w int) {
		if w != 0 {
			t.Fatalf("worker = %d", w)
		}
		ran = true
	})
	if !ran {
		t.Fatal("fn not run")
	}
}

func TestRunRepanicsFirstPanic(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("panic was swallowed")
		}
		if s, ok := p.(string); !ok || s != "boom" {
			t.Fatalf("unexpected panic payload %v", p)
		}
	}()
	Run(4, func(w int) {
		if w == 2 {
			panic("boom")
		}
	})
}

func TestRunWaitsForAllWorkersBeforePanicking(t *testing.T) {
	var finished atomic.Int64
	func() {
		defer func() { recover() }()
		Run(5, func(w int) {
			if w == 0 {
				panic("early")
			}
			finished.Add(1)
		})
	}()
	if finished.Load() != 4 {
		t.Fatalf("only %d workers finished before the panic surfaced", finished.Load())
	}
}
