// Package par is a small worker group: bounded goroutine fan-out with
// panic capture, so a budget abort (which travels as a panic, see
// internal/budget) raised inside any worker surfaces on the calling
// goroutine where the query's budget.Guard can recover it. No evaluator
// fans out any more: concurrent tests and the benchmark's probes use it.
package par

import "runtime"

// Degree clamps a requested parallelism to something sane: n < 1 means
// "use the machine", i.e. GOMAXPROCS.
func Degree(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run executes fn(worker) on n goroutines, worker = 0..n-1, and waits for
// all of them. If any worker panics, the first captured panic is re-raised
// on the calling goroutine after every worker has finished — never lost,
// never delivered twice. n below 2 runs fn(0) inline.
func Run(n int, fn func(worker int)) {
	if n < 2 {
		fn(0)
		return
	}
	panics := make(chan any, n)
	done := make(chan struct{})
	for w := 0; w < n; w++ {
		w := w
		go func() {
			defer func() {
				if p := recover(); p != nil {
					panics <- p
				}
				done <- struct{}{}
			}()
			fn(w)
		}()
	}
	for w := 0; w < n; w++ {
		<-done
	}
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}
