package main

import (
	"fmt"

	"sepdl"
)

// digest summarises an answer as a set of rows: the sum of each row's
// FNV-1a hash, mixed with the row count. It does not depend on row order,
// so it compares answers across strategies, transports and storage tiers
// without trusting any of them to sort, and it runs inside the timed loop,
// so it does not allocate.
func digest(rows [][]string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	var sum uint64
	for _, r := range rows {
		h := uint64(offset)
		for _, c := range r {
			for i := 0; i < len(c); i++ {
				h = (h ^ uint64(c[i])) * prime
			}
			h *= prime // a zero byte ends the column
		}
		sum += h
	}
	return sum*31 + uint64(len(rows))
}

// setOracle fills in every query op's expected digest. The answers come
// from one naive bottom-up evaluation of the whole query predicate on a
// cache-off, sequential, in-RAM engine loaded with in.facts — independent
// of the strategy, caches, storage tier and transport the workload
// measures. Every op selects on the first column, so its answer is that
// relation's rows grouped by it.
func setOracle(in *instance) error {
	e := sepdl.New(sepdl.WithPlanCache(false), sepdl.WithClosureCache(-1), sepdl.WithParallelism(1))
	if err := e.LoadProgram(in.progText); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if err := e.LoadFacts(in.facts); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	res, err := e.Query(in.pred+"(X, Y)?", sepdl.WithStrategy(sepdl.Naive))
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	byStart := map[string][][]string{}
	for _, r := range res.Rows() {
		byStart[r[0]] = append(byStart[r[0]], r[1:])
	}
	for i := range in.ops {
		if o := &in.ops[i]; !o.write {
			o.want = digest(byStart[o.args[0]])
		}
	}
	return nil
}
