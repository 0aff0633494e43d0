package core

import (
	"fmt"
	"strconv"
	"strings"

	"sepdl/internal/conj"
	"sepdl/internal/plancache"
	"sepdl/internal/rel"
)

// phase2class groups one equivalence class's compiled body-to-head
// transitions with the mapping of its columns into the run's output
// columns. cols keeps the original column positions for closure-cache
// keys.
type phase2class struct {
	cols   []int
	colIdx []int
	trans  []*conj.Transition
}

// phase2Classes compiles the classes participating in the second loop of
// Figure 2, in class order (rule order within a class), skipping the
// phase-1 driver and an excluded class.
func (e *evaluator) phase2Classes(phase1Class, excludePhase2 int, outCols []int, intern func(string) rel.Value) ([]phase2class, error) {
	outIdx := make(map[int]int, len(outCols))
	for i, p := range outCols {
		outIdx[p] = i
	}
	var p2 []phase2class
	for ci := range e.a.Classes {
		if ci == excludePhase2 || ci == phase1Class {
			continue
		}
		cls := &e.a.Classes[ci]
		colIdx := make([]int, len(cls.Cols))
		for i, p := range cls.Cols {
			j, ok := outIdx[p]
			if !ok {
				return nil, fmt.Errorf("core: internal error: class column %d overlaps driver columns", p)
			}
			colIdx[i] = j
		}
		pc := phase2class{cols: cls.Cols, colIdx: colIdx}
		for _, r := range cls.Rules {
			tr, err := conj.NewTransition(r.Conj, r.BodyVars, cls.HeadVars, intern)
			if err != nil {
				return nil, fmt.Errorf("core: rule %s: %w", r.Rule, err)
			}
			tr.SetTick(e.bud.TickFunc())
			pc.trans = append(pc.trans, tr)
		}
		p2 = append(p2, pc)
	}
	return p2, nil
}

// productPhase2 reads the form of Figure 2's second loop off the query.
// The classes are independent (§5), so with two or more of them the set
// reachable from a seed row is the product of the per-class closures, and
// the product derives each of its tuples once where the interleaved loop
// derives it once per neighbouring class. A single class runs the loop,
// unless the closure cache is on: only the product form computes per-start
// closures it can memoize.
func (e *evaluator) productPhase2(nClasses int) bool {
	return nClasses >= 2 || (nClasses == 1 && e.closures != nil)
}

// classCacheKey renders a class's column set canonically for closure-cache
// keys ("1,3"). Column sets identify classes stably across queries on one
// analysis.
func classCacheKey(cols []int) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// classReach is one class's closure over the seed rows: sets[i] holds the
// class-arity tuples reachable from start vector i, and starts maps a seed
// row's projection onto the class columns, encoded by
// plancache.EncodeStart, to its index. The per-start sets are standalone
// immutable relations so the closure cache can share them across queries.
// cv and key are the projection and encoding buffers lookup reuses.
type classReach struct {
	starts map[string]int
	sets   []*rel.Relation
	cv     rel.Tuple
	key    []byte
}

// project encodes seed row t's projection onto colIdx into cr.key, through
// cr.cv, and returns the projection; both buffers are reused by the next
// call.
func (cr *classReach) project(t rel.Tuple, tagW int, colIdx []int) rel.Tuple {
	for i, j := range colIdx {
		cr.cv[i] = t[tagW+j]
	}
	cr.key = plancache.AppendStart(cr.key[:0], cr.cv)
	return cr.cv
}

// lookup returns the closure set reachable from seed row t's class
// projection, or nil. It allocates nothing: the map is indexed by the
// reused key buffer.
func (cr *classReach) lookup(t rel.Tuple, tagW int, colIdx []int) *rel.Relation {
	cr.project(t, tagW, colIdx)
	idx, ok := cr.starts[string(cr.key)]
	if !ok {
		return nil
	}
	return cr.sets[idx]
}

// classClosure computes one class's reachable set from every distinct seed
// projection. Starts resolved from the closure cache cost nothing; the
// misses run as one joint tagged carry loop — tuples are (startIdx,
// classVals...), so closures of different starts stay separate while
// sharing one round structure — and are split, published to the cache, and
// kept. Cache fills charge the evaluation's budget exactly like the
// uncached loop, so resource errors are unchanged.
func (e *evaluator) classClosure(pc *phase2class, seeds *rel.Relation, tagW int, src conj.RelSource) *classReach {
	k := len(pc.colIdx)
	cr := &classReach{starts: make(map[string]int), cv: make(rel.Tuple, k), key: make([]byte, 0, 4*k)}
	var startVecs []rel.Tuple
	for si := range seeds.Len() {
		cv := cr.project(seeds.Row(si), tagW, pc.colIdx)
		if _, ok := cr.starts[string(cr.key)]; !ok {
			cr.starts[string(cr.key)] = len(startVecs)
			startVecs = append(startVecs, cv.Clone())
		}
	}
	cr.sets = make([]*rel.Relation, len(startVecs))

	ck := ""
	if e.closures != nil {
		ck = classCacheKey(pc.cols)
	}
	var missIdx []int
	for idx, cv := range startVecs {
		if e.closures != nil {
			key := plancache.ClosureKey{Scope: e.scope, Class: ck, Start: plancache.EncodeStart(cv)}
			if set := e.closures.Get(key); set != nil {
				cr.sets[idx] = set
				continue
			}
		}
		missIdx = append(missIdx, idx)
	}
	if e.closures != nil {
		e.col.AddClosure(len(startVecs)-len(missIdx), len(missIdx))
	}
	if len(missIdx) == 0 {
		return cr
	}

	seen := rel.New(1 + k)
	row := make(rel.Tuple, 1+k)
	for mi, idx := range missIdx {
		row[0] = rel.Value(mi)
		copy(row[1:], startVecs[idx])
		seen.Insert(row)
	}
	runners := make([]*conj.TransitionRunner, len(pc.trans))
	for i, tr := range pc.trans {
		runners[i] = tr.NewRunner(src)
	}
	e.fixpoint(seen, "", "", taggedStep(runners, 1, 1+k))

	// Split the joint closure by tag into per-start sets (FromRows copies
	// the row views, which stay valid because nothing mutates seen) and
	// publish them.
	rowsByTag := make([][]rel.Tuple, len(missIdx))
	for i := range seen.Len() {
		t := seen.Row(i)
		mi := int(t[0])
		rowsByTag[mi] = append(rowsByTag[mi], t[1:])
	}
	for mi, idx := range missIdx {
		set := rel.FromRows(k, rowsByTag[mi])
		cr.sets[idx] = set
		if e.closures != nil {
			e.closures.Put(plancache.ClosureKey{Scope: e.scope, Class: ck, Start: plancache.EncodeStart(startVecs[idx])}, set)
		}
	}
	return cr
}

// runPhase2Product evaluates the second loop of Figure 2 as a product of
// per-class closures, computed one class after another. It is sound because
// a class's transitions read and write only that class's columns and their
// enabledness depends on nothing else, so the set reachable from a seed row
// under interleaved applications factorizes into the product of the
// per-class reachable sets (the independence that makes the recursion
// separable in the first place). The joins run once per per-class closure
// tuple, and the product rows are assembled by copying.
func (e *evaluator) runPhase2Product(p2 []phase2class, seen2 *rel.Relation, tagW int, src conj.RelSource) {
	carry2 := seen2.Window(0, seen2.Len())
	closures := make([]*classReach, len(p2))
	for ci := range p2 {
		closures[ci] = e.classClosure(&p2[ci], carry2, tagW, src)
	}

	// Product merge: every seed row crossed with one reachable vector per
	// class, assembled in one reused buffer (Insert copies). Each class's
	// set is looked up once per seed row. The tick keeps huge products
	// cancellable.
	tick := e.bud.TickFunc()
	added := 0
	row := make(rel.Tuple, carry2.Arity())
	sets := make([]*rel.Relation, len(p2))
	var rec func(ci int)
	rec = func(ci int) {
		if ci == len(p2) {
			if tick != nil {
				tick()
			}
			if seen2.Insert(row) {
				added++
			}
			return
		}
		colIdx := p2[ci].colIdx
		for ri := range sets[ci].Len() {
			rv := sets[ci].Row(ri)
			for k, j := range colIdx {
				row[tagW+j] = rv[k]
			}
			rec(ci + 1)
		}
	}
seeds:
	for i := range carry2.Len() {
		t := carry2.Row(i)
		for ci := range p2 {
			if sets[ci] = closures[ci].lookup(t, tagW, p2[ci].colIdx); sets[ci] == nil {
				continue seeds
			}
		}
		copy(row, t)
		rec(0)
	}
	e.col.AddInserted(added)
	e.bud.AddDerived(added, seen2.Arity())
	e.col.Observe("seen2", seen2.Len())
}

// runPhase2Loop is the carry loop of lines 10-14 of Figure 2 over a
// single phase-2 class. The class's transitions rewrite only its own
// columns, so every emission overlays them on a buffer holding the carried
// row.
func (e *evaluator) runPhase2Loop(pc *phase2class, seen2 *rel.Relation, tagW int, src conj.RelSource) {
	runners := make([]*conj.TransitionRunner, len(pc.trans))
	for i, tr := range pc.trans {
		runners[i] = tr.NewRunner(src)
	}
	row := make(rel.Tuple, seen2.Arity())
	classVals := make(rel.Tuple, len(pc.colIdx))
	var emit func(rel.Tuple)
	out := func(o rel.Tuple) {
		for k, j := range pc.colIdx {
			row[tagW+j] = o[k]
		}
		emit(row)
	}
	e.fixpoint(seen2, "carry2", "seen2", func(t rel.Tuple, em func(rel.Tuple)) {
		emit = em
		copy(row, t)
		for k, j := range pc.colIdx {
			classVals[k] = t[tagW+j]
		}
		for _, run := range runners {
			run.Apply(classVals, out)
		}
	})
}
