package rel

// Project returns a new relation holding each row restricted to cols, in
// order, with duplicates removed.
func (r *Relation) Project(cols []int) *Relation {
	out := New(len(cols))
	row := make(Tuple, len(cols))
	for j := range r.Len() {
		t := r.Row(j)
		for i, c := range cols {
			row[i] = t[c]
		}
		out.Insert(row)
	}
	return out
}

// Select returns the tuples whose column col equals v.
func (r *Relation) Select(col int, v Value) *Relation {
	out := New(r.arity)
	for _, t := range r.Index([]int{col}).Lookup([]Value{v}) {
		out.Insert(t)
	}
	return out
}

// SelectCols returns the tuples matching v at every column of cols.
func (r *Relation) SelectCols(cols []int, vals []Value) *Relation {
	out := New(r.arity)
	for _, t := range r.Index(cols).Lookup(vals) {
		out.Insert(t)
	}
	return out
}

// Join computes the natural join of r and other on the column pairs
// (onR[i], onO[i]). The result tuples are the concatenation of the r-tuple
// with the non-join columns of the other-tuple, in column order.
func (r *Relation) Join(other *Relation, onR, onO []int) *Relation {
	if len(onR) != len(onO) {
		panic("rel: join column lists differ in length")
	}
	keep := make([]int, 0, other.arity)
	isJoin := make([]bool, other.arity)
	for _, c := range onO {
		isJoin[c] = true
	}
	for c := 0; c < other.arity; c++ {
		if !isJoin[c] {
			keep = append(keep, c)
		}
	}
	out := New(r.arity + len(keep))
	idx := other.Index(onO)
	key := make([]Value, len(onR))
	row := make(Tuple, r.arity+len(keep))
	for j := range r.Len() {
		t := r.Row(j)
		for i, c := range onR {
			key[i] = t[c]
		}
		for _, u := range idx.Lookup(key) {
			copy(row, t)
			for i, c := range keep {
				row[r.arity+i] = u[c]
			}
			out.Insert(row)
		}
	}
	return out
}
