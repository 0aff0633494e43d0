// Package database manages the extensional database (EDB): named relations
// over a shared symbol table, fact loading, and the constant-count measure n
// that the paper's complexity claims are stated in.
package database

import (
	"fmt"
	"sort"

	"sepdl/internal/ast"
	"sepdl/internal/rel"
	"sepdl/internal/symtab"
)

// Database is a set of named relations sharing one symbol table. The zero
// value is unusable; construct with New.
type Database struct {
	Syms *symtab.Table
	rels map[string]*rel.Relation
}

// New returns an empty database with a fresh symbol table.
func New() *Database {
	return &Database{Syms: symtab.New(), rels: make(map[string]*rel.Relation)}
}

// NewShared returns an empty database sharing an existing symbol table.
// View repair uses it to rebuild derived relations over the surviving base
// relations without re-interning every constant.
func NewShared(syms *symtab.Table) *Database {
	return &Database{Syms: syms, rels: make(map[string]*rel.Relation)}
}

// Snapshot returns an immutable point-in-time view of the database: every
// relation is snapshotted copy-on-write (see rel.Relation.Snapshot), so the
// view never observes later mutations of db and is safe to read from other
// goroutines. Each relation's lazy index cache is shared with db and with
// every other snapshot until the relation is next written, so an index is
// built once per storage generation rather than once per query. The
// symbol table is shared (it is itself concurrency safe). Taking a
// snapshot mutates per-relation bookkeeping, so calls must be serialized
// with writers; the engine snapshots under its writer lock.
func (db *Database) Snapshot() *Database {
	out := &Database{Syms: db.Syms, rels: make(map[string]*rel.Relation, len(db.rels))}
	for p, r := range db.rels {
		out.rels[p] = r.Snapshot()
	}
	return out
}

// Relation returns the relation for pred, or nil if pred has no facts.
func (db *Database) Relation(pred string) *rel.Relation { return db.rels[pred] }

// Ensure returns the relation for pred, creating an empty one of the given
// arity if absent. It returns an error if pred exists with another arity.
func (db *Database) Ensure(pred string, arity int) (*rel.Relation, error) {
	if r, ok := db.rels[pred]; ok {
		if r.Arity() != arity {
			return nil, fmt.Errorf("database: %s has arity %d, want %d", pred, r.Arity(), arity)
		}
		return r, nil
	}
	r := rel.New(arity)
	db.rels[pred] = r
	return r, nil
}

// Set installs a relation under pred, replacing any existing one.
func (db *Database) Set(pred string, r *rel.Relation) { db.rels[pred] = r }

// SymbolTable returns the database's symbol table (the CheckpointState
// accessor; the Syms field remains the direct handle).
func (db *Database) SymbolTable() *symtab.Table { return db.Syms }

// SetCold rebases pred onto a disk-resident sorted base: the relation is
// replaced by one serving its bulk from base, with any rows the current
// relation holds beyond the base re-inserted into the fresh overlay
// (tuples the base already contains deduplicate away). Recovery uses it
// with an empty current relation; post-checkpoint rebase uses it to drop
// the flushed overlay from RAM without losing post-rotation writes.
func (db *Database) SetCold(pred string, arity int, base rel.ColdBase) error {
	if cur := db.rels[pred]; cur != nil && cur.Arity() != arity {
		return fmt.Errorf("database: %s has arity %d, cold base has %d", pred, cur.Arity(), arity)
	}
	fresh := rel.NewCold(arity, base)
	if cur := db.rels[pred]; cur != nil {
		for _, t := range cur.OverlayRows() {
			fresh.Insert(t)
		}
	}
	db.rels[pred] = fresh
	return nil
}

// OverlayBytes is the memtable size a durable engine compares against its
// flush budget: each overlay tuple is charged its cells plus a fixed
// per-row flush charge. The charge is not the tuple's resident footprint
// (rows are stored flat, at their cells alone, plus a row-table slot); it
// is kept constant because it sets the flush cadence, and with it the
// segment count, disk bytes per fact and recovery time.
func (db *Database) OverlayBytes() int64 {
	const tupleOverhead = 48 // fixed per-row flush charge, in bytes
	var n int64
	for _, r := range db.rels {
		n += int64(r.OverlayLen()) * (int64(r.Arity())*rel.ValueBytes + tupleOverhead)
	}
	return n
}

// AddFact interns args and inserts the tuple into pred's relation, creating
// it if needed. It reports whether the tuple was new.
func (db *Database) AddFact(pred string, args ...string) (bool, error) {
	r, err := db.Ensure(pred, len(args))
	if err != nil {
		return false, err
	}
	t := make(rel.Tuple, len(args))
	for i, a := range args {
		t[i] = db.Syms.Intern(a)
	}
	return r.Insert(t), nil
}

// AddAtom inserts a ground atom as a fact.
func (db *Database) AddAtom(a ast.Atom) (bool, error) {
	args := make([]string, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar() {
			return false, fmt.Errorf("database: fact %s contains variable %s", a, t.Name)
		}
		args[i] = t.Name
	}
	return db.AddFact(a.Pred, args...)
}

// Load inserts a batch of ground atoms atomically: the whole batch is
// validated first (groundness, arity agreement with existing relations and
// within the batch), so an error leaves the database byte-for-byte
// unchanged — no prefix of the batch is ever applied. This is what lets
// the engine acknowledge a batch to its durable store before touching the
// in-memory state: once validation passes, the apply phase cannot fail.
func (db *Database) Load(facts []ast.Atom) error {
	if err := db.CheckFacts(facts); err != nil {
		return err
	}
	for _, a := range facts {
		db.AddAtom(a) // cannot fail: the batch was validated above
	}
	return nil
}

// CheckFacts validates a batch for Load without applying it: every atom
// must be ground, and every predicate's arity must agree with its existing
// relation (if any) and with every other use inside the batch.
func (db *Database) CheckFacts(facts []ast.Atom) error {
	arity := make(map[string]int)
	for _, a := range facts {
		for _, t := range a.Args {
			if t.IsVar() {
				return fmt.Errorf("database: fact %s contains variable %s", a, t.Name)
			}
		}
		want, ok := arity[a.Pred]
		if !ok {
			if r := db.rels[a.Pred]; r != nil {
				want, ok = r.Arity(), true
			}
		}
		if ok && want != len(a.Args) {
			return fmt.Errorf("database: %s has arity %d, want %d", a.Pred, want, len(a.Args))
		}
		arity[a.Pred] = len(a.Args)
	}
	return nil
}

// CheckFact validates a single AddFact without applying it: the only way
// AddFact can fail is an arity clash with an existing relation, so a
// caller that validates first may treat the subsequent apply as
// infallible (the write-ahead ordering durable engines rely on).
func (db *Database) CheckFact(pred string, args []string) error {
	if r := db.rels[pred]; r != nil && r.Arity() != len(args) {
		return fmt.Errorf("database: %s has arity %d, want %d", pred, r.Arity(), len(args))
	}
	return nil
}

// Preds returns the sorted names of all relations, including empty ones.
func (db *Database) Preds() []string {
	out := make([]string, 0, len(db.rels))
	for p := range db.rels {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// NumTuples returns the total number of tuples across all relations.
func (db *Database) NumTuples() int {
	n := 0
	for _, r := range db.rels {
		n += r.Len()
	}
	return n
}

// DistinctConstants returns the number of distinct constants appearing in
// any relation — the parameter n of the paper's §4 bounds. (Constants
// interned but never used in a fact do not count.)
func (db *Database) DistinctConstants() int {
	seen := make(map[rel.Value]bool)
	for _, r := range db.rels {
		for _, t := range r.Rows() {
			for _, v := range t {
				seen[v] = true
			}
		}
	}
	return len(seen)
}

// Clone returns a deep copy sharing the symbol table. Useful for algorithms
// that add derived relations without disturbing the caller's EDB.
func (db *Database) Clone() *Database {
	out := &Database{Syms: db.Syms, rels: make(map[string]*rel.Relation, len(db.rels))}
	for p, r := range db.rels {
		out.rels[p] = r.Clone()
	}
	return out
}

// ShallowView returns a database that shares both the symbol table and the
// relation objects with db. Algorithms use it to overlay derived relations:
// Set on the view does not affect db, but mutating a shared relation does.
func (db *Database) ShallowView() *Database {
	out := &Database{Syms: db.Syms, rels: make(map[string]*rel.Relation, len(db.rels))}
	for p, r := range db.rels {
		out.rels[p] = r
	}
	return out
}
