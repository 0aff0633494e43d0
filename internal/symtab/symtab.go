// Package symtab interns constant symbols, mapping each distinct string to a
// dense non-negative int32 id. Dense ids keep tuples compact and make
// equality, hashing, and index keys cheap throughout the engine.
package symtab

import (
	"fmt"
	"sync"
)

// Value is an interned constant symbol. Values are only meaningful relative
// to the Table that produced them.
type Value int32

// None is a sentinel that no Table ever returns for a symbol.
const None Value = -1

// Table interns strings to Values. The zero value is not ready to use; call
// New. A Table is safe for concurrent use: one table is shared by every
// database snapshot the engine hands to concurrent queries, and evaluation
// interns plan constants while writers intern new facts.
type Table struct {
	mu     sync.RWMutex
	byName map[string]Value
	names  []string
}

// New returns an empty symbol table.
func New() *Table {
	return &Table{byName: make(map[string]Value)}
}

// Intern returns the Value for name, assigning the next dense id if name has
// not been seen before.
func (t *Table) Intern(name string) Value {
	t.mu.RLock()
	v, ok := t.byName[name]
	t.mu.RUnlock()
	if ok {
		return v
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.byName[name]; ok {
		return v
	}
	v = Value(len(t.names))
	t.byName[name] = v
	t.names = append(t.names, name)
	return v
}

// InternAll interns names in order under one lock and returns the index of
// the first name whose id differs from its position in names, or -1 when
// every name's id equals its position — the check a table restored from a
// recorded symbol list needs. Names after a mismatch are not interned. An
// empty table is presized for names.
func (t *Table) InternAll(names []string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.names) == 0 {
		t.byName = make(map[string]Value, len(names))
		t.names = make([]string, 0, len(names))
	}
	for i, name := range names {
		v, ok := t.byName[name]
		if !ok {
			v = Value(len(t.names))
			t.byName[name] = v
			t.names = append(t.names, name)
		}
		if int(v) != i {
			return i
		}
	}
	return -1
}

// Lookup returns the Value for name and whether it has been interned.
func (t *Table) Lookup(name string) (Value, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.byName[name]
	return v, ok
}

// Name returns the string for v. It panics if v was not produced by this
// table.
func (t *Table) Name(v Value) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if v < 0 || int(v) >= len(t.names) {
		panic(fmt.Sprintf("symtab: value %d out of range (table has %d symbols)", v, len(t.names)))
	}
	return t.names[v]
}

// Len reports the number of distinct symbols interned so far.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.names)
}

// Names returns the interned symbols in id order. The returned slice is a
// copy and may be modified by the caller.
func (t *Table) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, len(t.names))
	copy(out, t.names)
	return out
}
