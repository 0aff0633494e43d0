package symtab

import (
	"testing"
	"testing/quick"
)

func TestInternDense(t *testing.T) {
	tab := New()
	a := tab.Intern("a")
	b := tab.Intern("b")
	c := tab.Intern("c")
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("ids not dense: %d %d %d", a, b, c)
	}
	if tab.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tab.Len())
	}
}

func TestInternIdempotent(t *testing.T) {
	tab := New()
	v1 := tab.Intern("tom")
	v2 := tab.Intern("tom")
	if v1 != v2 {
		t.Fatalf("re-interning changed id: %d vs %d", v1, v2)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
}

func TestNameRoundTrip(t *testing.T) {
	tab := New()
	names := []string{"tom", "dick", "harry", "", "日本"}
	for _, n := range names {
		v := tab.Intern(n)
		if got := tab.Name(v); got != n {
			t.Errorf("Name(Intern(%q)) = %q", n, got)
		}
	}
}

func TestLookup(t *testing.T) {
	tab := New()
	tab.Intern("x")
	if v, ok := tab.Lookup("x"); !ok || v != 0 {
		t.Errorf("Lookup(x) = %d, %v", v, ok)
	}
	if _, ok := tab.Lookup("y"); ok {
		t.Error("Lookup(y) found missing symbol")
	}
}

func TestNamePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Name on unknown value did not panic")
		}
	}()
	New().Name(7)
}

func TestNamesCopy(t *testing.T) {
	tab := New()
	tab.Intern("a")
	ns := tab.Names()
	ns[0] = "mutated"
	if tab.Name(0) != "a" {
		t.Fatal("Names() exposed internal storage")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	tab := New()
	f := func(s string) bool {
		return tab.Name(tab.Intern(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistinctStringsDistinctIDs(t *testing.T) {
	tab := New()
	f := func(a, b string) bool {
		va, vb := tab.Intern(a), tab.Intern(b)
		return (a == b) == (va == vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInternAllDense(t *testing.T) {
	tab := New()
	if i := tab.InternAll([]string{"a", "b", "c"}); i != -1 {
		t.Fatalf("InternAll = %d, want -1", i)
	}
	for i, n := range []string{"a", "b", "c"} {
		if v, ok := tab.Lookup(n); !ok || int(v) != i {
			t.Errorf("Lookup(%q) = %d, %v; want %d", n, v, ok, i)
		}
	}
	// Re-installing the same list over a table that already holds it is a
	// no-op that still matches.
	if i := tab.InternAll([]string{"a", "b"}); i != -1 || tab.Len() != 3 {
		t.Fatalf("InternAll again = %d (Len %d), want -1 (Len 3)", i, tab.Len())
	}
}

func TestInternAllDuplicateName(t *testing.T) {
	tab := New()
	if i := tab.InternAll([]string{"a", "b", "a", "c"}); i != 2 {
		t.Fatalf("InternAll = %d, want 2 (the repeated name)", i)
	}
	if _, ok := tab.Lookup("c"); ok {
		t.Error("InternAll interned a name after the mismatch")
	}
}

func TestInternAllPreInternedWrongID(t *testing.T) {
	tab := New()
	tab.Intern("b")
	if i := tab.InternAll([]string{"a", "b"}); i != 0 {
		t.Fatalf("InternAll = %d, want 0", i)
	}
	if v, _ := tab.Lookup("a"); v != 1 {
		t.Fatalf("a interned as %d, want 1", v)
	}
}
