package kg

import (
	"slices"
	"testing"
	"testing/quick"
)

func buildTestOntology(t *testing.T) (*Ontology, map[string]TypeID) {
	t.Helper()
	o := NewOntology()
	ids := make(map[string]TypeID)
	add := func(name string, parent string) {
		var pid TypeID
		if parent != "" {
			pid = ids[parent]
		}
		id, err := o.AddType(name, pid)
		if err != nil {
			t.Fatalf("AddType(%q): %v", name, err)
		}
		ids[name] = id
	}
	add("Thing", "")
	add("Person", "Thing")
	add("Athlete", "Person")
	add("BasketballPlayer", "Athlete")
	add("Academic", "Person")
	add("CreativeWork", "Thing")
	add("Movie", "CreativeWork")
	return o, ids
}

func TestOntologyIsA(t *testing.T) {
	o, ids := buildTestOntology(t)
	cases := []struct {
		t, anc string
		want   bool
	}{
		{"BasketballPlayer", "Athlete", true},
		{"BasketballPlayer", "Person", true},
		{"BasketballPlayer", "Thing", true},
		{"BasketballPlayer", "BasketballPlayer", true},
		{"Athlete", "BasketballPlayer", false},
		{"Movie", "Person", false},
		{"Academic", "Athlete", false},
	}
	for _, c := range cases {
		if got := o.IsA(ids[c.t], ids[c.anc]); got != c.want {
			t.Errorf("IsA(%s,%s) = %v, want %v", c.t, c.anc, got, c.want)
		}
	}
	if o.IsA(NoType, ids["Thing"]) || o.IsA(ids["Thing"], NoType) {
		t.Error("IsA with NoType must be false")
	}
}

func TestOntologyAncestorsAndChildren(t *testing.T) {
	o, ids := buildTestOntology(t)
	// The parent chain runs from a type up to its root, nearest first.
	var chain []string
	for ty := o.Parent(ids["BasketballPlayer"]); ty != NoType; ty = o.Parent(ty) {
		chain = append(chain, o.Name(ty))
	}
	if want := []string{"Athlete", "Person", "Thing"}; !slices.Equal(chain, want) {
		t.Errorf("parent chain of BasketballPlayer = %v, want %v", chain, want)
	}
	// Type IDs run 1..Len, so the children of Person are the IDs whose
	// parent is Person.
	var kids []string
	for id := TypeID(1); int(id) <= o.Len(); id++ {
		if o.Parent(id) == ids["Person"] {
			kids = append(kids, o.Name(id))
		}
	}
	if want := []string{"Athlete", "Academic"}; !slices.Equal(kids, want) {
		t.Errorf("children of Person = %v, want %v", kids, want)
	}
}

func TestOntologyDuplicateAndErrors(t *testing.T) {
	o, ids := buildTestOntology(t)
	again, err := o.AddType("Person", ids["Thing"])
	if err != nil || again != ids["Person"] {
		t.Fatalf("re-adding Person: id=%v err=%v", again, err)
	}
	if _, err := o.AddType("Person", ids["CreativeWork"]); err == nil {
		t.Fatal("conflicting parent accepted")
	}
	if _, err := o.AddType("", NoType); err == nil {
		t.Fatal("empty type name accepted")
	}
	if _, err := o.AddType("Orphan", TypeID(999)); err == nil {
		t.Fatal("unknown parent accepted")
	}
	if o.Len() != 7 {
		t.Fatalf("Len = %d, want 7", o.Len())
	}
}

// Property: for every type in a randomly generated ontology, IsA(t, root)
// and IsA(t, Parent(t)) hold, IsA(Parent(t), t) does not, and IsA(a, b)
// holds exactly when b is on a's parent chain.
func TestOntologyPropertyIsA(t *testing.T) {
	f := func(depthsRaw []uint8) bool {
		o := NewOntology()
		root, _ := o.AddType("root", NoType)
		// Build a random tree: each new node attaches to a previously
		// created node chosen by the fuzzed byte.
		nodes := []TypeID{root}
		for i, b := range depthsRaw {
			if i >= 40 {
				break
			}
			parent := nodes[int(b)%len(nodes)]
			id, err := o.AddType(nodeName(i), parent)
			if err != nil {
				return false
			}
			nodes = append(nodes, id)
		}
		for i, n := range nodes {
			if !o.IsA(n, root) {
				return false
			}
			if p := o.Parent(n); p != NoType && (!o.IsA(n, p) || o.IsA(p, n)) {
				return false
			}
			m := nodes[(i*7)%len(nodes)]
			onChain := false
			for a := n; a != NoType; a = o.Parent(a) {
				onChain = onChain || a == m
			}
			if o.IsA(n, m) != onChain {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func nodeName(i int) string {
	return "t" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}
