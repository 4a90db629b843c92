package join

import (
	"reflect"
	"sort"
	"testing"
)

func TestColumnID(t *testing.T) {
	if got := ColumnID("t", "c"); got != "t.c" {
		t.Fatalf("ColumnID = %q", got)
	}
}

func TestFreshColumnsAreSeparate(t *testing.T) {
	g := NewGroups()
	if g.SameGroup("t1", "a", "t2", "b") {
		t.Fatal("fresh columns must not share a group")
	}
	if g.KeyLabel("t1", "a") == g.KeyLabel("t2", "b") {
		t.Fatal("fresh columns must have distinct key labels")
	}
}

func TestUnionMergesLabels(t *testing.T) {
	g := NewGroups()
	g.Union("orders", "cust_id", "customers", "id")
	if !g.SameGroup("orders", "cust_id", "customers", "id") {
		t.Fatal("union did not merge groups")
	}
	if g.KeyLabel("orders", "cust_id") != g.KeyLabel("customers", "id") {
		t.Fatal("joined columns must share a key label")
	}
}

func TestTransitivity(t *testing.T) {
	g := NewGroups()
	g.Union("a", "x", "b", "y")
	g.Union("b", "y", "c", "z")
	if !g.SameGroup("a", "x", "c", "z") {
		t.Fatal("join groups must be transitive")
	}
	la, lc := g.KeyLabel("a", "x"), g.KeyLabel("c", "z")
	if la != lc {
		t.Fatalf("labels differ across transitive group: %q vs %q", la, lc)
	}
}

func TestLabelIndependentOfUnionOrder(t *testing.T) {
	g1 := NewGroups()
	g1.Union("a", "x", "b", "y")
	g1.Union("b", "y", "c", "z")

	g2 := NewGroups()
	g2.Union("c", "z", "b", "y")
	g2.Union("b", "y", "a", "x")

	if g1.KeyLabel("b", "y") != g2.KeyLabel("b", "y") {
		t.Fatal("key label must not depend on union order")
	}
}

func TestMembers(t *testing.T) {
	g := NewGroups()
	g.Union("a", "x", "b", "y")
	g.Union("a", "x", "c", "z")
	got := g.Members("b", "y")
	want := []string{"a.x", "b.y", "c.z"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	// Singleton group.
	solo := g.Members("d", "w")
	if !reflect.DeepEqual(solo, []string{"d.w"}) {
		t.Fatalf("singleton Members = %v", solo)
	}
}

func TestSelfUnionIsNoop(t *testing.T) {
	g := NewGroups()
	g.Union("a", "x", "a", "x")
	if got := g.Members("a", "x"); !reflect.DeepEqual(got, []string{"a.x"}) {
		t.Fatalf("self-union group = %v", got)
	}
}

func TestStringListsGroups(t *testing.T) {
	g := NewGroups()
	g.Union("a", "x", "b", "y")
	if g.String() == "" {
		t.Fatal("String() should render groups")
	}
}

// Members returns the sorted member list of the group containing the
// given column, including the column itself.
func (g *Groups) Members(table, column string) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	root := g.find(ColumnID(table, column))
	var out []string
	for id := range g.parent {
		if g.find(id) == root {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
