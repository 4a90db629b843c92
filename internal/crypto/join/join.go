// Package join implements the JOIN and JOIN-OPE usage modes of the
// paper's taxonomy (Fig. 1). JOIN is not a cipher of its own: it is DET
// (or OPE) applied with a key shared across a *join group* of columns, so
// that equality (or order) comparisons work across columns — exactly what
// an equi-join over ciphertext needs.
//
// CryptDB realises this with JOIN-ADJ, an elliptic-curve ciphertext
// adjustment that moves a column's ciphertexts onto a shared key on
// demand. We model the same observable semantics by maintaining the join
// groups explicitly (a union-find over column identifiers) and deriving
// the per-group encryption key from the group's canonical representative.
// docs/ARCHITECTURE.md ("Paper experiments") says why this substitution
// preserves behaviour.
package join

import (
	"fmt"
	"sort"
	"sync"
)

// Groups tracks which columns must share an encryption key because they
// are joined against each other. It is safe for concurrent use.
type Groups struct {
	mu     sync.Mutex
	parent map[string]string
	rank   map[string]int
}

// NewGroups returns an empty join-group structure.
func NewGroups() *Groups {
	return &Groups{parent: make(map[string]string), rank: make(map[string]int)}
}

// ColumnID renders the canonical column identifier used as a union-find
// element.
func ColumnID(table, column string) string {
	return table + "." + column
}

// find locates the set representative with path compression.
// Callers must hold g.mu.
func (g *Groups) find(id string) string {
	p, ok := g.parent[id]
	if !ok {
		g.parent[id] = id
		g.rank[id] = 0
		return id
	}
	if p == id {
		return id
	}
	root := g.find(p)
	g.parent[id] = root
	return root
}

// Union merges the join groups of columns a and b.
func (g *Groups) Union(aTable, aColumn, bTable, bColumn string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ra := g.find(ColumnID(aTable, aColumn))
	rb := g.find(ColumnID(bTable, bColumn))
	if ra == rb {
		return
	}
	if g.rank[ra] < g.rank[rb] {
		ra, rb = rb, ra
	}
	g.parent[rb] = ra
	if g.rank[ra] == g.rank[rb] {
		g.rank[ra]++
	}
}

// KeyLabel returns the label from which the column's constant-encryption
// key must be derived. Columns in the same join group get the same label;
// the label is the lexicographically smallest member of the group so it
// does not depend on union order.
func (g *Groups) KeyLabel(table, column string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	root := g.find(ColumnID(table, column))
	// Collect the members of root's group and pick the smallest for a
	// stable, order-independent label.
	min := root
	for id := range g.parent {
		if g.find(id) == root && id < min {
			min = id
		}
	}
	return "joingroup:" + min
}

// SameGroup reports whether two columns share a join group.
func (g *Groups) SameGroup(aTable, aColumn, bTable, bColumn string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.find(ColumnID(aTable, aColumn)) == g.find(ColumnID(bTable, bColumn))
}

// String renders all groups for debugging.
func (g *Groups) String() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	byRoot := make(map[string][]string)
	for id := range g.parent {
		r := g.find(id)
		byRoot[r] = append(byRoot[r], id)
	}
	var roots []string
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	s := ""
	for _, r := range roots {
		sort.Strings(byRoot[r])
		s += fmt.Sprintf("%v\n", byRoot[r])
	}
	return s
}
