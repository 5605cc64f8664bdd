// Package dwarf implements the DWARF data-cube structure of Sismanis et al.
// (SIGMOD 2002) as used by Scriney & Roantree, "Efficient Cube Construction
// for Smart City Data" (EDBT/ICDT 2016 Workshops).
//
// A DWARF is a tree of Nodes, one layer per dimension. A Node is a container
// of Cells that share the same parent; a Cell carries a dimension key and
// either a pointer to the Node of the next dimension level (non-leaf) or an
// aggregate value (leaf). Every node additionally owns an ALL cell holding
// the aggregate over all of its cells. Prefix coalescing (shared prefixes
// stored once) and suffix coalescing (identical sub-dwarfs shared by
// pointer) make the structure a compressed representation of the full cube:
// every group-by of the fact table can be answered by one root-to-leaf walk.
package dwarf

import "sort"

// All is the reserved wildcard key. Passing All for a dimension in a query
// follows the ALL cell of the node at that level, i.e. aggregates over the
// whole dimension. Source tuples must not use All as a dimension key.
const All = "*"

// Node is a container for the group of cells sharing one parent path. Nodes
// may be pointed to by multiple parent cells (the multiple-inheritance the
// paper's §4 traversal guards against), which is exactly what suffix
// coalescing produces.
type Node struct {
	// Level is the 0-based dimension index this node belongs to.
	Level int
	// Leaf reports whether this node is at the last dimension level; leaf
	// cells hold aggregates instead of child pointers.
	Leaf bool
	// Cells is sorted by Key. It never contains the ALL cell.
	Cells []Cell
	// AllChild is the sub-dwarf aggregating over this dimension (non-leaf
	// nodes). It is nil only for an empty cube's root chain.
	AllChild *Node
	// AllAgg is the aggregate over all cells (leaf nodes).
	AllAgg Aggregate

	// seq is the node's id in its cube's stream: its 1-based position in
	// the children-first record order (see the codec), for built and
	// decoded cubes alike, since New decodes BuildIndexed's stream. A node
	// rebuilt by a storage mapper (NewNode) carries the id it was stored
	// under. Dump prints it.
	seq int64
}

// Cell is a single entry of a Node: a dimension key plus either the child
// node of the next level or, at the leaf level, the aggregate value derived
// from the fact measures.
type Cell struct {
	Key   string
	Child *Node     // non-leaf levels
	Agg   Aggregate // leaf level
}

// NumCells returns the number of key cells (the ALL cell excluded).
func (n *Node) NumCells() int { return len(n.Cells) }

// find locates key among the node's sorted cells.
func (n *Node) find(key string) (int, bool) {
	i := sort.Search(len(n.Cells), func(i int) bool { return n.Cells[i].Key >= key })
	if i < len(n.Cells) && n.Cells[i].Key == key {
		return i, true
	}
	return i, false
}

// Lookup returns the cell for key, if present.
func (n *Node) Lookup(key string) (*Cell, bool) {
	if i, ok := n.find(key); ok {
		return &n.Cells[i], true
	}
	return nil, false
}

// Keys returns the node's cell keys in sorted order.
func (n *Node) Keys() []string {
	out := make([]string, len(n.Cells))
	for i := range n.Cells {
		out[i] = n.Cells[i].Key
	}
	return out
}
