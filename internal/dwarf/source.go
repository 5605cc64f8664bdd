package dwarf

import (
	"sort"
	"unsafe"
)

// Source is the cursor-style interface the unified query kernel walks. Both
// cube representations implement it — *Cube over the pointer node graph and
// *CubeView over the encoded bytes — so every query shape (kernel.go) is
// written exactly once and answers identically on either. The live store
// fans the same kernel out over many sources and merges the partials
// (internal/cubestore), and internal/query builds the name-based rollup /
// drill-down surface on top.
//
// The contract mirrors a DWARF node: a Source exposes, for any node cursor,
// its ALL cell (the aggregate over the whole dimension, or the sub-dwarf
// computing it), point lookup of one key cell, and an in-order scan of its
// key cells. The kernel supplies the traversal level with every call;
// encoded sources revalidate it so a corrupt stream can never send a walk
// sideways. All methods must be safe for concurrent callers.
//
// Methods are Source-prefixed so implementations can keep their ordinary
// exported surface (Cube.Root returns a *Node, for example) collision-free.
type Source interface {
	// NumDims returns the number of dimensions.
	NumDims() int
	// Dims returns the dimension names in order.
	Dims() []string
	// SourceRoot returns the cursor of the level-0 root node. A nil cursor
	// (Cursor.IsNil) means the empty cube: every query answers zero.
	SourceRoot() (Cursor, error)
	// SourceAll resolves n's ALL cell. At the leaf level the aggregate is
	// returned; above it the ALL child cursor (possibly nil) is.
	SourceAll(n Cursor, level int) (Aggregate, Cursor, error)
	// SourceLookup finds the cell of key in n. At the leaf level the
	// aggregate is returned; above it the child cursor is.
	SourceLookup(n Cursor, level int, key string) (agg Aggregate, child Cursor, found bool, err error)
	// SourceCells positions it at n's first cell whose key is >= lo (lo ""
	// means the first cell; sources may ignore the bound and start earlier,
	// as the encoded representation cannot seek). The iterator is owned by
	// the caller and may be reused across calls.
	SourceCells(n Cursor, level int, lo string, it *CellIter) error
	// SourceNext returns the next cell of it in key order: the key, and the
	// leaf aggregate or child cursor. ok is false when the scan is done.
	// The key may alias memory owned by the source — see StableKeys.
	SourceNext(it *CellIter) (key string, agg Aggregate, child Cursor, ok bool, err error)
	// StableKeys reports whether strings handed out by SourceNext remain
	// valid indefinitely. When false (encoded views: keys alias the mapped
	// bytes) the kernel clones any key it retains past the walk.
	StableKeys() bool
}

// Cursor addresses one node of a Source: a pointer into the node graph or a
// record id in the encoded bytes. The zero Cursor is the nil node.
type Cursor struct {
	n  *Node
	id uint64
}

// IsNil reports whether the cursor addresses no node (an absent sub-dwarf).
func (c Cursor) IsNil() bool { return c.n == nil && c.id == 0 }

// CellIter is reusable cell-scan state for SourceCells/SourceNext. The
// kernel keeps one per traversal level; a recursion's deeper levels use
// their own iterators, so one allocation serves the whole walk.
type CellIter struct {
	// Node-graph scans.
	node *Node
	i    int

	// Encoded scans.
	v      *CubeView
	cur    cursor
	ncells int
	idx    int
	leaf   bool
	nid    uint64
}

// ---- *Cube as a Source ----

// SourceRoot implements Source over the pointer node graph.
func (c *Cube) SourceRoot() (Cursor, error) { return Cursor{n: c.root}, nil }

// StableKeys implements Source: cell keys are ordinary heap strings.
func (c *Cube) StableKeys() bool { return true }

// SourceAll implements Source.
func (c *Cube) SourceAll(n Cursor, level int) (Aggregate, Cursor, error) {
	if n.n.Leaf {
		return n.n.AllAgg, Cursor{}, nil
	}
	return Aggregate{}, Cursor{n: n.n.AllChild}, nil
}

// SourceLookup implements Source.
func (c *Cube) SourceLookup(n Cursor, level int, key string) (Aggregate, Cursor, bool, error) {
	cell, ok := n.n.Lookup(key)
	if !ok {
		return Aggregate{}, Cursor{}, false, nil
	}
	if n.n.Leaf {
		return cell.Agg, Cursor{}, true, nil
	}
	return Aggregate{}, Cursor{n: cell.Child}, true, nil
}

// SourceCells implements Source. The lower bound is honoured exactly via
// binary search over the sorted cells.
func (c *Cube) SourceCells(n Cursor, level int, lo string, it *CellIter) error {
	it.node = n.n
	it.v = nil
	it.i = 0
	if lo != "" {
		cells := n.n.Cells
		it.i = sort.Search(len(cells), func(i int) bool { return cells[i].Key >= lo })
	}
	return nil
}

// SourceNext implements Source.
func (c *Cube) SourceNext(it *CellIter) (string, Aggregate, Cursor, bool, error) {
	node := it.node
	if it.i >= len(node.Cells) {
		return "", Aggregate{}, Cursor{}, false, nil
	}
	cell := &node.Cells[it.i]
	it.i++
	if node.Leaf {
		return cell.Key, cell.Agg, Cursor{}, true, nil
	}
	return cell.Key, Aggregate{}, Cursor{n: cell.Child}, true, nil
}

// ---- *CubeView as a Source ----

// SourceRoot implements Source over the encoded bytes, building the node
// offset index on first touch when the stream carries no trailer.
func (v *CubeView) SourceRoot() (Cursor, error) {
	if err := v.ensure(); err != nil {
		return Cursor{}, err
	}
	return Cursor{id: v.rootID}, nil
}

// StableKeys implements Source: keys handed out by SourceNext alias the
// encoded bytes and must be cloned to be retained.
func (v *CubeView) StableKeys() bool { return false }

// viewNodeAt parses the record header of the node under cur, holding its
// level to the kernel's traversal depth so a corrupt stream cannot walk
// sideways (the same check the pre-kernel walks made).
func (v *CubeView) viewNodeAt(cur Cursor, level int) (vnode, error) {
	n, err := v.node(cur.id)
	if err != nil {
		return vnode{}, err
	}
	if n.level != level {
		return vnode{}, errCorrupt("node %d: level %d at traversal depth %d", cur.id, n.level, level)
	}
	return n, nil
}

// SourceAll implements Source.
func (v *CubeView) SourceAll(cur Cursor, level int) (Aggregate, Cursor, error) {
	n, err := v.viewNodeAt(cur, level)
	if err != nil {
		return Aggregate{}, Cursor{}, err
	}
	if n.leaf {
		agg, err := v.allAgg(&n)
		return agg, Cursor{}, err
	}
	id, err := v.allChild(&n)
	return Aggregate{}, Cursor{id: id}, err
}

// SourceLookup implements Source.
func (v *CubeView) SourceLookup(cur Cursor, level int, key string) (Aggregate, Cursor, bool, error) {
	n, err := v.viewNodeAt(cur, level)
	if err != nil {
		return Aggregate{}, Cursor{}, false, err
	}
	agg, child, found, err := v.lookupCell(n, key)
	return agg, Cursor{id: child}, found, err
}

// SourceCells implements Source. Encoded records cannot seek, so the lower
// bound is ignored and the kernel filters (exactly what the pre-kernel view
// walks did).
func (v *CubeView) SourceCells(cur Cursor, level int, lo string, it *CellIter) error {
	n, err := v.viewNodeAt(cur, level)
	if err != nil {
		return err
	}
	it.node = nil
	it.v = v
	it.cur = n.cells
	it.ncells = n.ncells
	it.idx = 0
	it.leaf = n.leaf
	it.nid = n.id
	return nil
}

// SourceNext implements Source.
func (v *CubeView) SourceNext(it *CellIter) (string, Aggregate, Cursor, bool, error) {
	if it.idx >= it.ncells {
		return "", Aggregate{}, Cursor{}, false, nil
	}
	it.idx++
	k, err := it.cur.str()
	if err != nil {
		return "", Aggregate{}, Cursor{}, false, err
	}
	if it.leaf {
		agg, err := it.cur.agg()
		if err != nil {
			return "", Aggregate{}, Cursor{}, false, err
		}
		return aliasKey(k), agg, Cursor{}, true, nil
	}
	child, err := it.cur.uvarint()
	if err != nil {
		return "", Aggregate{}, Cursor{}, false, err
	}
	if child == 0 || child >= it.nid {
		return "", Aggregate{}, Cursor{}, false,
			errCorrupt("node %d: cell child id %d is not an earlier node", it.nid, child)
	}
	return aliasKey(k), Aggregate{}, Cursor{id: child}, true, nil
}

// aliasKey exposes encoded key bytes as a string without copying. The bytes
// are immutable for the life of the view, and the Source contract
// (StableKeys() == false) obliges the kernel to clone before retaining, so
// the alias never outlives the mapping.
func aliasKey(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// Compile-time checks: both cube representations implement the kernel's
// source contract.
var (
	_ Source = (*Cube)(nil)
	_ Source = (*CubeView)(nil)
)
