package dwarf

import (
	"errors"
	"fmt"
	"sort"
)

// ErrInvalidStructure reports a rebuilt cube that violates DWARF invariants.
var ErrInvalidStructure = errors.New("dwarf: invalid cube structure")

// NewNode constructs a bare node for rebuilding (storage mappers wire cells
// and ALL pointers themselves, then call FromParts which fixes levels and
// validates).
func NewNode(seq int64) *Node { return &Node{seq: seq} }

// FromParts reconstructs a Cube from a node graph rebuilt out of storage —
// the second direction of the paper's bi-directional model mapper. It
// assigns levels breadth-first from the root, sorts each node's cells,
// marks leaves, and validates the structure. numTuples and fromQuery
// restore the schema row's metadata (is_cube flag).
func FromParts(dims []string, root *Node, numTuples int, fromQuery bool) (*Cube, error) {
	if len(dims) == 0 {
		return nil, ErrNoDimensions
	}
	if root == nil {
		return nil, fmt.Errorf("%w: nil root", ErrInvalidStructure)
	}
	ndims := len(dims)
	// Assign levels BFS; detect level conflicts (a node reachable at two
	// different depths would be a corrupt graph).
	level := map[*Node]int{root: 0}
	queue := []*Node{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		l := level[n]
		if l >= ndims {
			return nil, fmt.Errorf("%w: node deeper than %d dimensions", ErrInvalidStructure, ndims)
		}
		n.Level = l
		n.Leaf = l == ndims-1
		sort.Slice(n.Cells, func(i, j int) bool { return n.Cells[i].Key < n.Cells[j].Key })
		for i := range n.Cells {
			if i > 0 && n.Cells[i].Key == n.Cells[i-1].Key {
				return nil, fmt.Errorf("%w: duplicate cell key %q", ErrInvalidStructure, n.Cells[i].Key)
			}
			child := n.Cells[i].Child
			if n.Leaf {
				if child != nil {
					return nil, fmt.Errorf("%w: leaf cell %q has a child node", ErrInvalidStructure, n.Cells[i].Key)
				}
				continue
			}
			if child == nil {
				return nil, fmt.Errorf("%w: non-leaf cell %q has no child node", ErrInvalidStructure, n.Cells[i].Key)
			}
			if prev, seen := level[child]; seen {
				if prev != l+1 {
					return nil, fmt.Errorf("%w: node reachable at levels %d and %d", ErrInvalidStructure, prev, l+1)
				}
			} else {
				level[child] = l + 1
				queue = append(queue, child)
			}
		}
		if !n.Leaf && n.AllChild != nil {
			if prev, seen := level[n.AllChild]; seen {
				if prev != l+1 {
					return nil, fmt.Errorf("%w: ALL node reachable at levels %d and %d", ErrInvalidStructure, prev, l+1)
				}
			} else {
				level[n.AllChild] = l + 1
				queue = append(queue, n.AllChild)
			}
		}
	}
	return &Cube{
		dims:      append([]string(nil), dims...),
		root:      root,
		numTuples: numTuples,
		FromQuery: fromQuery,
	}, nil
}

// CheckInvariants walks the cube verifying DWARF structural invariants:
// sorted unique cell keys, consistent levels and leaf flags, and ALL
// aggregates equal to the merge of the node's cells. It is exercised by
// property tests and available to store implementations after a Load.
func (c *Cube) CheckInvariants() error {
	if c.root == nil {
		return fmt.Errorf("%w: nil root", ErrInvalidStructure)
	}
	ndims := len(c.dims)
	var err error
	c.Visit(func(n *Node) bool {
		if n.Level < 0 || n.Level >= ndims {
			err = fmt.Errorf("%w: level %d out of range", ErrInvalidStructure, n.Level)
			return false
		}
		if n.Leaf != (n.Level == ndims-1) {
			err = fmt.Errorf("%w: leaf flag inconsistent at level %d", ErrInvalidStructure, n.Level)
			return false
		}
		var all Aggregate
		for i := range n.Cells {
			if i > 0 && n.Cells[i].Key <= n.Cells[i-1].Key {
				err = fmt.Errorf("%w: cells unsorted at level %d", ErrInvalidStructure, n.Level)
				return false
			}
			if n.Leaf {
				all = MergeAggregates(all, n.Cells[i].Agg)
				if n.Cells[i].Child != nil {
					err = fmt.Errorf("%w: leaf cell with child", ErrInvalidStructure)
					return false
				}
			} else {
				if n.Cells[i].Child == nil {
					err = fmt.Errorf("%w: interior cell without child", ErrInvalidStructure)
					return false
				}
				if n.Cells[i].Child.Level != n.Level+1 {
					err = fmt.Errorf("%w: child level %d under level %d", ErrInvalidStructure,
						n.Cells[i].Child.Level, n.Level)
					return false
				}
			}
		}
		if n.Leaf && len(n.Cells) > 0 && !n.AllAgg.Equal(all) {
			err = fmt.Errorf("%w: leaf ALL aggregate %v != merged %v", ErrInvalidStructure, n.AllAgg, all)
			return false
		}
		return true
	})
	return err
}
