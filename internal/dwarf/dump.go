package dwarf

import (
	"fmt"
	"io"
	"strings"
)

// Dump renders the cube as an indented tree in the style of the paper's
// Fig. 2: one line per cell, ALL cells last, shared (coalesced) sub-dwarfs
// printed once and referenced by node id afterwards. A node's id is its
// position in the cube's encoded stream (children first), so two cubes of
// the same facts Dump identically. Intended for examples and debugging at
// small scale.
func (c *Cube) Dump(w io.Writer) error {
	if c.root == nil {
		_, err := fmt.Fprintln(w, "(empty cube)")
		return err
	}
	seen := map[*Node]bool{}
	var walk func(n *Node, indent int) error
	walk = func(n *Node, indent int) error {
		pad := strings.Repeat("  ", indent)
		if seen[n] {
			_, err := fmt.Fprintf(w, "%s^ node #%d (shared)\n", pad, n.seq)
			return err
		}
		seen[n] = true
		if _, err := fmt.Fprintf(w, "%snode #%d [%s]\n", pad, n.seq, c.dimName(n.Level)); err != nil {
			return err
		}
		for i := range n.Cells {
			cell := &n.Cells[i]
			if n.Leaf {
				if _, err := fmt.Fprintf(w, "%s  %q -> %s\n", pad, cell.Key, cell.Agg); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s  %q:\n", pad, cell.Key); err != nil {
				return err
			}
			if err := walk(cell.Child, indent+2); err != nil {
				return err
			}
		}
		if n.Leaf {
			_, err := fmt.Fprintf(w, "%s  ALL -> %s\n", pad, n.AllAgg)
			return err
		}
		if n.AllChild != nil {
			if _, err := fmt.Fprintf(w, "%s  ALL:\n", pad); err != nil {
				return err
			}
			return walk(n.AllChild, indent+2)
		}
		return nil
	}
	return walk(c.root, 0)
}

func (c *Cube) dimName(level int) string {
	if level >= 0 && level < len(c.dims) {
		return c.dims[level]
	}
	return fmt.Sprintf("level-%d", level)
}
