// Package flatfile stores DWARF cubes as single flat files using the node
// clustering of Bao et al. [1] ("A Clustered Dwarf Structure to Speed up
// Queries on Data Cubes", JCSE 2007), the baseline the paper's §5.1
// storage comparison quotes. Nodes do not embed pointers; they reference
// children by unique id (the paper adopts this id-based referencing for its
// Cassandra schema), and an id→offset index maps ids to file positions.
// Two layouts are provided:
//
//   - Hierarchical: nodes clustered breadth-first, keeping the nodes of one
//     level adjacent — the range-query-friendly clustering.
//   - Recursive: nodes clustered depth-first, keeping each sub-dwarf
//     contiguous — the point-query-friendly clustering.
//
// Point queries read one node record per level through the offset index.
package flatfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/dwarf"
)

// Layout selects the clustering order.
type Layout uint8

// The two clusterings of Bao et al.
const (
	Hierarchical Layout = 1
	Recursive    Layout = 2
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case Hierarchical:
		return "hierarchical"
	case Recursive:
		return "recursive"
	default:
		return fmt.Sprintf("layout(%d)", uint8(l))
	}
}

// MarshalText encodes the layout by name.
func (l Layout) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

const (
	magic      = "DWRFFLAT"
	footerSize = 8 + 8 + 4 + 4
)

// Flat-file errors.
var (
	ErrCorruptFile = errors.New("flatfile: corrupt dwarf file")
	ErrBadLayout   = errors.New("flatfile: unknown layout")
	ErrNotFound    = errors.New("flatfile: key path not found")
	ErrBadQuery    = errors.New("flatfile: wrong number of query keys")
)

// Write stores the cube at path in the given layout and returns the file
// size in bytes.
//
// File format:
//
//	magic | layout u8 | ndims uvarint | dim names | numTuples uvarint
//	node records (order per layout), each:
//	  level uvarint | leaf u8 | ncells uvarint
//	  cells: key + (child id | aggregate) ; all: child id | aggregate
//	index: count uvarint, then (id uvarint, offset uvarint) sorted by id
//	footer: indexOff u64 | rootID u64 | crc u32 | count u32(=magic check)
func Write(path string, c *dwarf.Cube, layout Layout) (int64, error) {
	if layout != Hierarchical && layout != Recursive {
		return 0, ErrBadLayout
	}
	// Assign ids and order.
	ids := make(map[*dwarf.Node]uint64)
	var order []*dwarf.Node
	add := func(n *dwarf.Node) bool {
		ids[n] = uint64(len(order) + 1)
		order = append(order, n)
		return true
	}
	if layout == Hierarchical {
		c.Visit(add) // breadth-first
	} else {
		c.VisitDepthFirst(add) // sub-dwarf contiguous
	}

	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := &countingCRCWriter{w: bufio.NewWriterSize(f, 1<<16)}
	if _, err := w.Write([]byte(magic)); err != nil {
		return 0, err
	}
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := w.Write(scratch[:n])
		return err
	}
	writeAgg := func(a dwarf.Aggregate) error {
		var buf [8]byte
		for _, v := range []float64{a.Sum, a.Min, a.Max} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			if _, err := w.Write(buf[:]); err != nil {
				return err
			}
		}
		return writeUvarint(uint64(a.Count))
	}
	if _, err := w.Write([]byte{byte(layout)}); err != nil {
		return 0, err
	}
	dims := c.Dims()
	if err := writeUvarint(uint64(len(dims))); err != nil {
		return 0, err
	}
	for _, d := range dims {
		if err := writeUvarint(uint64(len(d))); err != nil {
			return 0, err
		}
		if _, err := io.WriteString(w, d); err != nil {
			return 0, err
		}
	}
	if err := writeUvarint(uint64(c.NumSourceTuples())); err != nil {
		return 0, err
	}

	offsets := make([]uint64, len(order)+1)
	for _, n := range order {
		offsets[ids[n]] = w.count
		if err := writeUvarint(uint64(n.Level)); err != nil {
			return 0, err
		}
		leaf := byte(0)
		if n.Leaf {
			leaf = 1
		}
		if _, err := w.Write([]byte{leaf}); err != nil {
			return 0, err
		}
		if err := writeUvarint(uint64(len(n.Cells))); err != nil {
			return 0, err
		}
		for i := range n.Cells {
			cell := &n.Cells[i]
			if err := writeUvarint(uint64(len(cell.Key))); err != nil {
				return 0, err
			}
			if _, err := io.WriteString(w, cell.Key); err != nil {
				return 0, err
			}
			if n.Leaf {
				if err := writeAgg(cell.Agg); err != nil {
					return 0, err
				}
			} else if err := writeUvarint(ids[cell.Child]); err != nil {
				return 0, err
			}
		}
		if n.Leaf {
			if err := writeAgg(n.AllAgg); err != nil {
				return 0, err
			}
		} else {
			var allID uint64
			if n.AllChild != nil {
				allID = ids[n.AllChild]
			}
			if err := writeUvarint(allID); err != nil {
				return 0, err
			}
		}
	}

	indexOff := w.count
	if err := writeUvarint(uint64(len(order))); err != nil {
		return 0, err
	}
	for id := uint64(1); id <= uint64(len(order)); id++ {
		if err := writeUvarint(id); err != nil {
			return 0, err
		}
		if err := writeUvarint(offsets[id]); err != nil {
			return 0, err
		}
	}
	var rootID uint64
	if c.Root() != nil {
		rootID = ids[c.Root()]
	}
	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:], indexOff)
	binary.LittleEndian.PutUint64(footer[8:], rootID)
	binary.LittleEndian.PutUint32(footer[16:], w.crc)
	binary.LittleEndian.PutUint32(footer[20:], crc32.ChecksumIEEE([]byte(magic)))
	if _, err := w.w.Write(footer[:]); err != nil {
		return 0, err
	}
	if err := w.w.Flush(); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

type countingCRCWriter struct {
	w     *bufio.Writer
	count uint64
	crc   uint32
}

func (w *countingCRCWriter) Write(p []byte) (int, error) {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	n, err := w.w.Write(p)
	w.count += uint64(n)
	return n, err
}

// File is an open flat-file DWARF supporting point and range queries
// directly against the disk representation.
type File struct {
	f       *os.File
	layout  Layout
	dims    []string
	tuples  uint64
	offsets map[uint64]uint64
	rootID  uint64
	size    int64
	bodyEnd int64
}

// Open validates and indexes a flat-file DWARF.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	ff, err := open(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return ff, nil
}

func open(f *os.File) (*File, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := info.Size()
	if size < int64(len(magic)+footerSize) {
		return nil, fmt.Errorf("%w: too small", ErrCorruptFile)
	}
	var footer [footerSize]byte
	if _, err := f.ReadAt(footer[:], size-footerSize); err != nil {
		return nil, err
	}
	indexOff := binary.LittleEndian.Uint64(footer[0:])
	rootID := binary.LittleEndian.Uint64(footer[8:])
	wantCRC := binary.LittleEndian.Uint32(footer[16:])
	body := size - footerSize
	if int64(indexOff) > body {
		return nil, fmt.Errorf("%w: bad index offset", ErrCorruptFile)
	}
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, io.NewSectionReader(f, 0, body)); err != nil {
		return nil, err
	}
	if h.Sum32() != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptFile)
	}

	r := bufio.NewReader(io.NewSectionReader(f, 0, body))
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil || string(head) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptFile)
	}
	layoutByte, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	layout := Layout(layoutByte)
	if layout != Hierarchical && layout != Recursive {
		return nil, ErrBadLayout
	}
	ndims, err := binary.ReadUvarint(r)
	if err != nil || ndims == 0 || ndims > 1<<16 {
		return nil, fmt.Errorf("%w: bad dimension count", ErrCorruptFile)
	}
	dims := make([]string, ndims)
	for i := range dims {
		l, err := binary.ReadUvarint(r)
		if err != nil || l > 1<<20 {
			return nil, fmt.Errorf("%w: bad dim name", ErrCorruptFile)
		}
		buf := make([]byte, l)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		dims[i] = string(buf)
	}
	tuples, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}

	// Load the id → offset index.
	ir := bufio.NewReader(io.NewSectionReader(f, int64(indexOff), body-int64(indexOff)))
	count, err := binary.ReadUvarint(ir)
	if err != nil {
		return nil, fmt.Errorf("%w: bad index", ErrCorruptFile)
	}
	offsets := make(map[uint64]uint64, count)
	for i := uint64(0); i < count; i++ {
		id, err := binary.ReadUvarint(ir)
		if err != nil {
			return nil, fmt.Errorf("%w: bad index id", ErrCorruptFile)
		}
		off, err := binary.ReadUvarint(ir)
		if err != nil {
			return nil, fmt.Errorf("%w: bad index offset", ErrCorruptFile)
		}
		offsets[id] = off
	}
	if rootID != 0 {
		if _, ok := offsets[rootID]; !ok {
			return nil, fmt.Errorf("%w: root id missing from index", ErrCorruptFile)
		}
	}
	return &File{
		f:       f,
		layout:  layout,
		dims:    dims,
		tuples:  tuples,
		offsets: offsets,
		rootID:  rootID,
		size:    size,
		bodyEnd: int64(indexOff),
	}, nil
}

// Layout reports the clustering layout.
func (ff *File) Layout() Layout { return ff.layout }

// Dims returns the dimension names.
func (ff *File) Dims() []string { return append([]string(nil), ff.dims...) }

// Size returns the file size in bytes.
func (ff *File) Size() int64 { return ff.size }

// NumSourceTuples returns the stored fact count.
func (ff *File) NumSourceTuples() int { return int(ff.tuples) }

// Close releases the file handle.
func (ff *File) Close() error { return ff.f.Close() }

// fileNode is one node record decoded from disk.
type fileNode struct {
	level  int
	leaf   bool
	keys   []string
	kids   []uint64
	aggs   []dwarf.Aggregate
	allID  uint64
	allAgg dwarf.Aggregate
}

func (ff *File) readNode(id uint64) (*fileNode, error) {
	off, ok := ff.offsets[id]
	if !ok {
		return nil, fmt.Errorf("%w: node id %d", ErrCorruptFile, id)
	}
	r := bufio.NewReaderSize(io.NewSectionReader(ff.f, int64(off), ff.bodyEnd-int64(off)), 4096)
	readAgg := func() (dwarf.Aggregate, error) {
		var a dwarf.Aggregate
		var buf [8]byte
		for _, dst := range []*float64{&a.Sum, &a.Min, &a.Max} {
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				return a, err
			}
			*dst = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		}
		cnt, err := binary.ReadUvarint(r)
		if err != nil {
			return a, err
		}
		a.Count = int64(cnt)
		return a, nil
	}
	level, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	leafByte, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	ncells, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	n := &fileNode{level: int(level), leaf: leafByte == 1}
	for i := uint64(0); i < ncells; i++ {
		klen, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		key := make([]byte, klen)
		if _, err := io.ReadFull(r, key); err != nil {
			return nil, err
		}
		n.keys = append(n.keys, string(key))
		if n.leaf {
			agg, err := readAgg()
			if err != nil {
				return nil, err
			}
			n.aggs = append(n.aggs, agg)
		} else {
			kid, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			n.kids = append(n.kids, kid)
		}
	}
	if n.leaf {
		if n.allAgg, err = readAgg(); err != nil {
			return nil, err
		}
	} else if n.allID, err = binary.ReadUvarint(r); err != nil {
		return nil, err
	}
	return n, nil
}

// Point answers a point/ALL query straight off the file: one node record
// read per dimension level.
func (ff *File) Point(keys ...string) (dwarf.Aggregate, error) {
	if len(keys) != len(ff.dims) {
		return dwarf.Aggregate{}, fmt.Errorf("%w: got %d, want %d", ErrBadQuery, len(keys), len(ff.dims))
	}
	id := ff.rootID
	for l := 0; l < len(ff.dims); l++ {
		if id == 0 {
			return dwarf.Aggregate{}, nil
		}
		n, err := ff.readNode(id)
		if err != nil {
			return dwarf.Aggregate{}, err
		}
		if keys[l] == dwarf.All {
			if n.leaf {
				return n.allAgg, nil
			}
			id = n.allID
			continue
		}
		found := -1
		for i, k := range n.keys {
			if k == keys[l] {
				found = i
				break
			}
		}
		if found < 0 {
			return dwarf.Aggregate{}, nil
		}
		if n.leaf {
			return n.aggs[found], nil
		}
		id = n.kids[found]
	}
	return dwarf.Aggregate{}, nil
}

// RangeKeys aggregates over explicit key sets per dimension (nil set =
// ALL), reading nodes from disk as it descends.
func (ff *File) RangeKeys(sets [][]string) (dwarf.Aggregate, error) {
	if len(sets) != len(ff.dims) {
		return dwarf.Aggregate{}, fmt.Errorf("%w: got %d, want %d", ErrBadQuery, len(sets), len(ff.dims))
	}
	return ff.rangeWalk(ff.rootID, sets)
}

func (ff *File) rangeWalk(id uint64, sets [][]string) (dwarf.Aggregate, error) {
	if id == 0 {
		return dwarf.Aggregate{}, nil
	}
	n, err := ff.readNode(id)
	if err != nil {
		return dwarf.Aggregate{}, err
	}
	set := sets[0]
	if set == nil {
		if n.leaf {
			return n.allAgg, nil
		}
		return ff.rangeWalk(n.allID, sets[1:])
	}
	want := make(map[string]bool, len(set))
	for _, k := range set {
		want[k] = true
	}
	var agg dwarf.Aggregate
	for i, k := range n.keys {
		if !want[k] {
			continue
		}
		if n.leaf {
			agg = dwarf.MergeAggregates(agg, n.aggs[i])
		} else {
			sub, err := ff.rangeWalk(n.kids[i], sets[1:])
			if err != nil {
				return dwarf.Aggregate{}, err
			}
			agg = dwarf.MergeAggregates(agg, sub)
		}
	}
	return agg, nil
}

// ReadCube materializes the whole file back into an in-memory cube
// (round-trip support).
func (ff *File) ReadCube() (*dwarf.Cube, error) {
	nodes := make(map[uint64]*dwarf.Node, len(ff.offsets))
	// First pass: create shells.
	for id := range ff.offsets {
		nodes[id] = dwarf.NewNode(int64(id))
	}
	for id := range ff.offsets {
		fn, err := ff.readNode(id)
		if err != nil {
			return nil, err
		}
		n := nodes[id]
		for i, k := range fn.keys {
			cell := dwarf.Cell{Key: k}
			if fn.leaf {
				cell.Agg = fn.aggs[i]
			} else {
				child, ok := nodes[fn.kids[i]]
				if !ok {
					return nil, fmt.Errorf("%w: dangling child %d", ErrCorruptFile, fn.kids[i])
				}
				cell.Child = child
			}
			n.Cells = append(n.Cells, cell)
		}
		if fn.leaf {
			n.AllAgg = fn.allAgg
		} else if fn.allID != 0 {
			child, ok := nodes[fn.allID]
			if !ok {
				return nil, fmt.Errorf("%w: dangling ALL child %d", ErrCorruptFile, fn.allID)
			}
			n.AllChild = child
		}
	}
	root, ok := nodes[ff.rootID]
	if !ok {
		return nil, fmt.Errorf("%w: missing root", ErrCorruptFile)
	}
	return dwarf.FromParts(ff.dims, root, int(ff.tuples), false)
}
