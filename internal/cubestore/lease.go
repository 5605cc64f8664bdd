package cubestore

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sync/atomic"

	"repro/internal/dwarf"
)

// Segment memory. Every sealed segment and rollup the store lists is served
// from a read-only shared mapping of its file (dwarf.ViewFile; a heap read
// on platforms without mmap), so cube bytes live in the page cache, not on
// the Go heap. A mapping is released by reference counting, never by the
// GC:
//
//   - Each published storeState holds one reference on every segment and
//     rollup it lists, and the store holds one reference on its current
//     state.
//   - Readers lease a state (acquire/release) for the whole of a query, a
//     compaction merge or a rollup build; publish retires the previous
//     state by dropping the store's reference.
//   - A state whose count reaches zero drops its file references, and a
//     file whose count reaches zero is unmapped at once — so the disk
//     blocks of a compacted-away input are freed when its last reader
//     finishes, not at some later GC.
//
// Query results stay valid after an unmap: the kernel clones every key it
// retains from a view (CubeView.StableKeys is false), and Aggregates are
// plain values.

// mappedFile is one store cube file shared by every state listing it.
type mappedFile struct {
	vf   *dwarf.ViewFile
	size int // file length, readable by Stats without touching the mapping
	refs atomic.Int64
	live *atomic.Int64 // the owning store's count of live mappings
}

func (f *mappedFile) retain() { f.refs.Add(1) }

func (f *mappedFile) release() {
	if f.refs.Add(-1) == 0 {
		f.unmap()
	}
}

// unmap closes the mapping directly; callers use it only on files that
// were never published (or, via release, once no state lists them).
func (f *mappedFile) unmap() {
	// munmap of a region mmap returned fails only on a bad address, which
	// no input can cause; there is nothing to report it to.
	_ = f.vf.Close()
	f.live.Add(-1)
}

// openCubeFile maps one segment or rollup file in the store directory: the
// store's only way to open one. A listed file (Open) gets the whole-file
// checksum pass over the mapped bytes, so a corrupt one fails Open with its
// name; a file this process has just written only has its trailer
// validated, like OpenViewTrusted. kind names the file in errors
// ("segment", "rollup").
func (s *Store) openCubeFile(kind, name string, listed bool) (*mappedFile, error) {
	path := filepath.Join(s.dir, name)
	open := dwarf.OpenViewFile
	if listed {
		open = dwarf.OpenViewFileVerified
	}
	vf, err := open(path)
	if err != nil {
		if listed && errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("cubestore: manifest lists %s: %w", name, err)
		}
		return nil, fmt.Errorf("cubestore: %s %s: %w", kind, name, err)
	}
	s.mappings.Add(1)
	return &mappedFile{vf: vf, size: vf.Size(), live: &s.mappings}, nil
}

// writeCubeFile streams a new segment or rollup file through encode
// (writeSegmentFile) and maps it, trusting the bytes it just wrote.
func (s *Store) writeCubeFile(kind, name string, encode func(io.Writer) error) (*mappedFile, error) {
	if err := writeSegmentFile(s.dir, name, encode); err != nil {
		return nil, err
	}
	return s.openCubeFile(kind, name, false)
}

// acquire leases the current read snapshot: its segments and rollups stay
// mapped until the matching release. It fails with ErrClosed once Close
// has retired the last state. Allocation-free, so it may sit on every
// query path.
func (s *Store) acquire() (*storeState, error) {
	for {
		st := s.state.Load()
		if st == nil {
			return nil, ErrClosed
		}
		if st.tryRetain() {
			return st, nil
		}
		// st was retired between the load and the increment; publish stores
		// its successor first, so the next load sees a live state.
	}
}

// tryRetain takes a reference on st unless it has already been retired.
func (st *storeState) tryRetain() bool {
	for {
		n := st.refs.Load()
		if n <= 0 {
			return false
		}
		if st.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops one reference on st; the last one releases every file the
// state lists.
func (st *storeState) release() {
	if st.refs.Add(-1) != 0 {
		return
	}
	for _, seg := range st.segs {
		seg.file.release()
	}
	for _, r := range st.rollups {
		r.file.release()
	}
}

// retire swaps the store's read state for next (nil after Close) and drops
// the store's reference on the previous one.
func (s *Store) retire(next *storeState) {
	if old := s.state.Swap(next); old != nil {
		old.release()
	}
}
