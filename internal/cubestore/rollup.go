package cubestore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/dwarf"
)

// Rollup segments are pre-aggregated cubes over a subset of the store's
// dimensions, maintained by the compactor: after every Compact settles the
// segment set, each configured subset is rebuilt (one kernel Pivot per
// sealed segment, partials merged, the result re-encoded through the
// normal builder) unless its manifest entry already covers exactly the
// live segments. A rollup answers a grouped query only while every file it
// covers is still live — a compaction that replaced one would otherwise
// double-count its tuples — so the plan checks Covers against the
// snapshot and fans out over the segments themselves when it no longer
// holds.
//
// Commit protocol mirrors seals: rollup file first (an orphan until
// listed), then the manifest swap under mu, then the replaced file is
// deleted. A crash at any point leaves either the old rollup or the new
// one; removeOrphans reclaims half-written files at Open.

// rollupSpec is one normalized Options.Rollups entry: the surviving
// dimension names in store order plus their store indices.
type rollupSpec struct {
	names []string
	idx   []int
}

// rollupSeg is one live rollup segment with its planner lookup tables.
type rollupSeg struct {
	meta rollupMeta
	file *mappedFile
	view *dwarf.CubeView
	// dimIdx maps rollup dimension position -> store dimension index;
	// pos maps store dimension index -> rollup position (-1 if dropped).
	dimIdx []int
	pos    []int
	// zones are the rollup cube's zone maps over its own dimension order
	// (manifest copy, else the view's; nil admits everything).
	zones []dwarf.ZoneMap
}

func dimsKey(names []string) string { return strings.Join(names, "\x00") }

// normalizeRollupSpecs validates Options.Rollups against the store's
// dimension list and normalizes each subset to store dimension order.
func normalizeRollupSpecs(specs [][]string, dims []string) ([]rollupSpec, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	at := make(map[string]int, len(dims))
	for i, d := range dims {
		at[d] = i
	}
	out := make([]rollupSpec, 0, len(specs))
	seen := make(map[string]bool, len(specs))
	for _, names := range specs {
		if len(names) == 0 {
			return nil, fmt.Errorf("cubestore: empty rollup dimension list")
		}
		idx := make([]int, 0, len(names))
		have := make(map[int]bool, len(names))
		for _, n := range names {
			i, ok := at[n]
			if !ok {
				return nil, fmt.Errorf("cubestore: rollup dimension %q not in store dims %v", n, dims)
			}
			if !have[i] {
				have[i] = true
				idx = append(idx, i)
			}
		}
		if len(idx) == len(dims) {
			return nil, fmt.Errorf("cubestore: rollup %v keeps every dimension — it would duplicate the segments", names)
		}
		sort.Ints(idx)
		ordered := make([]string, len(idx))
		for j, i := range idx {
			ordered[j] = dims[i]
		}
		k := dimsKey(ordered)
		if seen[k] {
			return nil, fmt.Errorf("cubestore: duplicate rollup over %v", ordered)
		}
		seen[k] = true
		out = append(out, rollupSpec{names: ordered, idx: idx})
	}
	return out, nil
}

// newRollupSeg builds the planner lookup tables for one rollup over the
// mapped file f (nil in planner tests, which never execute).
func newRollupSeg(meta rollupMeta, f *mappedFile, dims []string) (*rollupSeg, error) {
	at := make(map[string]int, len(dims))
	for i, d := range dims {
		at[d] = i
	}
	r := &rollupSeg{meta: meta, file: f, pos: make([]int, len(dims))}
	if f != nil {
		r.view = f.vf.CubeView
	}
	r.zones = meta.Zones
	if len(r.zones) != len(meta.Dims) {
		r.zones = nil
		if r.view != nil {
			r.zones = r.view.ZoneMaps()
		}
	}
	for i := range r.pos {
		r.pos[i] = -1
	}
	for j, n := range meta.Dims {
		i, ok := at[n]
		if !ok {
			return nil, fmt.Errorf("cubestore: rollup %s has dimension %q not in store dims %v", meta.File, n, dims)
		}
		r.dimIdx = append(r.dimIdx, i)
		r.pos[i] = j
	}
	return r, nil
}

// openRollups maps and fully validates every manifest-listed rollup. Like
// segments, a listed rollup that is missing or corrupt fails Open loudly:
// the manifest is the root of truth, and silently dropping derived state
// would hide damage.
func (s *Store) openRollups() error {
	for _, m := range s.man.Rollups {
		f, err := s.openCubeFile("rollup", m.File, true)
		if err != nil {
			return err
		}
		r, err := newRollupSeg(m, f, s.dims)
		if err != nil {
			f.unmap()
			return err
		}
		s.rollups = append(s.rollups, r)
	}
	return nil
}

// canAnswer reports whether the rollup can answer a query grouping by the
// store dimensions in grouped under sels: every grouped dimension must
// survive in the rollup, and every aggregated-away dimension must be
// unrestricted — the rollup only keeps those dimensions' ALL roll-up.
func (r *rollupSeg) canAnswer(grouped []int, sels []dwarf.Selector) bool {
	for _, d := range grouped {
		if r.pos[d] < 0 {
			return false
		}
	}
	for d := range sels {
		if r.pos[d] >= 0 {
			continue
		}
		if sels[d].HasRange || len(sels[d].Keys) > 0 {
			return false
		}
	}
	return true
}

// chooseRollup returns the smallest rollup able to answer a query grouping
// by grouped under sels whose cover is still a subset of the live segment
// set, or nil when the query must fan out over the segments themselves.
func (st *storeState) chooseRollup(grouped []int, sels []dwarf.Selector) *rollupSeg {
	if len(st.rollups) == 0 {
		return nil
	}
	var liveFiles map[string]bool
	var best *rollupSeg
	for _, r := range st.rollups {
		if len(r.meta.Covers) == 0 || !r.canAnswer(grouped, sels) {
			continue
		}
		if best != nil && best.meta.Tuples <= r.meta.Tuples {
			continue
		}
		if liveFiles == nil {
			liveFiles = make(map[string]bool, len(st.segs))
			for _, seg := range st.segs {
				liveFiles[seg.meta.File] = true
			}
		}
		covered := true
		for _, f := range r.meta.Covers {
			if !liveFiles[f] {
				covered = false
				break
			}
		}
		if covered {
			best = r
		}
	}
	return best
}

func sameFiles(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// maintainRollups brings rollup segments in line with the current segment
// set: configured subsets whose cover went stale are rebuilt, and rollups
// that are neither configured nor covering (reopened with different
// Options.Rollups, then outrun by compaction) are dropped. Callers hold
// compactMu — the segment set can only grow (seals) while this runs, so a
// committed cover stays a subset of the live set. The rollup builds read
// the segments of a leased snapshot.
func (s *Store) maintainRollups() error {
	if len(s.rollupSpecs) == 0 && len(s.rollups) == 0 {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	// Under mu the published state is exactly s.segs and s.rollups.
	st, err := s.acquire()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	defer st.release()
	segs := st.segs
	existing := make(map[string]*rollupSeg, len(st.rollups))
	for _, r := range st.rollups {
		existing[dimsKey(r.meta.Dims)] = r
	}
	cover := make([]string, len(segs))
	liveFiles := make(map[string]bool, len(segs))
	for i, seg := range segs {
		cover[i] = seg.meta.File
		liveFiles[seg.meta.File] = true
	}
	configured := make(map[string]bool, len(s.rollupSpecs))
	for _, spec := range s.rollupSpecs {
		k := dimsKey(spec.names)
		configured[k] = true
		old := existing[k]
		if old != nil && sameFiles(old.meta.Covers, cover) {
			continue
		}
		if len(segs) == 0 {
			// Nothing to summarize; drop a leftover entry rather than
			// committing a rollup that covers nothing.
			if old != nil {
				if err := s.removeRollup(old); err != nil {
					return err
				}
			}
			continue
		}
		if err := s.swapRollup(spec, segs, cover); err != nil {
			return err
		}
	}
	for k, r := range existing {
		if configured[k] {
			continue
		}
		covered := len(r.meta.Covers) > 0
		for _, f := range r.meta.Covers {
			if !liveFiles[f] {
				covered = false
				break
			}
		}
		if !covered {
			if err := s.removeRollup(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// swapRollup builds the rollup cube for spec over segs and commits it,
// replacing any previous rollup over the same subset. The expensive part
// runs without mu; only the id reservation and the manifest swap lock.
func (s *Store) swapRollup(spec rollupSpec, segs []*segment, cover []string) error {
	// One kernel Pivot per segment under all-ALL selectors — exactly the
	// fan-out a RollUp over the sealed data would run — then the merged
	// rows feed the normal builder as pre-aggregated facts, preserving
	// counts and min/max through the rebuild.
	sels := make([]dwarf.Selector, len(s.dims))
	parts := make([][]dwarf.PivotGroup, len(segs))
	for i, seg := range segs {
		rows, err := seg.view.Pivot(spec.idx, sels)
		if err != nil {
			return fmt.Errorf("cubestore: rollup over %s: %w", seg.meta.File, err)
		}
		parts[i] = rows
	}
	rows := dwarf.MergePivotGroups(parts...)
	tuples := make([]dwarf.AggTuple, len(rows))
	for i := range rows {
		tuples[i] = dwarf.AggTuple{Dims: rows[i].Keys, Agg: rows[i].Agg}
	}
	data, err := dwarf.BuildIndexedFromAggregates(spec.names, tuples)
	if err != nil {
		return err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	// Reserve the file id like compactOnce does, so a racing seal cannot
	// take the same name; the reservation persists with whichever manifest
	// swap commits first.
	id := s.man.NextSegID
	s.man.NextSegID++
	s.mu.Unlock()
	name := rollupFileName(id)
	f, err := s.writeCubeFile("rollup", name, writeBytes(data))
	if err != nil {
		return err
	}
	published := false
	defer func() {
		if !published {
			f.unmap()
		}
	}()
	meta := rollupMeta{File: name, Dims: spec.names, Covers: cover, Tuples: len(rows), Zones: f.vf.ZoneMaps()}
	r, err := newRollupSeg(meta, f, s.dims)
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	newMan := s.man.clone()
	if newMan.NextSegID <= id {
		newMan.NextSegID = id + 1
	}
	newMan.Generation = s.gen.Load() + 1
	replaced := ""
	out := newMan.Rollups[:0]
	for _, m := range newMan.Rollups {
		if dimsKey(m.Dims) == dimsKey(spec.names) {
			replaced = m.File
			continue
		}
		out = append(out, m)
	}
	newMan.Rollups = append(out, meta)
	if err := writeManifest(s.dir, newMan); err != nil {
		return err
	}
	s.man = newMan
	newRollups := make([]*rollupSeg, 0, len(s.rollups)+1)
	for _, have := range s.rollups {
		if have.meta.File != replaced {
			newRollups = append(newRollups, have)
		}
	}
	s.rollups = append(newRollups, r)
	if replaced != "" {
		os.Remove(filepath.Join(s.dir, replaced))
	}
	// Surfaces a failed sync of the replaced-rollup deletion in Stats; a
	// resurrected file is re-deleted as an orphan on the next open.
	s.noteDirSync(fsyncDir(s.dir))
	s.publish()
	published = true
	return nil
}

// removeRollup drops one rollup from the manifest and disk.
func (s *Store) removeRollup(r *rollupSeg) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	newMan := s.man.clone()
	found := false
	out := newMan.Rollups[:0]
	for _, m := range newMan.Rollups {
		if m.File == r.meta.File {
			found = true
			continue
		}
		out = append(out, m)
	}
	if !found {
		return nil
	}
	if len(out) == 0 {
		out = nil
	}
	newMan.Rollups = out
	newMan.Generation = s.gen.Load() + 1
	if err := writeManifest(s.dir, newMan); err != nil {
		return err
	}
	s.man = newMan
	keep := make([]*rollupSeg, 0, len(s.rollups))
	for _, have := range s.rollups {
		if have.meta.File != r.meta.File {
			keep = append(keep, have)
		}
	}
	s.rollups = keep
	os.Remove(filepath.Join(s.dir, r.meta.File))
	s.noteDirSync(fsyncDir(s.dir))
	s.publish()
	return nil
}
