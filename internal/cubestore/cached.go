package cubestore

import (
	"repro/internal/dwarf"
	"repro/internal/qcache"
)

// The planned query path serves GroupBy/Pivot/TopK when a result cache or
// rollup segments are configured. It answers exactly like the plain
// fan-out — same kernel, same deterministic merge order — but:
//
//   - Full results are cached stamped with the store generation read
//     BEFORE the snapshot. A write landing in between leaves the result
//     stamped older than the data it includes — at worst an unnecessary
//     recompute on the next lookup, never a stale hit: an acknowledged
//     append always bumps the generation after folding into the memtable,
//     so a matching stamp proves the cached answer reflects every
//     acknowledged write.
//   - Per-target partials are cached keyed by backing file + query key.
//     Segment and rollup files are immutable and their names never reused,
//     so these entries cannot go stale; only the live memtable's partial
//     is recomputed on every miss.
//   - A covering rollup segment replaces the segments it summarizes in the
//     fan-out, with the query remapped to the rollup's dimension subset.
//
// Cached values are shared across callers and with the cache itself, so
// results returned by the planned path are read-only — callers that mutate
// a GroupBy map must copy it first. The contract is audited end-to-end:
// dwarf.TopKFromGroups only reads the map it ranks (topKPlanned hands it
// the cache-shared GroupBy map directly), serve's paging only subslices
// cached []PivotGroup/[]GroupEntry results, and query.DrillDown — the one
// name-level API whose callers naturally mutate the result — copies before
// returning. TestPlannedPathSharedResultsRace in the serve package pins
// the whole surface under the race detector.

// plannedTarget is one immutable fan-out input: a view plus the (possibly
// dimension-remapped) query to run against it, and the backing file name
// that identifies its partials in the cache.
type plannedTarget struct {
	view *dwarf.CubeView
	file string
	dims []int // remapped grouped dims (dims[0] for GroupBy/TopK)
	sels []dwarf.Selector
}

// validPivotArgs mirrors the kernel's QueryPivot argument checks; invalid
// queries skip the planner so the kernel reports its usual error.
func validPivotArgs(dims []int, sels []dwarf.Selector, ndims int) bool {
	if len(sels) != ndims || len(dims) == 0 {
		return false
	}
	seen := make([]bool, ndims)
	for _, d := range dims {
		if d < 0 || d >= ndims || seen[d] {
			return false
		}
		seen[d] = true
	}
	return true
}

// planTargets picks the fan-out set for a query grouping by the store
// dimensions in grouped under sels: a covering rollup (query remapped to
// its subset) replaces the segments it summarizes, everything else fans
// out as usual, and zone maps then drop any target — segment or rollup —
// that provably holds no selected tuple. Pruning only shrinks the fan-out;
// the merged answer and the cache keys are unchanged either way. The flag
// reports whether a rollup was planned in.
func (s *Store) planTargets(st *storeState, grouped []int, sels []dwarf.Selector) ([]plannedTarget, bool) {
	prune := !s.opts.NoPrune
	admitSeg := func(seg *segment) bool {
		return !prune || dwarf.ZonesAdmit(seg.zones, sels)
	}
	pruned := int64(0)
	r := st.chooseRollup(grouped, sels)
	var out []plannedTarget
	viaRollup := false
	if r == nil {
		out = make([]plannedTarget, 0, len(st.segs))
		for _, seg := range st.segs {
			if !admitSeg(seg) {
				pruned++
				continue
			}
			out = append(out, plannedTarget{view: seg.view, file: seg.meta.File, dims: grouped, sels: sels})
		}
	} else {
		viaRollup = true
		rdims := make([]int, len(grouped))
		for i, d := range grouped {
			rdims[i] = r.pos[d]
		}
		rsels := make([]dwarf.Selector, len(r.dimIdx))
		for j, d := range r.dimIdx {
			rsels[j] = sels[d]
		}
		covered := make(map[string]bool, len(r.meta.Covers))
		for _, f := range r.meta.Covers {
			covered[f] = true
		}
		out = make([]plannedTarget, 0, len(st.segs)+1-len(r.meta.Covers))
		// The rollup's own zone maps (over its dimension subset) prune it
		// like any segment: rejected means every covered segment's selected
		// slice is empty, so dropping the whole target is sound.
		if !prune || dwarf.ZonesAdmit(r.zones, rsels) {
			out = append(out, plannedTarget{view: r.view, file: r.meta.File, dims: rdims, sels: rsels})
		} else {
			pruned++
		}
		for _, seg := range st.segs {
			if covered[seg.meta.File] {
				continue
			}
			if !admitSeg(seg) {
				pruned++
				continue
			}
			out = append(out, plannedTarget{view: seg.view, file: seg.meta.File, dims: grouped, sels: sels})
		}
	}
	if pruned > 0 {
		s.segsPruned.Add(pruned)
	}
	s.segsScanned.Add(int64(len(out)))
	return out, viaRollup
}

// groupsAt returns the merged GroupBy map over the leased state st, stamped
// gen (which the caller read before taking the lease). TopK reuses it, so a
// TopK miss also warms the GroupBy entry and vice versa.
func (s *Store) groupsAt(st *storeState, gen uint64, dim int, sels []dwarf.Selector) (map[string]dwarf.Aggregate, error) {
	key := qcache.KeyGroupBy(dim, sels)
	if s.cache != nil {
		if v, ok := s.cache.GetResult(key, gen); ok {
			return v.(map[string]dwarf.Aggregate), nil
		}
	}
	groups, err := s.mergedGroups(st, dim, sels, key)
	if err != nil {
		return nil, err
	}
	if s.cache != nil {
		s.cache.PutResult(key, groups, gen, qcache.SizeOfGroupMap(groups))
	}
	return groups, nil
}

// mergedGroups computes a GroupBy through the planner: cached partials for
// immutable targets, a fresh walk for the rest plus the frozen and live
// memtables, all merged in deterministic target order (rollup, then
// uncovered segments oldest-first, then frozen memtables oldest-first, then
// live) into a fresh map. Frozen memtables are recomputed like the live one
// — they have no backing file to key never-stale partials on, and they
// disappear into a segment shortly anyway.
func (s *Store) mergedGroups(st *storeState, dim int, sels []dwarf.Selector, qkey string) (map[string]dwarf.Aggregate, error) {
	live, err := st.mem.Cube()
	if err != nil {
		return nil, err
	}
	memCubes, err := memtableCubes(st, live)
	if err != nil {
		return nil, err
	}
	targets, viaRollup := s.planTargets(st, []int{dim}, sels)
	if viaRollup {
		s.rollupHits.Add(1)
	}
	parts := make([]map[string]dwarf.Aggregate, len(targets)+len(memCubes))
	missing := make([]int, 0, len(parts))
	for i := range targets {
		if s.cache != nil {
			if v, ok := s.cache.GetPartial(targets[i].file + "|" + qkey); ok {
				parts[i] = v.(map[string]dwarf.Aggregate)
				continue
			}
		}
		missing = append(missing, i)
	}
	for i := range memCubes { // memtables: always recomputed
		missing = append(missing, len(targets)+i)
	}
	err = runIndexed(len(missing), func(k int) error {
		i := missing[k]
		if i >= len(targets) {
			m, err := memCubes[i-len(targets)].GroupBy(dim, sels)
			parts[i] = m
			return err
		}
		pt := &targets[i]
		m, err := pt.view.GroupBy(pt.dims[0], pt.sels)
		if err != nil {
			return err
		}
		if s.cache != nil {
			s.cache.PutPartial(pt.file+"|"+qkey, m, qcache.SizeOfGroupMap(m))
		}
		parts[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dwarf.MergeGroupMaps(make(map[string]dwarf.Aggregate), parts...), nil
}

// memtableCubes lists the snapshot's always-recomputed fan-out tail: every
// frozen memtable's cube, oldest first, then the live cube.
func memtableCubes(st *storeState, live *dwarf.Cube) ([]*dwarf.Cube, error) {
	out := make([]*dwarf.Cube, 0, len(st.frozen)+1)
	for _, fz := range st.frozen {
		c, err := fz.mem.Cube()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return append(out, live), nil
}

func (s *Store) pivotPlanned(st *storeState, gen uint64, dims []int, sels []dwarf.Selector) ([]dwarf.PivotGroup, error) {
	key := qcache.KeyPivot(dims, sels)
	if s.cache != nil {
		if v, ok := s.cache.GetResult(key, gen); ok {
			return v.([]dwarf.PivotGroup), nil
		}
	}
	rows, err := s.mergedPivot(st, dims, sels, key)
	if err != nil {
		return nil, err
	}
	if s.cache != nil {
		s.cache.PutResult(key, rows, gen, qcache.SizeOfPivotRows(rows))
	}
	return rows, nil
}

// mergedPivot is mergedGroups for the multi-dimension shape.
func (s *Store) mergedPivot(st *storeState, dims []int, sels []dwarf.Selector, qkey string) ([]dwarf.PivotGroup, error) {
	live, err := st.mem.Cube()
	if err != nil {
		return nil, err
	}
	memCubes, err := memtableCubes(st, live)
	if err != nil {
		return nil, err
	}
	targets, viaRollup := s.planTargets(st, dims, sels)
	if viaRollup {
		s.rollupHits.Add(1)
	}
	parts := make([][]dwarf.PivotGroup, len(targets)+len(memCubes))
	missing := make([]int, 0, len(parts))
	for i := range targets {
		if s.cache != nil {
			if v, ok := s.cache.GetPartial(targets[i].file + "|" + qkey); ok {
				parts[i] = v.([]dwarf.PivotGroup)
				continue
			}
		}
		missing = append(missing, i)
	}
	for i := range memCubes {
		missing = append(missing, len(targets)+i)
	}
	err = runIndexed(len(missing), func(k int) error {
		i := missing[k]
		if i >= len(targets) {
			rows, err := memCubes[i-len(targets)].Pivot(dims, sels)
			parts[i] = rows
			return err
		}
		pt := &targets[i]
		rows, err := pt.view.Pivot(pt.dims, pt.sels)
		if err != nil {
			return err
		}
		if s.cache != nil {
			s.cache.PutPartial(pt.file+"|"+qkey, rows, qcache.SizeOfPivotRows(rows))
		}
		parts[i] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dwarf.MergePivotGroups(parts...), nil
}

func (s *Store) topKPlanned(st *storeState, gen uint64, dim int, sels []dwarf.Selector, spec dwarf.TopKSpec) ([]dwarf.GroupEntry, error) {
	key := qcache.KeyTopK(dim, sels, spec)
	if s.cache != nil {
		if v, ok := s.cache.GetResult(key, gen); ok {
			return v.([]dwarf.GroupEntry), nil
		}
	}
	groups, err := s.groupsAt(st, gen, dim, sels)
	if err != nil {
		return nil, err
	}
	entries := dwarf.TopKFromGroups(groups, spec)
	if s.cache != nil {
		s.cache.PutResult(key, entries, gen, qcache.SizeOfEntries(entries))
	}
	return entries, nil
}
