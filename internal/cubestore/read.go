package cubestore

import (
	"runtime"
	"slices"
	"sync"

	"repro/internal/dwarf"
	"repro/internal/qcache"
	"repro/internal/query"
)

// The read path. The store implements every shape of the shared query
// surface (query.Querier) with one algorithm: lease a snapshot, plan its
// fan-out targets, run the unified kernel against each target, and merge
// the partial results in target order. Every target reads encoded bytes: a
// segment or rollup is a mapped CubeView, and a frozen or live memtable is
// its dwarf.Runs — the encoded runs its folds left, which the plan folds
// the memtable's unread tail into first. A memtable is one target however
// many runs it holds: its source walks them serially in run order and
// merges them exactly as the store merges segments, so the fan-out width
// stays segments plus memtables. Aggregate shapes merge with
// dwarf.MergeAggregates; keyed shapes merge per key (dwarf.MergeGroupMaps /
// dwarf.MergePivotGroups); TopK cuts only after every partial group is in,
// so a key that is small in every segment but large in total still ranks
// (docs/QUERY.md). The snapshot is immutable and leased, so a query runs
// lock-free while commits, seals and compactions swap the state underneath.
//
// The result cache and rollups are optional steps of the same plan:
//
//   - A covering rollup segment replaces the segments it summarizes in a
//     grouped shape's fan-out, with the query remapped to the rollup's
//     dimension subset.
//   - Per-target partials of grouped shapes are cached keyed by backing
//     file + query key. Segment and rollup files are immutable and their
//     names never reused, so these entries cannot go stale; memtable
//     partials are recomputed on every query.
//   - Full grouped results are cached stamped with the store generation
//     read BEFORE the lease. A write landing in between leaves the result
//     stamped older than the data it includes — at worst an unnecessary
//     recompute on the next lookup, never a stale hit: an acknowledged
//     append always bumps the generation after folding into the memtable,
//     so a matching stamp proves the cached answer reflects every
//     acknowledged write.
//
// Cached values are shared across callers and with the cache itself, so
// grouped results are read-only — callers that mutate a GroupBy map must
// copy it first. The contract is audited end-to-end: dwarf.TopKFromGroups
// only reads the map it ranks (TopK hands it the cache-shared GroupBy map
// directly), serve's paging only subslices cached []PivotGroup/[]GroupEntry
// results, and query.DrillDown — the one name-level API whose callers
// naturally mutate the result — copies before returning.
// TestPlannedPathSharedResultsRace in the serve package pins the whole
// surface under the race detector.

// target is one fan-out input: a segment or rollup view, or a frozen or
// live memtable's runs, and the backing file that keys its partials in the
// cache ("" for a memtable, whose partial is never cached). A rollup runs
// the query remapped to its own dimensions.
type target struct {
	src  query.Querier
	file string
	// remap is the rollup's query; nil runs the query as given. A pointer
	// keeps the common target small: every Point plans a slice of them.
	remap *groupArgs
}

// groupArgs is a grouped shape's arguments: the grouped dimensions (one for
// GroupBy and TopK) and one selector per dimension.
type groupArgs struct {
	dims []int
	sels []dwarf.Selector
}

// args returns the grouped dims and selectors t runs for the query's own.
func (t *target) args(dims []int, sels []dwarf.Selector) ([]int, []dwarf.Selector) {
	if t.remap != nil {
		return t.remap.dims, t.remap.sels
	}
	return dims, sels
}

// validGroupArgs mirrors the kernel's argument checks for grouping by dims
// under sels. Invalid queries skip rollup substitution, so the kernel
// reports its usual error.
func validGroupArgs(dims []int, sels []dwarf.Selector, ndims int) bool {
	if len(sels) != ndims || len(dims) == 0 {
		return false
	}
	for i, d := range dims {
		if d < 0 || d >= ndims || slices.Contains(dims[:i], d) {
			return false
		}
	}
	return true
}

// plan lists the fan-out targets of one query over the leased state st, in
// merge order: a covering rollup, then the segments it does not cover
// oldest-first, then the frozen memtables oldest-first, then the live
// memtable. grouped is the store dimensions a grouped shape groups by (nil
// for Point and Range); keys are Point's keys (nil for every other shape).
//
// Zone maps drop any rollup or segment that provably holds no selected
// tuple, unless Options.NoPrune. Dropping a target never changes the merged
// answer: an absent key contributes the zero Aggregate, and merging zero
// is identity. A rejected rollup means every covered segment's selected
// slice is empty. Memtables have no zone maps, are never pruned, and count
// in neither scan counter. Each memtable is one target, however many runs
// it holds.
func (s *Store) plan(st *storeState, grouped []int, sels []dwarf.Selector, keys []string) ([]target, error) {
	live, err := st.mem.Runs()
	if err != nil {
		return nil, err
	}
	ts := make([]target, 0, len(st.segs)+len(st.frozen)+1) // a rollup covers at least one segment
	pruned := 0
	// admit is the one zone-map admission test, for a rollup and the
	// segments alike.
	admit := func(t target, zones []dwarf.ZoneMap, sels []dwarf.Selector) {
		if s.opts.NoPrune || keys == nil && dwarf.ZonesAdmit(zones, sels) ||
			keys != nil && dwarf.ZonesAdmitPoint(zones, keys) {
			ts = append(ts, t)
		} else {
			pruned++
		}
	}
	var covered map[string]bool
	if grouped != nil && len(st.rollups) > 0 && validGroupArgs(grouped, sels, len(s.dims)) {
		if r := st.chooseRollup(grouped, sels); r != nil {
			s.rollupHits.Add(1)
			remap := &groupArgs{dims: make([]int, len(grouped)), sels: make([]dwarf.Selector, len(r.dimIdx))}
			for i, d := range grouped {
				remap.dims[i] = r.pos[d]
			}
			for j, d := range r.dimIdx {
				remap.sels[j] = sels[d]
			}
			admit(target{src: r.view, file: r.meta.File, remap: remap}, r.zones, remap.sels)
			covered = make(map[string]bool, len(r.meta.Covers))
			for _, f := range r.meta.Covers {
				covered[f] = true
			}
		}
	}
	for _, seg := range st.segs {
		if !covered[seg.meta.File] {
			admit(target{src: seg.view, file: seg.meta.File}, seg.zones, sels)
		}
	}
	if pruned > 0 {
		s.segsPruned.Add(int64(pruned))
	}
	s.segsScanned.Add(int64(len(ts)))
	for _, fz := range st.frozen {
		runs, err := fz.mem.Runs()
		if err != nil {
			return nil, err
		}
		ts = append(ts, target{src: runs})
	}
	return append(ts, target{src: live}), nil
}

// execute runs the targets' kernel walks through runIndexed and returns
// the parts in target order. With a cache and a cacheable shape
// (qkey != ""), file-backed targets read their partials from the cache,
// and the ones computed here are stored for the next query.
func execute[T any](s *Store, ts []target, qkey string, run func(*target) (T, error), size func(T) int64) ([]T, error) {
	parts := make([]T, len(ts))
	cached := s.cache != nil && qkey != ""
	var missing []int // indexes still to run; nil runs every target
	if cached {
		missing = make([]int, 0, len(ts))
		for i := range ts {
			if ts[i].file != "" {
				if v, ok := s.cache.GetPartial(ts[i].file + "|" + qkey); ok {
					parts[i] = v.(T)
					continue
				}
			}
			missing = append(missing, i)
		}
	}
	n := len(ts)
	if missing != nil {
		n = len(missing)
	}
	err := runIndexed(n, func(k int) (err error) {
		i := k
		if missing != nil {
			i = missing[k]
		}
		parts[i], err = run(&ts[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, i := range missing {
		if ts[i].file != "" {
			s.cache.PutPartial(ts[i].file+"|"+qkey, parts[i], size(parts[i]))
		}
	}
	return parts, nil
}

// runIndexed runs fn for every index in [0,n): serially for two or fewer
// or on one P, concurrently otherwise. Either way the error returned is
// the lowest-index one, so a failure reads the same at any parallelism.
func runIndexed(n int, fn func(int) error) error {
	if n <= 2 || runtime.GOMAXPROCS(0) == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cachedResult answers a grouped shape from the full-result cache when it
// holds key stamped gen, else computes it with the partial-cache key and
// stores it stamped gen. Without a cache it builds no key and only
// computes.
func cachedResult[T any](s *Store, gen uint64, key func() string, size func(T) int64, compute func(qkey string) (T, error)) (T, error) {
	if s.cache == nil {
		return compute("")
	}
	k := key()
	if v, ok := s.cache.GetResult(k, gen); ok {
		return v.(T), nil
	}
	res, err := compute(k)
	if err == nil {
		s.cache.PutResult(k, res, gen, size(res))
	}
	return res, err
}

// aggregate runs an aggregate shape (Point or Range) over a fresh lease.
func (s *Store) aggregate(sels []dwarf.Selector, keys []string, run func(*target) (dwarf.Aggregate, error)) (dwarf.Aggregate, error) {
	st, err := s.acquire()
	if err != nil {
		return dwarf.Aggregate{}, err
	}
	defer st.release()
	ts, err := s.plan(st, nil, sels, keys)
	if err != nil {
		return dwarf.Aggregate{}, err
	}
	parts, err := execute(s, ts, "", run, nil)
	if err != nil {
		return dwarf.Aggregate{}, err
	}
	var agg dwarf.Aggregate
	for _, p := range parts {
		agg = dwarf.MergeAggregates(agg, p)
	}
	return agg, nil
}

// Point answers a point/ALL query across every sealed segment and memtable,
// reflecting every acknowledged tuple. Segments whose zone maps exclude any
// bound key are pruned from the fan-out.
func (s *Store) Point(keys ...string) (dwarf.Aggregate, error) {
	return s.aggregate(nil, keys, func(t *target) (dwarf.Aggregate, error) { return t.src.Point(keys...) })
}

// Range aggregates the sub-cube addressed by one selector per dimension
// across segments and memtables, pruning segments whose zone maps prove the
// selection empty there.
func (s *Store) Range(sels []dwarf.Selector) (dwarf.Aggregate, error) {
	return s.aggregate(sels, nil, func(t *target) (dwarf.Aggregate, error) { return t.src.Range(sels) })
}

// GroupBy groups the dimension at index dim under the restriction of sels,
// merging per-key partial aggregates across a covering rollup, segments and
// memtables. The result may be shared with the cache: read-only.
func (s *Store) GroupBy(dim int, sels []dwarf.Selector) (map[string]dwarf.Aggregate, error) {
	gen := s.gen.Load() // before the lease: see the notes at the top
	st, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer st.release()
	return s.groupsAt(st, gen, dim, sels)
}

// groupsAt is GroupBy over the leased state st, stamped gen. TopK reuses
// it, so a TopK miss also warms the GroupBy entry and vice versa.
func (s *Store) groupsAt(st *storeState, gen uint64, dim int, sels []dwarf.Selector) (map[string]dwarf.Aggregate, error) {
	key := func() string { return qcache.KeyGroupBy(dim, sels) }
	return cachedResult(s, gen, key, qcache.SizeOfGroupMap, func(qkey string) (map[string]dwarf.Aggregate, error) {
		grouped := []int{dim}
		ts, err := s.plan(st, grouped, sels, nil)
		if err != nil {
			return nil, err
		}
		parts, err := execute(s, ts, qkey, func(t *target) (map[string]dwarf.Aggregate, error) {
			dims, sels := t.args(grouped, sels)
			return t.src.GroupBy(dims[0], sels)
		}, qcache.SizeOfGroupMap)
		if err != nil {
			return nil, err
		}
		return dwarf.MergeGroupMaps(make(map[string]dwarf.Aggregate), parts...), nil
	})
}

// Pivot is the multi-dimension GroupBy: per-target sorted rows are merged
// per key tuple, so the result is exactly a single cube's Pivot over all
// acknowledged tuples.
func (s *Store) Pivot(dims []int, sels []dwarf.Selector) ([]dwarf.PivotGroup, error) {
	gen := s.gen.Load()
	st, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer st.release()
	key := func() string { return qcache.KeyPivot(dims, sels) }
	return cachedResult(s, gen, key, qcache.SizeOfPivotRows, func(qkey string) ([]dwarf.PivotGroup, error) {
		ts, err := s.plan(st, dims, sels, nil)
		if err != nil {
			return nil, err
		}
		parts, err := execute(s, ts, qkey, func(t *target) ([]dwarf.PivotGroup, error) {
			return t.src.Pivot(t.args(dims, sels))
		}, qcache.SizeOfPivotRows)
		if err != nil {
			return nil, err
		}
		return dwarf.MergePivotGroups(parts...), nil
	})
}

// TopK ranks the groups of the dimension at index dim. Partial group maps
// are merged before the threshold and K cut — a per-target cut would drop
// keys whose weight is spread across segments — so the ranking equals a
// single cube's over all acknowledged tuples.
func (s *Store) TopK(dim int, sels []dwarf.Selector, spec dwarf.TopKSpec) ([]dwarf.GroupEntry, error) {
	gen := s.gen.Load()
	st, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer st.release()
	key := func() string { return qcache.KeyTopK(dim, sels, spec) }
	return cachedResult(s, gen, key, qcache.SizeOfEntries, func(string) ([]dwarf.GroupEntry, error) {
		groups, err := s.groupsAt(st, gen, dim, sels)
		if err != nil {
			return nil, err
		}
		return dwarf.TopKFromGroups(groups, spec), nil
	})
}

// The store serves the full shared query surface.
var _ query.Querier = (*Store)(nil)
