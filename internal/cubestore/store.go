// Package cubestore is the live layer over the DWARF cube pipeline: an
// LSM-of-cubes that makes ingestion durable and continuously queryable.
// Concurrent Append callers enqueue validated batches into a commit queue;
// a single committer goroutine group-commits the queue — every pending
// record written, one fsync for all of them — then appends each batch to
// the in-memory dwarf.Incremental memtable, a buffer whose cube is built
// only when first needed, and releases the waiters. When the memtable
// reaches a size or age threshold it is frozen: a fresh memtable and a
// rotated WAL generation are swapped in atomically and the frozen
// (memtable, generation) pair is handed to a background sealer that builds
// and encodes it into an immutable v2 cube segment file and drops the
// covered WAL generations; a background compactor merges small sealed
// segments into larger ones with dwarf.MergeViews, leveled by tuple count,
// committing each transition by atomically swapping the segment manifest.
// Queries fan out across every sealed segment's zero-copy CubeView, every
// frozen memtable awaiting its seal, and the live memtable cube, and merge
// the partial aggregates, so answers always reflect every acknowledged
// tuple.
//
// Recovery invariants (docs/STORE.md spells out the full state machine):
// an acknowledged tuple lives in exactly one of {a manifest-listed segment,
// a live WAL generation} — a frozen memtable is the in-memory image of one
// or more still-live WAL generations, so it adds no third durable home;
// segment files the manifest does not list and WAL generations below the
// manifest's WALGen are garbage and are deleted on open; a torn WAL tail
// is discarded because its batch was never acknowledged.
package cubestore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dwarf"
	"repro/internal/qcache"
	"repro/internal/query"
)

// Defaults for Options' zero values.
const (
	DefaultSealTuples    = 16384
	DefaultCompactFanout = 4
	DefaultMaxFrozen     = 4
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("cubestore: store is closed")

// Options configures Open.
type Options struct {
	// Dims is the cube dimension list. Required when the directory has no
	// manifest yet; on reopen it may be nil (the manifest's list is used)
	// or must match the manifest.
	Dims []string
	// SealTuples seals the memtable into a segment once it holds this many
	// tuples (DefaultSealTuples when 0).
	SealTuples int
	// SealAge seals a non-empty memtable this long after its first append,
	// so a slow feed still becomes a durable segment. 0 disables age seals.
	SealAge time.Duration
	// CompactFanout is both the merge width and the leveling base: level n
	// holds segments of [SealTuples·F^n, SealTuples·F^(n+1)) tuples, and a
	// level reaching F segments is compacted into one at level n+1
	// (DefaultCompactFanout when 0).
	CompactFanout int
	// DisableAutoCompact turns the background compactor off; Compact still
	// works when called explicitly. Differential tests use this to drive
	// arbitrary interleavings.
	DisableAutoCompact bool
	// NoSync skips the per-Append fsync. Throughput tests only: a crash may
	// lose acknowledged tuples.
	NoSync bool
	// Workers shards memtable builds (dwarf.WithWorkers).
	Workers int
	// CubeOptions are extra construction options (ablation switches)
	// applied to every memtable build and seal.
	CubeOptions []dwarf.Option
	// CacheBytes bounds the hot-result query cache (internal/qcache): full
	// GroupBy/Pivot/TopK answers stamped with the store generation, plus
	// never-stale per-segment partials. 0 disables caching.
	CacheBytes int64
	// Rollups configures pre-aggregated rollup segments: each entry names a
	// dimension subset the compactor maintains a summary cube for, and
	// grouped queries touching only those dimensions route through the
	// smallest covering rollup instead of every sealed segment.
	Rollups [][]string
	// NoPrune disables zone-map pruning: every query fans out to every
	// sealed segment regardless of its zone maps. Differential tests use it
	// to hold the pruned and unpruned paths to identical answers.
	NoPrune bool
	// MaxFrozen bounds the frozen-memtable queue (DefaultMaxFrozen when 0):
	// when the live memtable is full and this many frozen memtables already
	// await the background sealer, commits wait for a seal to free a slot
	// instead of growing memory without limit.
	MaxFrozen int
}

func (o Options) withDefaults() Options {
	if o.SealTuples <= 0 {
		o.SealTuples = DefaultSealTuples
	}
	if o.CompactFanout < 2 {
		o.CompactFanout = DefaultCompactFanout
	}
	if o.MaxFrozen <= 0 {
		o.MaxFrozen = DefaultMaxFrozen
	}
	return o
}

// cubeOptions is the option list for every cube the store builds.
func (o Options) cubeOptions() []dwarf.Option {
	opts := append([]dwarf.Option(nil), o.CubeOptions...)
	if o.Workers > 1 {
		opts = append(opts, dwarf.WithWorkers(o.Workers))
	}
	return opts
}

// segment is one sealed, immutable cube segment: its manifest entry, its
// mapped file (kept mapped by the states listing it, so readers holding a
// lease stay valid after compaction deletes the file; see lease.go) and
// the zero-copy view over it.
type segment struct {
	meta segmentMeta
	file *mappedFile
	view *dwarf.CubeView
	// zones are the segment's per-dimension zone maps: the manifest entry's
	// copy when present, else the view's own (v3 streams), else nil — and a
	// nil slice admits every query, so old segments are always scanned.
	zones []dwarf.ZoneMap
}

// frozenMem is a memtable that reached its seal threshold and was swapped
// out of the write path: immutable in content (no more appends), still fully
// queryable, and still covered by its WAL generations until the background
// sealer lands it as a segment. walGenHi is the highest WAL generation
// holding its tuples; the seal that commits it advances the manifest's
// WALGen to walGenHi+1, making those generations dead.
type frozenMem struct {
	mem      *dwarf.Incremental
	count    int
	walGenHi uint64
}

// storeState is the immutable read snapshot queries fan out over. The
// memtable pointers are shared with the writer — Incremental is internally
// locked and its standing cube immutable, so readers of an old snapshot
// keep a complete view while a seal installs the next one. Frozen memtables
// sit between the sealed segments and the live memtable in fan-out order:
// when one seals, its cube moves to the end of segs and off the front of
// frozen, so the merge order of every tuple is stable across the
// transition.
//
// refs counts the store's own reference plus one per reader lease; the
// state's segment and rollup files stay mapped while it is non-zero.
type storeState struct {
	refs    atomic.Int64
	segs    []*segment
	rollups []*rollupSeg
	frozen  []*frozenMem
	mem     *dwarf.Incremental
}

// Store is a WAL-backed live cube store. All methods are safe for
// concurrent use. Queries never take the store's writer lock — they read
// an atomic snapshot. Appends only buffer tuples in the memtable; its cube
// is built by the first query that reads it or, when no query does, once
// by the sealer. So a query that finds unfolded memtable tuples folds them
// itself, and in the worst case (a full memtable no query has read yet) it
// waits for one build of at most SealTuples tuples — about 0.13 s for
// 16,384 bike tuples at ~8 µs a tuple. Concurrent queries and the seal of
// that memtable wait for the same build instead of repeating it; appends
// and compactions never wait for a query's build.
//
// Appends do not take mu either: they enqueue onto the commit queue and a
// single committer goroutine holds mu across each group commit. Only the
// committer, the sealer, compaction manifest swaps, and Stats/TotalTuples
// take mu.
type Store struct {
	dir  string
	opts Options
	// dims is the immutable dimension list (a copy of the manifest's),
	// readable without holding mu.
	dims []string

	// lock is the exclusive directory lock held for the store's lifetime.
	lock *dirLock

	// qmu guards the commit queue. Append enqueues under qmu and blocks on
	// its request's done channel; the committer drains the whole queue in
	// one swap and commits it as a group under mu. qmu is never held
	// together with mu.
	qmu     sync.Mutex
	qcond   *sync.Cond
	queue   []*commitReq
	qclosed bool

	// mu serializes state writers: the committer, freezes, seal and
	// compaction manifest swaps.
	mu     sync.Mutex
	closed bool
	// fatalErr, once set, disables Append: the WAL and memtable may have
	// diverged (a record reached the file but its write errored, so the
	// batch was never acknowledged yet would replay). A seal that advances
	// the manifest's WALGen past fatalGen clears it — sealing rotates away
	// from and deletes the suspect generation, re-grounding disk state on
	// the memtable's contents.
	fatalErr error
	fatalGen uint64
	wal      *wal
	mem      *dwarf.Incremental
	memCount int
	memSince time.Time
	// frozen is the FIFO queue of memtables awaiting the background sealer,
	// oldest first; its length is bounded by Options.MaxFrozen via commit
	// backpressure.
	frozen []*frozenMem
	// sealAborted, once set (mu held), halts the frozen queue: a seal
	// failed during or after its manifest write, so whether it committed
	// is unknown, and re-running it could list the memtable's segment
	// twice. The store stays consistent, queryable and appendable — the
	// frozen tuples are served from memory and still WAL-covered if the
	// swap didn't land — and the next open resolves which outcome
	// happened from the manifest. Failures before the manifest write
	// (build, encode, segment write) commit nothing and stay retryable.
	sealAborted error
	man         manifest
	segs        []*segment
	rollups     []*rollupSeg

	// state is the current read snapshot (nil once Close retires it).
	// mappings counts segment and rollup files currently mapped: listed
	// ones, plus replaced ones a reader lease still holds.
	state    atomic.Pointer[storeState]
	mappings atomic.Int64

	// gen is the store's visible-state generation: it starts from the
	// manifest's persisted value and is bumped on every visible transition
	// (append, seal, compaction, rollup swap). Writers bump it under mu;
	// queries read it lock-free to stamp and validate cached results.
	gen atomic.Uint64

	// cache holds hot query results and per-segment partials (nil when
	// Options.CacheBytes is 0). rollupSpecs is the normalized form of
	// Options.Rollups, fixed at Open.
	cache       *qcache.Cache
	rollupSpecs []rollupSpec
	rollupHits  atomic.Int64

	// segsScanned / segsPruned count sealed and rollup fan-out targets that
	// queries actually ran versus targets dropped because their zone maps
	// proved no selected tuple could match. The live memtable is counted in
	// neither — it is never pruned.
	segsScanned atomic.Int64
	segsPruned  atomic.Int64

	// compactMu serializes compactions (background loop and explicit
	// Compact calls); sealMu serializes seals (the background sealer and
	// explicit Seal calls draining the frozen queue). Neither is ever held
	// together with mu, and they are never held together.
	compactMu sync.Mutex
	sealMu    sync.Mutex

	kick chan struct{}
	// sealKick wakes the background sealer: sent on every freeze and
	// whenever the committer sees frozen memtables pending (which retries a
	// previously failed seal under ingest pressure).
	sealKick chan struct{}
	// frozenFreed is signalled each time a seal commits, waking commits
	// blocked on MaxFrozen backpressure.
	frozenFreed chan struct{}
	closing     chan struct{}
	bg          sync.WaitGroup

	seals       atomic.Int64
	compactions atomic.Int64
	appended    atomic.Int64

	// groupCommits counts committer rounds (each is at most one fsync);
	// fsyncsSaved counts synced batches that shared a group leader's fsync
	// instead of issuing their own, so groupCommits + fsyncsSaved equals
	// the number of acked synced batches. frozenTotal counts lifetime
	// freezes.
	groupCommits atomic.Int64
	fsyncsSaved  atomic.Int64
	frozenTotal  atomic.Int64

	// dirSyncErrs counts failed directory syncs after post-commit file
	// deletions (dead WAL gens, replaced rollups). Not fatal — the orphans
	// are re-deleted on the next open — but surfaced in Stats rather than
	// dropped. errMu guards lastDirSyncErr (writers hold varying locks).
	dirSyncErrs    atomic.Int64
	errMu          sync.Mutex
	lastDirSyncErr string

	// streamingCompacts / fallbackCompacts split compactions by merge path,
	// so a store silently living on the decode fallback is visible in Stats.
	streamingCompacts atomic.Int64
	fallbackCompacts  atomic.Int64

	// disableStreamingCompact forces the decode+MergeAll fallback; tests use
	// it to hold both compaction paths to the same answers.
	disableStreamingCompact bool

	// orphansRemoved counts files deleted by recovery at Open; recovery
	// tests assert interrupted seals and compactions leave nothing behind.
	orphansRemoved int

	// lastSealErr / lastCompactErr record the most recent background seal
	// or compaction failure (mu held) so a store whose maintenance has
	// stopped working is visible in Stats instead of failing silently.
	lastSealErr    string
	lastCompactErr string

	// failpoint, when set by tests (setFailpoint), is called at named commit
	// points; an error aborts the operation there, leaving the on-disk state
	// exactly as a crash at that point would. The in-memory store is then
	// poisoned and must be dropped via crashClose. Atomic because the
	// background sealer reads it while tests swap it mid-run.
	failpoint atomic.Pointer[func(name string) error]
}

// Failpoint names, in commit order.
const (
	fpCommitWrite            = "commit:write"
	fpSealBuilt              = "seal:built"
	fpSealSegmentWritten     = "seal:segment-written"
	fpSealManifestSwapped    = "seal:manifest-swapped"
	fpCompactSegmentWritten  = "compact:segment-written"
	fpCompactManifestSwapped = "compact:manifest-swapped"
)

func (s *Store) fail(name string) error {
	fp := s.failpoint.Load()
	if fp == nil {
		return nil
	}
	return (*fp)(name)
}

// setFailpoint installs (or with nil clears) the test failpoint hook.
func (s *Store) setFailpoint(fn func(name string) error) {
	if fn == nil {
		s.failpoint.Store(nil)
		return
	}
	s.failpoint.Store(&fn)
}

// Open opens (creating if needed) the store rooted at dir: it loads the
// manifest, deletes orphaned segment and dead WAL files, opens a view over
// every live segment, replays live WAL generations into a fresh memtable,
// rotates to a new WAL generation and starts the background compactor.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := acquireDirLock(dir)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			lock.release()
		}
	}()
	man, found, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	if !found {
		if len(opts.Dims) == 0 {
			return nil, errors.New("cubestore: new store needs Options.Dims")
		}
		// A directory holding segment or WAL files without a manifest is a
		// damaged store, not a fresh one — initializing would make
		// removeOrphans wipe it. Refuse, like openSegments refuses a
		// missing listed segment.
		if err := refuseStoreFilesWithoutManifest(dir); err != nil {
			return nil, err
		}
		man = manifest{
			Version: manifestVersion,
			Dims:    append([]string(nil), opts.Dims...),
		}
		// Commit the initial manifest immediately: everything after this
		// point (WAL creation included) assumes the manifest is the root
		// of truth on disk.
		if err := writeManifest(dir, man); err != nil {
			return nil, err
		}
	} else if len(opts.Dims) > 0 && !sameDims(opts.Dims, man.Dims) {
		return nil, fmt.Errorf("cubestore: store has dims %v, Options.Dims is %v", man.Dims, opts.Dims)
	}

	s := &Store{
		dir:         dir,
		opts:        opts,
		dims:        append([]string(nil), man.Dims...),
		lock:        lock,
		man:         man,
		kick:        make(chan struct{}, 1),
		sealKick:    make(chan struct{}, 1),
		frozenFreed: make(chan struct{}, 1),
		closing:     make(chan struct{}),
	}
	s.qcond = sync.NewCond(&s.qmu)
	s.gen.Store(man.Generation)
	if s.rollupSpecs, err = normalizeRollupSpecs(opts.Rollups, s.dims); err != nil {
		return nil, err
	}
	if opts.CacheBytes > 0 {
		s.cache = qcache.New(opts.CacheBytes)
	}
	defer func() {
		if !ok {
			// Nothing was published yet: the mappings are owned here.
			for _, seg := range s.segs {
				seg.file.unmap()
			}
			for _, r := range s.rollups {
				r.file.unmap()
			}
		}
	}()
	if err := s.removeOrphans(); err != nil {
		return nil, err
	}
	if err := s.openSegments(); err != nil {
		return nil, err
	}
	if err := s.openRollups(); err != nil {
		return nil, err
	}
	if err := s.recoverWAL(); err != nil {
		return nil, err
	}
	s.publish()
	s.bg.Add(3)
	go s.committer()
	go s.sealer()
	go s.background()
	ok = true
	return s, nil
}

// refuseStoreFilesWithoutManifest fails when dir already holds segment or
// WAL files but no manifest (lost or partially restored store).
func refuseStoreFilesWithoutManifest(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, isWAL := walGenOf(e.Name()); isSegFile(e.Name()) || isWAL {
			return fmt.Errorf("cubestore: %s contains store file %s but no %s — refusing to initialize over a damaged store",
				dir, e.Name(), manifestName)
		}
	}
	return nil
}

func sameDims(a, b []string) bool {
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

// removeOrphans deletes every file the manifest does not account for:
// segments from interrupted seals/compactions, rollups from interrupted
// rollup swaps, WAL generations already sealed, and temp files.
func (s *Store) removeOrphans() error {
	live := make(map[string]bool, len(s.man.Segments)+len(s.man.Rollups))
	for _, m := range s.man.Segments {
		live[m.File] = true
	}
	for _, m := range s.man.Rollups {
		live[m.File] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	removed := false
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		drop := false
		switch {
		case isStoreTempFile(name):
			drop = true
		case isSegFile(name), isRollupFile(name):
			drop = !live[name]
		default:
			if gen, ok := walGenOf(name); ok {
				drop = gen < s.man.WALGen
			}
		}
		if drop {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return err
			}
			s.orphansRemoved++
			removed = true
		}
	}
	if removed {
		return fsyncDir(s.dir)
	}
	return nil
}

// openSegments maps and fully validates every manifest-listed segment. A
// listed segment that is missing or corrupt is real data loss, so Open
// fails loudly rather than serving partial answers.
func (s *Store) openSegments() error {
	for _, m := range s.man.Segments {
		f, err := s.openCubeFile("segment", m.File, true)
		if err != nil {
			return err
		}
		zones := m.Zones
		if len(zones) != len(s.dims) {
			zones = f.vf.ZoneMaps()
		}
		s.segs = append(s.segs, &segment{meta: m, file: f, view: f.vf.CubeView, zones: zones})
	}
	return nil
}

// recoverWAL replays every live WAL generation, oldest first, into a fresh
// memtable, then rotates to a new generation so appends never extend a file
// that may end in a torn record.
func (s *Store) recoverWAL() error {
	mem, err := dwarf.NewIncremental(s.dims, s.opts.cubeOptions()...)
	if err != nil {
		return err
	}
	s.mem = mem
	gens, err := listWALGens(s.dir)
	if err != nil {
		return err
	}
	active := s.man.WALGen
	for _, gen := range gens {
		if gen < s.man.WALGen {
			continue // removed as orphan already; defensive
		}
		err := replayWAL(walPath(s.dir, gen), func(tuples []dwarf.Tuple) error {
			s.memCount += len(tuples)
			return mem.AddBatch(tuples)
		})
		if err != nil {
			return fmt.Errorf("cubestore: replaying %s: %w", walPath(s.dir, gen), err)
		}
		if gen >= active {
			active = gen + 1
		}
	}
	if s.memCount > 0 {
		s.memSince = time.Now()
	}
	s.wal, err = openWAL(s.dir, active)
	if err != nil {
		return err
	}
	return fsyncDir(s.dir)
}

// publish installs the current segments + rollups + memtable as the read
// snapshot and bumps the generation: every visible transition (seal,
// compaction, rollup swap, plus Append bumping directly) invalidates
// generation-stamped cached results. The new state takes a reference on
// each of its files before the old state is retired, so a file listed by
// both stays mapped. Callers hold mu (or are still single-goroutine in
// Open).
func (s *Store) publish() {
	segs := make([]*segment, len(s.segs))
	copy(segs, s.segs)
	rollups := make([]*rollupSeg, len(s.rollups))
	copy(rollups, s.rollups)
	frozen := make([]*frozenMem, len(s.frozen))
	copy(frozen, s.frozen)
	st := &storeState{segs: segs, rollups: rollups, frozen: frozen, mem: s.mem}
	st.refs.Store(1)
	for _, seg := range st.segs {
		seg.file.retain()
	}
	for _, r := range st.rollups {
		r.file.retain()
	}
	s.retire(st)
	s.gen.Add(1)
}

// Generation returns the store's visible-state generation: a monotonic
// counter bumped on every append, seal, compaction and rollup swap, and
// persisted in the manifest across reopens. Two equal readings with no
// bump in between guarantee the store answered identically throughout.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// Dims returns the store's dimension names in order.
func (s *Store) Dims() []string { return append([]string(nil), s.dims...) }

// NumDims returns the number of dimensions.
func (s *Store) NumDims() int { return len(s.dims) }

// commitReq is one Append waiting in the commit queue: its validated batch,
// the pre-framed WAL record (encoded by the caller, off the serial path),
// and the channel the committer acks on.
type commitReq struct {
	tuples []dwarf.Tuple
	rec    []byte
	done   chan error
}

// Append validates and durably logs one batch, then appends it to the live
// memtable's buffer — when Append returns, every tuple is crash-safe
// (unless NoSync) and visible to queries. Concurrent Appends are
// group-committed: the committer goroutine writes every queued record and
// issues one fsync for the whole group, so N concurrent writers share a
// single disk flush instead of serializing N of them. Reaching the seal
// threshold freezes the memtable for the background sealer; the ack never
// waits on a seal or a cube build.
func (s *Store) Append(tuples []dwarf.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	// Validate before the WAL write with dwarf.New's own rules (the same
	// ValidateTuple the builder applies), so a logged batch can never fail
	// to replay.
	for i, t := range tuples {
		if err := dwarf.ValidateTuple(t, len(s.dims)); err != nil {
			return fmt.Errorf("cubestore: tuple %d: %w", i, err)
		}
	}
	// Frame the WAL record here, outside any lock: CRC and encoding are the
	// CPU cost of a commit, and paying it per caller keeps the committer's
	// serial section down to write+fsync+buffer append.
	bp := walRecPool.Get().(*[]byte)
	rec := appendWALRecord(*bp, tuples)
	*bp = rec
	if len(rec)-8 > maxWALRecord {
		// Size check fires before any byte is written: plain rejection.
		walRecPool.Put(bp)
		return fmt.Errorf("%w (%d bytes)", ErrBatchTooLarge, len(rec)-8)
	}
	req := &commitReq{tuples: tuples, rec: rec, done: make(chan error, 1)}
	s.qmu.Lock()
	if s.qclosed {
		s.qmu.Unlock()
		walRecPool.Put(bp)
		return ErrClosed
	}
	s.queue = append(s.queue, req)
	s.qcond.Signal()
	s.qmu.Unlock()
	err := <-req.done
	walRecPool.Put(bp)
	return err
}

// committer is the single consumer of the commit queue: it drains every
// pending request in one swap and commits them as a group. Queue depth is
// naturally bounded — each Append has at most one request outstanding — so
// a group is at most one batch per concurrent writer.
func (s *Store) committer() {
	defer s.bg.Done()
	for {
		s.qmu.Lock()
		for len(s.queue) == 0 && !s.qclosed {
			s.qcond.Wait()
		}
		group := s.queue
		s.queue = nil
		closed := s.qclosed
		s.qmu.Unlock()
		if closed {
			// Requests still queued at Close were never committed: fail
			// them so no caller blocks forever.
			for _, r := range group {
				r.done <- ErrClosed
			}
			return
		}
		s.commitGroup(group)
	}
}

// commitGroup makes one group of batches durable and visible: every record
// written to the WAL, ONE fsync for all of them, then each batch appended
// to the memtable's buffer (no cube is built here), then the acks.
// Per-caller semantics are exactly those of the old serialized Append —
// when done receives nil, that batch is durable (unless NoSync) and
// visible to queries.
func (s *Store) commitGroup(group []*commitReq) {
	s.mu.Lock()
	// Backpressure: with the live memtable at its threshold and the frozen
	// queue at its bound, adding more would grow memory without limit.
	// Kick the sealer (retrying a previously failed seal, if that is what
	// backed the queue up) and wait for a slot; the poll interval makes the
	// retry loop self-driving even if a seal failure ate the kick.
	for !s.closed && s.sealAborted == nil && s.memCount >= s.opts.SealTuples && len(s.frozen) >= s.opts.MaxFrozen {
		s.kickSeal()
		s.mu.Unlock()
		select {
		case <-s.frozenFreed:
		case <-s.closing:
		case <-time.After(50 * time.Millisecond):
		}
		s.mu.Lock()
	}
	if s.closed {
		s.mu.Unlock()
		for _, r := range group {
			r.done <- ErrClosed
		}
		return
	}
	if s.fatalErr != nil {
		err := fmt.Errorf("cubestore: appends disabled until the next successful seal or reopen: %w", s.fatalErr)
		s.mu.Unlock()
		for _, r := range group {
			r.done <- err
		}
		return
	}
	if err := s.fail(fpCommitWrite); err != nil {
		// A crash with the group still queued: nothing written, nothing
		// acked. The callers see the failure and the WAL is untouched, so
		// none of these batches may surface after a reopen.
		s.mu.Unlock()
		for _, r := range group {
			r.done <- err
		}
		return
	}
	var werr error
	wrote := 0
	for _, r := range group {
		if werr = s.wal.writeRecord(r.rec); werr != nil {
			break
		}
		wrote++
	}
	if werr == nil && !s.opts.NoSync {
		werr = s.wal.sync()
	}
	if werr != nil {
		// Records may be partly or fully on disk without having been
		// acknowledged; accepting more appends (a client retry, say) into
		// the same generation could double-count them after a crash.
		s.fatalErr = werr
		s.fatalGen = s.wal.gen
		s.mu.Unlock()
		for _, r := range group {
			r.done <- werr
		}
		return
	}
	s.groupCommits.Add(1)
	if !s.opts.NoSync && wrote > 1 {
		s.fsyncsSaved.Add(int64(wrote - 1))
	}
	// Append each batch to the memtable. A failure poisons the store
	// (logged but not in the memtable: the generation must not be replayed
	// against this memtable's seals) and fails that batch and the rest of
	// the group; earlier batches are already durable and visible, so they
	// still ack.
	added := 0
	var addErr error
	for _, r := range group {
		if addErr = s.mem.AddBatch(r.tuples); addErr != nil {
			s.fatalErr = addErr
			s.fatalGen = s.wal.gen
			break
		}
		if s.memCount == 0 {
			s.memSince = time.Now()
		}
		s.memCount += len(r.tuples)
		s.appended.Add(int64(len(r.tuples)))
		added++
	}
	// The group is visible in the memtable; bump the generation so cached
	// results are recomputed. The bump happens after the appends and before
	// the acks, so a query that read the old generation either recomputes
	// (and sees a consistent snapshot) or serves a result from before the
	// batches were acknowledged — never a stale hit after an ack.
	if added > 0 {
		s.gen.Add(1)
	}
	if s.fatalErr == nil && s.memCount >= s.opts.SealTuples && len(s.frozen) < s.opts.MaxFrozen {
		// The batches are already durable and visible, so the acks must not
		// depend on the freeze: a failure (e.g. the new WAL generation could
		// not be opened) is recorded and retried on the next group, while
		// the tuples stay covered by the live WAL.
		if err := s.freezeLocked(); err != nil {
			s.lastSealErr = err.Error()
		}
	}
	if len(s.frozen) > 0 {
		s.kickSeal()
	}
	s.mu.Unlock()
	for i, r := range group {
		if i < added {
			r.done <- nil
		} else {
			r.done <- addErr
		}
	}
}

// freezeLocked retires the live memtable into the frozen queue and rotates
// the WAL: a fresh memtable and a new WAL generation are swapped in, and
// the frozen (memtable, generation-range) pair waits for the background
// sealer. Callers hold mu. Nothing is written or deleted here — the frozen
// tuples stay covered by their (now idle) WAL generations until the seal
// commits, so a crash at any point replays them.
func (s *Store) freezeLocked() error {
	if s.memCount == 0 {
		return nil
	}
	mem, err := dwarf.NewIncremental(s.dims, s.opts.cubeOptions()...)
	if err != nil {
		return err
	}
	nw, err := openWAL(s.dir, s.wal.gen+1)
	if err != nil {
		return err
	}
	fz := &frozenMem{mem: s.mem, count: s.memCount, walGenHi: s.wal.gen}
	// A close error here is not data loss: the frozen memtable holds every
	// acked tuple and the seal re-grounds disk state on it. (With NoSync a
	// lost buffered record was already inside the NoSync crash window.)
	s.wal.close()
	s.wal = nw
	s.mem = mem
	s.memCount = 0
	s.memSince = time.Time{}
	s.frozen = append(s.frozen, fz)
	s.frozenTotal.Add(1)
	s.publish()
	s.kickSeal()
	return nil
}

func (s *Store) kickSeal() {
	select {
	case s.sealKick <- struct{}{}:
	default:
	}
}

// Seal forces every buffered tuple into sealed segments now: the live
// memtable is frozen (no-op when empty) and the frozen queue drained
// synchronously. Safe alongside concurrent appends and the background
// sealer.
func (s *Store) Seal() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	err := s.freezeLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = s.drainFrozen()
	return err
}

// sealer is the background half of the freeze/seal split: each kick drains
// the frozen queue. A failed seal is recorded in lastSealErr and the entry
// stays at the front of the queue; the retry rides the next kick (a new
// freeze, an explicit Seal, commit backpressure, or an age tick).
func (s *Store) sealer() {
	defer s.bg.Done()
	for {
		select {
		case <-s.closing:
			return
		case <-s.sealKick:
		}
		if n, err := s.drainFrozen(); err == nil && n > 0 {
			// New segments may have made a compaction level full.
			select {
			case s.kick <- struct{}{}:
			default:
			}
		}
	}
}

// drainFrozen seals frozen memtables oldest-first until the queue is empty
// or a seal fails, returning how many sealed. sealMu makes it safe to call
// from both the background sealer and explicit Seal. FIFO order is what
// keeps the manifest's WALGen monotonic: each commit advances it to the
// sealed memtable's walGenHi+1.
func (s *Store) drainFrozen() (int, error) {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	sealed := 0
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return sealed, ErrClosed
		}
		if err := s.sealAborted; err != nil {
			s.mu.Unlock()
			return sealed, err
		}
		if len(s.frozen) == 0 {
			s.mu.Unlock()
			return sealed, nil
		}
		fz := s.frozen[0]
		s.mu.Unlock()
		if err := s.sealFrozen(fz); err != nil {
			if !errors.Is(err, ErrClosed) {
				s.mu.Lock()
				s.lastSealErr = err.Error()
				s.mu.Unlock()
			}
			return sealed, err
		}
		sealed++
	}
}

// sealFrozen turns one frozen memtable into a durable segment. Commit order
// — segment file, then manifest, then WAL deletion — is what recovery leans
// on: before the manifest swap the tuples are still covered by live WAL
// generations and the segment file is an orphan; after it, the WAL
// generations are dead. The expensive build runs without mu, so commits and
// queries proceed; only the id reservation and the manifest swap take the
// lock. The in-memory swap happens only once the on-disk state is fully
// committed, so any earlier error leaves a consistent store with the entry
// still frozen and still WAL-covered.
func (s *Store) sealFrozen(fz *frozenMem) error {
	cube, err := fz.mem.Cube()
	if err != nil {
		return err
	}
	if err := s.fail(fpSealBuilt); err != nil {
		return err
	}
	// Reserve the output id so a compaction racing with this seal cannot
	// allocate the same segment file name; the reservation is persisted by
	// whichever manifest swap commits first.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	id := s.man.NextSegID
	s.man.NextSegID++
	s.mu.Unlock()
	seg, err := s.writeSegment(segFileName(id), fz.count, cube.EncodeIndexed)
	if err != nil {
		return err
	}
	published := false
	defer func() {
		if !published {
			seg.file.unmap()
		}
	}()
	meta := seg.meta
	if err := s.fail(fpSealSegmentWritten); err != nil {
		return err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	newGen := fz.walGenHi + 1
	newMan := s.man.clone()
	if newMan.NextSegID <= id {
		newMan.NextSegID = id + 1
	}
	if newGen > newMan.WALGen {
		newMan.WALGen = newGen
	}
	newMan.Segments = append(newMan.Segments, meta)
	// publish() below bumps the in-memory generation to exactly this value;
	// persisting it keeps the sequence monotonic across reopens.
	newMan.Generation = s.gen.Load() + 1
	// Past this point a failure is indeterminate — the rename may or may
	// not have landed — so it latches sealAborted instead of retrying (see
	// the field comment for why both outcomes stay consistent).
	if err := writeManifest(s.dir, newMan); err != nil {
		s.sealAborted = err
		s.mu.Unlock()
		return err
	}
	if err := s.fail(fpSealManifestSwapped); err != nil {
		s.sealAborted = err
		s.mu.Unlock()
		return err
	}

	// On-disk state is committed; swap in-memory state. The sealed memtable
	// is frozen[0] (FIFO), so appending its segment and popping the front
	// keeps every tuple's position in the fan-out order unchanged.
	s.man = newMan
	s.segs = append(s.segs, seg)
	s.frozen[0] = nil // the popped slot would keep the sealed memtable reachable
	s.frozen = s.frozen[1:]
	if s.fatalErr != nil && newGen > s.fatalGen {
		// The suspect generation is now dead and about to be deleted; disk
		// state is re-grounded on what the memtables held.
		s.fatalErr = nil
	}
	s.publish()
	published = true
	s.seals.Add(1)
	s.lastSealErr = ""
	s.mu.Unlock()
	select {
	case s.frozenFreed <- struct{}{}:
	default:
	}

	// Drop the dead WAL generations. A failed directory sync here is
	// surfaced in Stats but is not data loss: the deletions are of dead
	// files, and any that survive a crash are re-deleted on the next open.
	if gens, err := listWALGens(s.dir); err == nil {
		removed := false
		for _, gen := range gens {
			if gen < newMan.WALGen {
				os.Remove(walPath(s.dir, gen))
				removed = true
			}
		}
		if removed {
			s.noteDirSync(fsyncDir(s.dir))
		}
	}
	return nil
}

// noteDirSync records a failed directory sync (nil is a no-op): counted and
// kept in Stats so a store whose metadata flushes are failing is visible.
func (s *Store) noteDirSync(err error) {
	if err == nil {
		return
	}
	s.dirSyncErrs.Add(1)
	s.errMu.Lock()
	s.lastDirSyncErr = err.Error()
	s.errMu.Unlock()
}

// writeSegment streams one new segment file through encode, maps it, and
// reads its zone maps back from the mapped view. The segment is not yet
// listed or published: on any later failure the caller unmaps it, and the
// file is an orphan the next Open removes.
func (s *Store) writeSegment(name string, tuples int, encode func(io.Writer) error) (*segment, error) {
	f, err := s.writeCubeFile("segment", name, encode)
	if err != nil {
		return nil, err
	}
	zones := f.vf.ZoneMaps()
	return &segment{
		meta: segmentMeta{File: name, Tuples: tuples, Zones: zones},
		file: f, view: f.vf.CubeView, zones: zones,
	}, nil
}

// background runs age-based seals and auto-compaction until Close.
func (s *Store) background() {
	defer s.bg.Done()
	var tick <-chan time.Time
	if s.opts.SealAge > 0 {
		// SealAge/2 truncates to 0 for SealAge == 1ns and NewTicker panics
		// on non-positive intervals; clamp to a floor that still fires well
		// within any human-scale SealAge.
		interval := s.opts.SealAge / 2
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.closing:
			return
		case <-s.kick:
			// A kick can arrive long after the last tick (e.g. a seal from a
			// burst of appends); an aged memtable must not wait another half
			// SealAge behind it.
			s.sealIfAged()
			s.compactBackground()
		case <-tick:
			s.sealIfAged()
			s.compactBackground()
		}
	}
}

// compactBackground runs auto-compaction, recording rather than returning
// failures — a store whose maintenance is stuck must stay queryable and
// appendable, but visibly so (Stats.LastCompactError).
func (s *Store) compactBackground() {
	if s.opts.DisableAutoCompact {
		return
	}
	if _, err := s.Compact(); err != nil && !errors.Is(err, ErrClosed) {
		s.mu.Lock()
		s.lastCompactErr = err.Error()
		s.mu.Unlock()
	}
}

func (s *Store) sealIfAged() {
	if s.opts.SealAge <= 0 {
		return
	}
	s.mu.Lock()
	if s.closed || s.memCount == 0 || time.Since(s.memSince) < s.opts.SealAge {
		// Still give a stuck frozen queue (a previously failed seal) its
		// retry tick.
		retry := !s.closed && len(s.frozen) > 0
		s.mu.Unlock()
		if retry {
			s.kickSeal()
		}
		return
	}
	if err := s.freezeLocked(); err != nil {
		s.lastSealErr = err.Error()
	}
	s.mu.Unlock()
}

// levelOf maps a segment's tuple count to its compaction level.
func (s *Store) levelOf(tuples int) int {
	f := s.opts.CompactFanout
	lvl := 0
	for t := tuples / s.opts.SealTuples; t >= f; t /= f {
		lvl++
	}
	return lvl
}

// Compact merges sealed segments level by level until no level holds
// CompactFanout segments, returning the number of compactions run. It is
// safe alongside concurrent appends, seals and queries; the background
// compactor calls it after every seal.
func (s *Store) Compact() (int, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	n := 0
	for {
		did, err := s.compactOnce()
		if err != nil {
			return n, err
		}
		if !did {
			break
		}
		n++
	}
	// With the segment set settled, bring rollup segments up to date; they
	// are maintained here (under compactMu) because only compactions ever
	// remove segments — between compactions a rollup's cover can only
	// become a subset of the live set, never inconsistent with it.
	if err := s.maintainRollups(); err != nil {
		return n, err
	}
	return n, nil
}

// compactOnce merges the oldest CompactFanout segments of the fullest
// eligible level into one. The expensive part — merge, encode, write —
// runs without mu, so appends and queries proceed; only the manifest swap
// takes the writer lock. compactMu guarantees a single compactor, so the
// picked inputs cannot disappear meanwhile (seals only add segments).
//
// The happy path is the streaming k-way merge: dwarf.MergeViews descends
// the segments' zero-copy views directly and writes the merged v2-indexed
// segment in one pass, so compaction never materializes a node graph and
// its working set is the output segment plus O(depth·fanout·k) cursor
// state — not the sum of the decoded inputs. If the streaming merge fails
// (e.g. a segment outgrew the u32 offset index), compaction falls back to
// decoding every input and folding them with one k-way dwarf.MergeAll.
func (s *Store) compactOnce() (bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, ErrClosed
	}
	group := s.pickCompaction()
	if group == nil {
		s.mu.Unlock()
		return false, nil
	}
	// Reserve the output id in memory so a seal racing with this compaction
	// cannot allocate the same segment file name; the reservation is
	// persisted by whichever manifest swap commits first.
	id := s.man.NextSegID
	s.man.NextSegID++
	// Lease the state the inputs were picked from, under mu so it is the
	// current one: compactMu keeps them listed, the lease keeps them mapped.
	st, err := s.acquire()
	s.mu.Unlock()
	if err != nil {
		return false, err
	}
	defer st.release()

	tuples := 0
	for _, seg := range group {
		tuples += seg.meta.Tuples
	}
	name := segFileName(id)
	var merged *segment
	streamed := false
	if !s.disableStreamingCompact {
		views := make([]*dwarf.CubeView, len(group))
		for i, seg := range group {
			views[i] = seg.view
		}
		var mergeErr error
		merged, err = s.writeSegment(name, tuples, func(w io.Writer) error {
			_, mergeErr = dwarf.MergeViews(w, views...)
			return mergeErr
		})
		if err != nil && mergeErr == nil {
			return false, err // an I/O failure, not one the fallback avoids
		}
		streamed = err == nil
	}
	if merged == nil {
		// Fallback: decode every input once and fold them with a single
		// k-way merge (one coalesce pass, not k-1 pairwise re-coalesces).
		cubes := make([]*dwarf.Cube, len(group))
		for i, seg := range group {
			c, err := seg.view.Decode()
			if err != nil {
				return false, fmt.Errorf("cubestore: decoding %s: %w", seg.meta.File, err)
			}
			cubes[i] = c
		}
		cube, err := dwarf.MergeAll(cubes...)
		if err != nil {
			return false, err
		}
		if merged, err = s.writeSegment(name, tuples, cube.EncodeIndexed); err != nil {
			return false, err
		}
	}
	published := false
	defer func() {
		if !published {
			merged.file.unmap()
		}
	}()
	meta := merged.meta
	if err := s.fail(fpCompactSegmentWritten); err != nil {
		return false, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	inputs := make(map[string]bool, len(group))
	for _, seg := range group {
		inputs[seg.meta.File] = true
	}
	newMan := s.man.clone()
	if newMan.NextSegID <= id {
		newMan.NextSegID = id + 1
	}
	newMan.Generation = s.gen.Load() + 1
	out := newMan.Segments[:0]
	inserted := false
	for _, m := range newMan.Segments {
		if inputs[m.File] {
			if !inserted {
				// The merged segment takes the position of the oldest
				// input, keeping Segments ordered oldest-first.
				out = append(out, meta)
				inserted = true
			}
			continue
		}
		out = append(out, m)
	}
	newMan.Segments = out
	if err := writeManifest(s.dir, newMan); err != nil {
		return false, err
	}
	if err := s.fail(fpCompactManifestSwapped); err != nil {
		return false, err
	}
	s.man = newMan
	newSegs := make([]*segment, 0, len(s.segs))
	insertedSeg := false
	for _, seg := range s.segs {
		if inputs[seg.meta.File] {
			if !insertedSeg {
				newSegs = append(newSegs, merged)
				insertedSeg = true
			}
			os.Remove(filepath.Join(s.dir, seg.meta.File))
			continue
		}
		newSegs = append(newSegs, seg)
	}
	s.segs = newSegs
	// The rename'd manifest was already dir-synced by writeManifest; this
	// sync covers the input-segment deletions. Failure is surfaced in Stats,
	// not fatal: resurrected deleted files are re-removed on the next open.
	s.noteDirSync(fsyncDir(s.dir))
	s.publish()
	published = true
	s.compactions.Add(1)
	if streamed {
		s.streamingCompacts.Add(1)
	} else {
		s.fallbackCompacts.Add(1)
	}
	s.lastCompactErr = ""
	return true, nil
}

// pickCompaction returns the oldest CompactFanout segments of the lowest
// level holding at least CompactFanout of them. Callers hold mu.
func (s *Store) pickCompaction() []*segment {
	byLevel := make(map[int][]*segment)
	minLevel := -1
	for _, seg := range s.segs {
		l := s.levelOf(seg.meta.Tuples)
		byLevel[l] = append(byLevel[l], seg)
		if len(byLevel[l]) >= s.opts.CompactFanout && (minLevel < 0 || l < minLevel) {
			minLevel = l
		}
	}
	if minLevel < 0 {
		return nil
	}
	return byLevel[minLevel][:s.opts.CompactFanout]
}

// Close stops the committer, sealer and background compactor, retires the
// read state (later queries fail with ErrClosed) and closes the WAL. It
// does not seal: live and frozen memtable tuples stay covered by the live
// WAL generations and replay on the next Open. Appends still queued (never
// committed) fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.closing)
	s.mu.Unlock()
	s.qmu.Lock()
	s.qclosed = true
	s.qcond.Broadcast()
	s.qmu.Unlock()
	s.bg.Wait()
	s.compactMu.Lock() // wait out a straggling explicit Compact
	s.compactMu.Unlock()
	s.sealMu.Lock() // and a straggling explicit Seal's drain
	s.sealMu.Unlock()
	// Queries now fail with ErrClosed; each file is unmapped as soon as the
	// last in-flight lease on it is released.
	s.retire(nil)
	err := s.wal.close()
	s.lock.release()
	return err
}

// crashClose drops the store as a crash would: no WAL flush, no tidy-up.
// Recovery tests pair it with failpoint-aborted operations.
func (s *Store) crashClose() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.closing)
	}
	s.mu.Unlock()
	s.qmu.Lock()
	s.qclosed = true
	s.qcond.Broadcast()
	s.qmu.Unlock()
	s.bg.Wait()
	s.compactMu.Lock()
	s.compactMu.Unlock()
	s.sealMu.Lock()
	s.sealMu.Unlock()
	s.retire(nil)
	s.wal.abandon()
	s.lock.release()
}

// ---- Queries ----

// The store implements every shape of the shared query surface
// (query.Querier) the same way: run the unified kernel against each target
// — every sealed segment's zero-copy CubeView plus the live memtable cube,
// both dwarf.Sources answering through the same kernel code — then merge
// the partial results in deterministic target order. Aggregate shapes merge
// with dwarf.MergeAggregates; keyed shapes merge per key
// (dwarf.MergeGroupMaps / dwarf.MergePivotGroups); TopK cuts only after
// every partial group is in, so a key that is small in every segment but
// large in total still ranks (docs/QUERY.md).

// targets snapshots the fan-out set: every sealed segment view, every
// frozen memtable awaiting its seal, and the live cube, minus segments
// whose zone maps prove no selected tuple can live there. admit is the
// per-segment admission test (dwarf.ZonesAdmit or ZonesAdmitPoint closed
// over the query); nil disables pruning, as does Options.NoPrune. Skipping
// a segment never changes the merged answer: an absent key contributes the
// zero Aggregate, and merging zero is identity. Frozen memtables are never
// pruned (no zone maps) and count in neither scan counter, like the live
// memtable. The snapshot is immutable and the caller holds a lease on it,
// so the query runs lock-free even while commits, seals and compactions
// swap the store state underneath.
func (s *Store) targets(st *storeState, admit func([]dwarf.ZoneMap) bool) ([]query.Querier, error) {
	live, err := st.mem.Cube()
	if err != nil {
		return nil, err
	}
	if s.opts.NoPrune {
		admit = nil
	}
	out := make([]query.Querier, 0, len(st.segs)+len(st.frozen)+1)
	pruned := int64(0)
	for _, seg := range st.segs {
		if admit != nil && !admit(seg.zones) {
			pruned++
			continue
		}
		out = append(out, seg.view)
	}
	if pruned > 0 {
		s.segsPruned.Add(pruned)
	}
	s.segsScanned.Add(int64(len(out)))
	for _, fz := range st.frozen {
		c, err := fz.mem.Cube()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return append(out, live), nil
}

// admitRange closes dwarf.ZonesAdmit over one selector list.
func admitRange(sels []dwarf.Selector) func([]dwarf.ZoneMap) bool {
	return func(zones []dwarf.ZoneMap) bool { return dwarf.ZonesAdmit(zones, sels) }
}

// fanOut runs fn against every target, concurrently when there are several,
// and hands the partial results to merge in deterministic target order.
func fanOut[T any](targets []query.Querier, fn func(query.Querier) (T, error)) ([]T, error) {
	results := make([]T, len(targets))
	if len(targets) <= 2 || runtime.GOMAXPROCS(0) == 1 {
		for i, q := range targets {
			r, err := fn(q)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, q := range targets {
		wg.Add(1)
		go func(i int, q query.Querier) {
			defer wg.Done()
			results[i], errs[i] = fn(q)
		}(i, q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func (s *Store) aggQuery(admit func([]dwarf.ZoneMap) bool, fn func(query.Querier) (dwarf.Aggregate, error)) (dwarf.Aggregate, error) {
	st, err := s.acquire()
	if err != nil {
		return dwarf.Aggregate{}, err
	}
	defer st.release()
	targets, err := s.targets(st, admit)
	if err != nil {
		return dwarf.Aggregate{}, err
	}
	parts, err := fanOut(targets, fn)
	if err != nil {
		return dwarf.Aggregate{}, err
	}
	var agg dwarf.Aggregate
	for _, p := range parts {
		agg = dwarf.MergeAggregates(agg, p)
	}
	return agg, nil
}

// groupQuery fans a per-key map shape out over the leased state st and
// merges the partials per key.
func (s *Store) groupQuery(st *storeState, admit func([]dwarf.ZoneMap) bool, fn func(query.Querier) (map[string]dwarf.Aggregate, error)) (map[string]dwarf.Aggregate, error) {
	targets, err := s.targets(st, admit)
	if err != nil {
		return nil, err
	}
	parts, err := fanOut(targets, fn)
	if err != nil {
		return nil, err
	}
	return dwarf.MergeGroupMaps(make(map[string]dwarf.Aggregate), parts...), nil
}

// Point answers a point/ALL query across every sealed segment and the live
// memtable, reflecting every acknowledged tuple. Segments whose zone maps
// exclude any bound key are pruned from the fan-out.
func (s *Store) Point(keys ...string) (dwarf.Aggregate, error) {
	admit := func(zones []dwarf.ZoneMap) bool { return dwarf.ZonesAdmitPoint(zones, keys) }
	return s.aggQuery(admit, func(q query.Querier) (dwarf.Aggregate, error) { return q.Point(keys...) })
}

// Range aggregates the sub-cube addressed by one selector per dimension
// across segments and the live memtable, pruning segments whose zone maps
// prove the selection empty there.
func (s *Store) Range(sels []dwarf.Selector) (dwarf.Aggregate, error) {
	return s.aggQuery(admitRange(sels), func(q query.Querier) (dwarf.Aggregate, error) { return q.Range(sels) })
}

// GroupBy groups the dimension at index dim under the restriction of sels,
// merging per-key partial aggregates across segments and the live memtable.
// With a result cache or rollup segments configured it runs through the
// planned path in cached.go; answers are identical either way.
func (s *Store) GroupBy(dim int, sels []dwarf.Selector) (map[string]dwarf.Aggregate, error) {
	gen := s.gen.Load() // before the lease: see the planned-path notes
	st, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer st.release()
	if s.planned() && dim >= 0 && dim < len(s.dims) && len(sels) == len(s.dims) {
		return s.groupsAt(st, gen, dim, sels)
	}
	return s.groupQuery(st, admitRange(sels), func(q query.Querier) (map[string]dwarf.Aggregate, error) {
		return q.GroupBy(dim, sels)
	})
}

// planned reports whether grouped shapes run through the planner in
// cached.go (a result cache or rollups are configured).
func (s *Store) planned() bool { return s.cache != nil || len(s.rollupSpecs) > 0 }

// Pivot is the multi-dimension GroupBy across segments and the live
// memtable: per-target sorted rows are merged per key tuple, so the result
// is exactly a single cube's Pivot over all acknowledged tuples.
func (s *Store) Pivot(dims []int, sels []dwarf.Selector) ([]dwarf.PivotGroup, error) {
	gen := s.gen.Load()
	st, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer st.release()
	if s.planned() && validPivotArgs(dims, sels, len(s.dims)) {
		return s.pivotPlanned(st, gen, dims, sels)
	}
	targets, err := s.targets(st, admitRange(sels))
	if err != nil {
		return nil, err
	}
	parts, err := fanOut(targets, func(q query.Querier) ([]dwarf.PivotGroup, error) {
		return q.Pivot(dims, sels)
	})
	if err != nil {
		return nil, err
	}
	return dwarf.MergePivotGroups(parts...), nil
}

// TopK ranks the groups of the dimension at index dim across segments and
// the live memtable. Partial group maps are merged before the threshold and
// K cut — a per-target cut would drop keys whose weight is spread across
// segments — so the ranking equals a single cube's over all acknowledged
// tuples.
func (s *Store) TopK(dim int, sels []dwarf.Selector, spec dwarf.TopKSpec) ([]dwarf.GroupEntry, error) {
	gen := s.gen.Load()
	st, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer st.release()
	if s.planned() && dim >= 0 && dim < len(s.dims) && len(sels) == len(s.dims) {
		return s.topKPlanned(st, gen, dim, sels, spec)
	}
	groups, err := s.groupQuery(st, admitRange(sels), func(q query.Querier) (map[string]dwarf.Aggregate, error) {
		return q.GroupBy(dim, sels)
	})
	if err != nil {
		return nil, err
	}
	return dwarf.TopKFromGroups(groups, spec), nil
}

// The store serves the full shared query surface.
var _ query.Querier = (*Store)(nil)

// TotalTuples reports every acknowledged source tuple: sealed plus frozen
// plus live. It reads counters only — no memtable flush — so per-request
// callers (/ingest) stay cheap.
func (s *Store) TotalTuples() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := s.memCount
	for _, fz := range s.frozen {
		total += fz.count
	}
	for _, seg := range s.segs {
		total += seg.meta.Tuples
	}
	return total
}

// SegmentInfo describes one sealed segment in Stats.
type SegmentInfo struct {
	File   string `json:"file"`
	Tuples int    `json:"tuples"`
	Level  int    `json:"level"`
	Bytes  int    `json:"bytes"`
}

// RollupInfo describes one rollup segment in Stats.
type RollupInfo struct {
	File   string   `json:"file"`
	Dims   []string `json:"dims"`
	Covers int      `json:"covers"`
	Tuples int      `json:"tuples"`
	Bytes  int      `json:"bytes"`
}

// Stats is a point-in-time description of the store.
//
// NOTE: internal/serve's hand-rolled encoder mirrors this struct field for
// field in declaration order; adding or reordering fields requires the
// matching change in serve/encode.go (TestModesByteIdentical pins it).
type Stats struct {
	Dims         []string      `json:"dims"`
	Segments     []SegmentInfo `json:"segments"`
	Rollups      []RollupInfo  `json:"rollups,omitempty"`
	SealedTuples int           `json:"sealed_tuples"`
	LiveTuples   int           `json:"live_tuples"`
	TotalTuples  int           `json:"total_tuples"`
	SealedBytes  int64         `json:"sealed_bytes"`
	WALGen       uint64        `json:"wal_gen"`
	// Generation is the visible-state generation (see Store.Generation).
	Generation  uint64 `json:"generation"`
	WALBytes    int64  `json:"wal_bytes"`
	Seals       int64  `json:"seals"`
	Compactions int64  `json:"compactions"`
	Appended    int64  `json:"appended"`

	// StreamingCompactions counts compactions that ran the zero-copy k-way
	// merge; FallbackCompactions counts those that fell back to decoding
	// the inputs. Their sum is Compactions.
	StreamingCompactions int64 `json:"streaming_compactions"`
	FallbackCompactions  int64 `json:"fallback_compactions"`

	// Query-cache counters (all zero when Options.CacheBytes is 0):
	// hits/misses/stale count full-result lookups (stale = an entry was
	// present but stamped with an older generation, so the miss came from
	// write churn rather than a cold cache), the partial pair counts
	// per-segment partial lookups, RollupHits counts grouped queries the
	// planner routed through a rollup segment.
	CacheHits          int64 `json:"cache_hits"`
	CacheMisses        int64 `json:"cache_misses"`
	CacheStale         int64 `json:"cache_stale"`
	CachePartialHits   int64 `json:"cache_partial_hits"`
	CachePartialMisses int64 `json:"cache_partial_misses"`
	CacheBytes         int64 `json:"cache_bytes"`
	CacheEntries       int   `json:"cache_entries"`
	RollupHits         int64 `json:"rollup_hits"`

	// SegmentsScanned / SegmentsPruned count sealed and rollup fan-out
	// targets actually run versus targets dropped because their zone maps
	// proved no selected tuple could match (the live memtable counts in
	// neither). Zero pruned with NoPrune set, or when every segment predates
	// zone maps.
	SegmentsScanned int64 `json:"segments_scanned"`
	SegmentsPruned  int64 `json:"segments_pruned"`

	// GroupCommits counts committer rounds — each is at most one WAL fsync,
	// however many concurrent Appends it covered. FsyncsSaved counts synced
	// batches that rode a group leader's fsync instead of issuing their
	// own: GroupCommits + FsyncsSaved equals the number of acked synced
	// batches, and FsyncsSaved is zero under a single writer (or NoSync).
	GroupCommits int64 `json:"group_commits"`
	FsyncsSaved  int64 `json:"fsyncs_saved"`

	// FrozenMemtables counts lifetime memtable freezes (threshold, age or
	// explicit Seal); SealQueueDepth is how many frozen memtables currently
	// await the background sealer (bounded by Options.MaxFrozen). Their
	// tuples count in LiveTuples until the seal commits.
	FrozenMemtables int64 `json:"frozen_memtables"`
	SealQueueDepth  int   `json:"seal_queue_depth"`

	// DirSyncErrors counts failed directory syncs after post-commit file
	// deletions (dead WAL generations, replaced rollups); LastDirSyncError
	// is the most recent one. Not data loss — surviving files are
	// re-deleted on the next open — but a disk whose metadata flushes fail
	// should be visible.
	DirSyncErrors int64 `json:"dir_sync_errors"`

	// LastSealError / LastCompactError are the most recent background
	// maintenance failures, empty once the next attempt succeeds.
	LastSealError    string `json:"last_seal_error,omitempty"`
	LastCompactError string `json:"last_compact_error,omitempty"`
	LastDirSyncError string `json:"last_dir_sync_error,omitempty"`
}

// Stats reports the store's current shape: segment inventory by level, live
// and sealed tuple counts, WAL position and lifetime seal/compaction
// counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Dims:        append([]string(nil), s.dims...),
		Segments:    []SegmentInfo{},
		LiveTuples:  s.memCount,
		WALGen:      s.wal.gen,
		Generation:  s.gen.Load(),
		WALBytes:    s.wal.bytes,
		Seals:       s.seals.Load(),
		Compactions: s.compactions.Load(),
		Appended:    s.appended.Load(),

		StreamingCompactions: s.streamingCompacts.Load(),
		FallbackCompactions:  s.fallbackCompacts.Load(),

		RollupHits: s.rollupHits.Load(),

		SegmentsScanned: s.segsScanned.Load(),
		SegmentsPruned:  s.segsPruned.Load(),

		GroupCommits: s.groupCommits.Load(),
		FsyncsSaved:  s.fsyncsSaved.Load(),

		FrozenMemtables: s.frozenTotal.Load(),
		SealQueueDepth:  len(s.frozen),

		DirSyncErrors: s.dirSyncErrs.Load(),

		LastSealError:    s.lastSealErr,
		LastCompactError: s.lastCompactErr,
	}
	for _, fz := range s.frozen {
		st.LiveTuples += fz.count
	}
	for _, seg := range s.segs {
		st.Segments = append(st.Segments, SegmentInfo{
			File:   seg.meta.File,
			Tuples: seg.meta.Tuples,
			Level:  s.levelOf(seg.meta.Tuples),
			Bytes:  seg.file.size,
		})
		st.SealedTuples += seg.meta.Tuples
		st.SealedBytes += int64(seg.file.size)
	}
	for _, r := range s.rollups {
		st.Rollups = append(st.Rollups, RollupInfo{
			File:   r.meta.File,
			Dims:   append([]string(nil), r.meta.Dims...),
			Covers: len(r.meta.Covers),
			Tuples: r.meta.Tuples,
			Bytes:  r.file.size,
		})
	}
	s.mu.Unlock()
	s.errMu.Lock()
	st.LastDirSyncError = s.lastDirSyncErr
	s.errMu.Unlock()
	if s.cache != nil {
		cs := s.cache.Stats()
		st.CacheHits, st.CacheMisses, st.CacheStale = cs.Hits, cs.Misses, cs.Stale
		st.CachePartialHits, st.CachePartialMisses = cs.PartialHits, cs.PartialMisses
		st.CacheBytes, st.CacheEntries = cs.Bytes, cs.Entries
	}
	st.TotalTuples = st.SealedTuples + st.LiveTuples
	return st
}
