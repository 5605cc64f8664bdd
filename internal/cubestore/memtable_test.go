package cubestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/dwarf"
)

// Memtable suite: appends only buffer tuples, and a memtable's cube is
// built by the first query that reads it or, failing that, once by its
// seal. These tests pin the single build, the release of sealed memtables,
// and answers that stay bit-identical to a batch build while queries fold
// live and frozen memtables at arbitrary points between appends and seals.

// TestStoreSealBuildsOnce: a memtable no query touched before its seal is
// built by exactly one dwarf.New over its tuples, so the segment it seals
// into is byte-identical to the batch build's encoding (a chunked build
// folded by MergeAll would encode larger: nodes are not shared across
// merge inputs).
func TestStoreSealBuildsOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{
				Dims:               testDims,
				SealTuples:         1 << 30, // manual seals only
				DisableAutoCompact: true,
				NoSync:             true,
				Workers:            workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(int64(60 + workers)))
			var all []dwarf.Tuple
			// Thousands of tuples with wider keys than randTuples: over the
			// tiny test domain a merge of partial builds happens to encode
			// identically, which would hide a chunked build.
			for b := 0; b < 50; b++ {
				batch := make([]dwarf.Tuple, 100+rng.Intn(50))
				for i := range batch {
					batch[i] = dwarf.Tuple{
						Dims:    []string{dimKey(0, rng.Intn(24)), dimKey(1, rng.Intn(24)), dimKey(2, rng.Intn(24))},
						Measure: float64(rng.Intn(9) + 1),
					}
				}
				if err := s.Append(batch); err != nil {
					t.Fatal(err)
				}
				all = append(all, batch...)
			}
			s.mu.Lock()
			buffered := s.mem.Buffered()
			s.mu.Unlock()
			if buffered != len(all) {
				t.Fatalf("live memtable buffers %d tuples after %d appended: a commit built a cube", buffered, len(all))
			}
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if len(st.Segments) != 1 {
				t.Fatalf("want one sealed segment, have %+v", st.Segments)
			}
			got, err := os.ReadFile(filepath.Join(dir, st.Segments[0].File))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := dwarf.New(testDims, all)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := ref.EncodeIndexed(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("sealed segment is not the batch encoding: %d vs %d bytes", len(got), want.Len())
			}
		})
	}
}

// TestStoreSealedMemtableReleased: once a frozen memtable is sealed and no
// snapshot lists it, nothing may keep it reachable — in particular not the
// frozen queue's backing array after the pop.
func TestStoreSealedMemtableReleased(t *testing.T) {
	s, err := Open(t.TempDir(), Options{
		Dims:               testDims,
		SealTuples:         1 << 30,
		DisableAutoCompact: true,
		NoSync:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(8))
	if err := s.Append(randTuples(rng, 200)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	if err := s.freezeLocked(); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	sealed := weak.Make(s.frozen[0])
	s.mu.Unlock()
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().SealQueueDepth; n != 0 {
		t.Fatalf("seal queue depth %d after Seal", n)
	}
	for i := 0; i < 5 && sealed.Value() != nil; i++ {
		runtime.GC()
	}
	if sealed.Value() != nil {
		t.Fatal("sealed memtable is still reachable after GC")
	}
}

// shapeQuerier is the query surface shared by Store and *dwarf.Cube.
type shapeQuerier interface {
	Point(keys ...string) (dwarf.Aggregate, error)
	Range(sels []dwarf.Selector) (dwarf.Aggregate, error)
	GroupBy(dim int, sels []dwarf.Selector) (map[string]dwarf.Aggregate, error)
	Pivot(dims []int, sels []dwarf.Selector) ([]dwarf.PivotGroup, error)
	TopK(dim int, sels []dwarf.Selector, spec dwarf.TopKSpec) ([]dwarf.GroupEntry, error)
}

// shapeQuery is one randomly drawn query of any of the five shapes; run
// renders its answer as text, which is exact for these integer measures.
type shapeQuery struct {
	shape int
	keys  []string
	sels  []dwarf.Selector
	dims  []int
	spec  dwarf.TopKSpec
}

func randShapeQuery(rng *rand.Rand) shapeQuery {
	q := shapeQuery{shape: rng.Intn(5), sels: randSelectors(rng), dims: pivotDims(rng)}
	q.keys = make([]string, len(testDims))
	for d := range q.keys {
		q.keys[d] = dwarf.All
		if rng.Intn(2) == 0 {
			q.keys[d] = dimKey(d, rng.Intn(testDimSizes[d]))
		}
	}
	q.spec = dwarf.TopKSpec{K: 1 + rng.Intn(3), By: dwarf.Metric(rng.Intn(5))}
	return q
}

func (q shapeQuery) run(s shapeQuerier) (string, error) {
	var v any
	var err error
	switch q.shape {
	case 0:
		v, err = s.Point(q.keys...)
	case 1:
		v, err = s.Range(q.sels)
	case 2:
		v, err = s.GroupBy(q.dims[0], q.sels)
	case 3:
		v, err = s.Pivot(q.dims, q.sels)
	default:
		v, err = s.TopK(q.dims[0], q.sels, q.spec)
	}
	return fmt.Sprintf("%+v", v), err
}

// TestStoreDifferentialInterleavedFolds races readers that fold the live
// and frozen memtables at random points against a writer whose batches
// trigger threshold freezes, a slowed background sealer that lets frozen
// memtables queue up unbuilt, explicit seals and auto-compaction. With one
// writer, the store's contents are always a prefix of its batch plan: a
// query that starts after batch lo is acked and ends before batch hi+1 is
// acked must answer exactly like the batch build of some prefix in
// [lo, hi+1] (the batch in flight may be visible before its ack).
func TestStoreDifferentialInterleavedFolds(t *testing.T) {
	for _, planned := range []bool{false, true} {
		name := "plain"
		if planned {
			name = "planned"
		}
		t.Run(name, func(t *testing.T) {
			opts := Options{
				Dims:          testDims,
				SealTuples:    45,
				MaxFrozen:     3,
				CompactFanout: 2,
				NoSync:        true,
			}
			if planned {
				opts.CacheBytes = 1 << 20
				opts.Rollups = [][]string{{"A", "B"}}
			}
			s, err := Open(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var slow atomic.Int64
			s.setFailpoint(func(name string) error {
				if name == fpSealBuilt {
					// Hold the sealer so later frozen memtables wait in
					// the queue with their tuples still unbuilt.
					time.Sleep(time.Duration(slow.Add(1)%3) * time.Millisecond)
				}
				return nil
			})

			rng := rand.New(rand.NewSource(77))
			const batches = 90
			plan := make([][]dwarf.Tuple, batches)
			var all []dwarf.Tuple
			refs := make([]*dwarf.Cube, batches+1)
			for i := 0; i <= batches; i++ {
				if refs[i], err = dwarf.New(testDims, all); err != nil {
					t.Fatal(err)
				}
				if i < batches {
					plan[i] = randTuples(rng, 1+rng.Intn(12))
					all = append(all, plan[i]...)
				}
			}

			var acked atomic.Int64
			done := make(chan struct{})
			var bg sync.WaitGroup
			bg.Add(1)
			go func() { // writer
				defer bg.Done()
				defer close(done)
				wrng := rand.New(rand.NewSource(78))
				for i, batch := range plan {
					if err := s.Append(batch); err != nil {
						t.Errorf("append %d: %v", i, err)
						return
					}
					acked.Add(1)
					if wrng.Intn(15) == 0 {
						if err := s.Seal(); err != nil {
							t.Errorf("seal: %v", err)
							return
						}
					}
				}
			}()
			var checked, frozenSeen atomic.Int64
			for r := 0; r < 3; r++ {
				bg.Add(1)
				go func(r int) {
					defer bg.Done()
					rrng := rand.New(rand.NewSource(int64(900 + r)))
					for {
						select {
						case <-done:
							return
						default:
						}
						time.Sleep(time.Duration(rrng.Intn(300)) * time.Microsecond)
						if s.Stats().SealQueueDepth > 0 {
							frozenSeen.Add(1)
						}
						q := randShapeQuery(rrng)
						lo := int(acked.Load())
						got, err := q.run(s)
						if err != nil {
							t.Errorf("reader %d: %+v: %v", r, q, err)
							return
						}
						hi := min(int(acked.Load())+1, batches)
						match := false
						for k := lo; k <= hi && !match; k++ {
							want, _ := q.run(refs[k])
							match = got == want
						}
						if !match {
							want, _ := q.run(refs[lo])
							t.Errorf("reader %d: %+v answered %s; no batch prefix in [%d, %d] does (prefix %d: %s)",
								r, q, got, lo, hi, lo, want)
							return
						}
						checked.Add(1)
					}
				}(r)
			}
			bg.Wait()
			s.setFailpoint(nil)
			if checked.Load() == 0 {
				t.Fatal("no reader answer was checked")
			}
			t.Logf("%d answers checked, %d taken with frozen memtables queued", checked.Load(), frozenSeen.Load())
			compareStore(t, s, all, nil, rng, true)
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			compareStore(t, s, all, nil, rng, false)
		})
	}
}
