package cubestore

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dwarf"
)

// Lease suite: segments and rollups are served from file mappings that are
// unmapped as soon as no snapshot lists them and no reader holds a lease
// on one that did. A use after unmap is a SIGSEGV, not a wrong answer, so
// these tests drive readers of every shape through the transitions that
// retire mappings (seals, compactions, rollup swaps, Close) and check each
// answer against a batch build; the live-mapping counter pins that nothing
// leaks and nothing is dropped early.

// outsideKey is the dimension-A key of tuples appended while readers race:
// it sorts after every dimKey(0, k), so a reader restricting dimension A
// to dimKey keys never sees them and its answers stay fixed.
const outsideKey = "zz"

// restrictA rewrites sels so dimension A selects only dimKey(0, k) keys.
func restrictA(rng *rand.Rand, sels []dwarf.Selector) {
	if !sels[0].HasRange && len(sels[0].Keys) == 0 {
		sels[0] = dwarf.SelectRange(dimKey(0, 0), dimKey(0, testDimSizes[0]-1))
	}
	if rng.Intn(2) == 0 {
		// Unrestricted B and C let the rollups over {A,B} and {A} answer.
		sels[2] = dwarf.SelectAll()
		if rng.Intn(2) == 0 {
			sels[1] = dwarf.SelectAll()
		}
	}
}

// checkFixedShapes runs one query of each of the five shapes with
// dimension A restricted to the preloaded keys and compares it with ref.
func checkFixedShapes(s *Store, ref *dwarf.Cube, rng *rand.Rand) error {
	keys := make([]string, len(testDims))
	keys[0] = dimKey(0, rng.Intn(testDimSizes[0]))
	for d := 1; d < len(keys); d++ {
		keys[d] = dwarf.All
		if rng.Intn(2) == 0 {
			keys[d] = dimKey(d, rng.Intn(testDimSizes[d]))
		}
	}
	got, err := s.Point(keys...)
	if err != nil {
		return fmt.Errorf("Point%v: %w", keys, err)
	}
	if want, _ := ref.Point(keys...); !got.Equal(want) {
		return fmt.Errorf("Point%v: store=%+v batch=%+v", keys, got, want)
	}

	sels := randSelectors(rng)
	restrictA(rng, sels)
	got, err = s.Range(sels)
	if err != nil {
		return fmt.Errorf("Range%+v: %w", sels, err)
	}
	if want, _ := ref.Range(sels); !got.Equal(want) {
		return fmt.Errorf("Range%+v: store=%+v batch=%+v", sels, got, want)
	}

	dim := rng.Intn(2) // A or B: both survive in the {A,B} rollup
	groups, err := s.GroupBy(dim, sels)
	if err != nil {
		return fmt.Errorf("GroupBy(%d)%+v: %w", dim, sels, err)
	}
	wantGroups, _ := ref.GroupBy(dim, sels)
	if len(groups) != len(wantGroups) {
		return fmt.Errorf("GroupBy(%d)%+v: %d groups, batch has %d", dim, sels, len(groups), len(wantGroups))
	}
	for k, a := range wantGroups {
		if !groups[k].Equal(a) {
			return fmt.Errorf("GroupBy(%d)%+v key %q: store=%+v batch=%+v", dim, sels, k, groups[k], a)
		}
	}

	spec := dwarf.TopKSpec{K: 1 + rng.Intn(3), By: dwarf.Metric(rng.Intn(5))}
	top, err := s.TopK(dim, sels, spec)
	if err != nil {
		return fmt.Errorf("TopK(%d): %w", dim, err)
	}
	wantTop, _ := ref.TopK(dim, sels, spec)
	if len(top) != len(wantTop) {
		return fmt.Errorf("TopK(%d)%+v: %d entries, batch has %d", dim, spec, len(top), len(wantTop))
	}
	for i := range wantTop {
		if top[i].Key != wantTop[i].Key || !top[i].Agg.Equal(wantTop[i].Agg) {
			return fmt.Errorf("TopK(%d)%+v entry %d: store=%+v batch=%+v", dim, spec, i, top[i], wantTop[i])
		}
	}

	pdims := []int{0, 1}
	if rng.Intn(2) == 0 {
		pdims = []int{1, 0}
	}
	rows, err := s.Pivot(pdims, sels)
	if err != nil {
		return fmt.Errorf("Pivot(%v): %w", pdims, err)
	}
	wantRows, _ := ref.Pivot(pdims, sels)
	if len(rows) != len(wantRows) {
		return fmt.Errorf("Pivot(%v)%+v: %d rows, batch has %d", pdims, sels, len(rows), len(wantRows))
	}
	for i := range wantRows {
		if !slices.Equal(rows[i].Keys, wantRows[i].Keys) || !rows[i].Agg.Equal(wantRows[i].Agg) {
			return fmt.Errorf("Pivot(%v) row %d: store=%+v batch=%+v", pdims, i, rows[i], wantRows[i])
		}
	}
	return nil
}

// checkMappings asserts the store maps exactly its listed segments and
// rollups — no reader holds a lease and no transition is in flight.
func checkMappings(t *testing.T, s *Store) {
	t.Helper()
	st := s.Stats()
	if got, want := s.mappings.Load(), int64(len(st.Segments)+len(st.Rollups)); got != want {
		t.Fatalf("%d live mappings, store lists %d segments + %d rollups", got, len(st.Segments), len(st.Rollups))
	}
}

// TestStoreSegmentLeases races readers of all five shapes, on the planned
// path (result cache and rollups on) and the plain fan-out, against a
// writer and forced seals, compactions and rollup swaps that keep retiring
// mapped files under them. Every answer must equal the batch build.
func TestStoreSegmentLeases(t *testing.T) {
	for _, planned := range []bool{true, false} {
		name := "plain"
		if planned {
			name = "planned"
		}
		t.Run(name, func(t *testing.T) {
			opts := Options{
				Dims:               testDims,
				SealTuples:         40,
				CompactFanout:      2,
				DisableAutoCompact: true,
				NoSync:             true,
			}
			if planned {
				opts.CacheBytes = 1 << 20
				opts.Rollups = [][]string{{"A", "B"}, {"A"}}
			}
			s, err := Open(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(31))
			pre := randTuples(rng, 300)
			for i := 0; i < len(pre); i += 50 {
				if err := s.Append(pre[i : i+50]); err != nil {
					t.Fatal(err)
				}
				if i%100 == 0 {
					if err := s.Seal(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			ref, err := dwarf.New(testDims, pre)
			if err != nil {
				t.Fatal(err)
			}
			// The writer's tuples all carry outsideKey in dimension A.
			var extra []dwarf.Tuple
			for b := 0; b < 150; b++ {
				batch := randTuples(rng, 8)
				for i := range batch {
					batch[i].Dims[0] = outsideKey
				}
				extra = append(extra, batch...)
			}

			done := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 3; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					rng := rand.New(rand.NewSource(int64(500 + r)))
					for {
						select {
						case <-done:
							return
						default:
						}
						if err := checkFixedShapes(s, ref, rng); err != nil {
							t.Errorf("reader %d: %v", r, err)
							return
						}
					}
				}(r)
			}
			// One writer, and one goroutine forcing seals, compactions and
			// rollup swaps until the writer is done.
			var churn sync.WaitGroup
			churn.Add(2)
			written := make(chan struct{})
			go func() {
				defer churn.Done()
				defer close(written)
				for i := 0; i < len(extra); i += 8 {
					if err := s.Append(extra[i : i+8]); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
				}
			}()
			go func() {
				defer churn.Done()
				for {
					select {
					case <-written:
						return
					default:
					}
					if err := s.Seal(); err != nil {
						t.Errorf("Seal: %v", err)
						return
					}
					if _, err := s.Compact(); err != nil {
						t.Errorf("Compact: %v", err)
						return
					}
				}
			}()
			churn.Wait()
			close(done)
			readers.Wait()
			if t.Failed() {
				return
			}

			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Compactions == 0 || (planned && len(st.Rollups) == 0) {
				t.Fatalf("race never compacted or built rollups: %+v", st)
			}
			checkMappings(t, s)
			compareStore(t, s, append(append([]dwarf.Tuple(nil), pre...), extra...), nil, rng, false)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if n := s.mappings.Load(); n != 0 {
				t.Fatalf("%d mappings still live after Close", n)
			}
		})
	}
}

// TestStoreLeaseOutlivesCompaction: a lease taken before a compaction keeps
// the replaced segments mapped — their files already deleted — and still
// answerable; releasing it unmaps them at once.
func TestStoreLeaseOutlivesCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{
		Dims: testDims, SealTuples: 1 << 20, CompactFanout: 2,
		DisableAutoCompact: true, NoSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(8))
	var all []dwarf.Tuple
	for i := 0; i < 2; i++ {
		batch := randTuples(rng, 30)
		all = append(all, batch...)
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	old, err := s.acquire()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Compact(); err != nil || n != 1 {
		t.Fatalf("Compact = %d, %v; want 1", n, err)
	}
	if got := s.mappings.Load(); got != 3 {
		t.Fatalf("%d live mappings under the lease, want 2 replaced + 1 merged", got)
	}
	for _, seg := range old.segs {
		if _, err := os.Stat(filepath.Join(dir, seg.meta.File)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("compacted input %s still on disk: %v", seg.meta.File, err)
		}
	}
	var sum dwarf.Aggregate
	for _, seg := range old.segs {
		a, err := seg.view.Point(dwarf.All, dwarf.All, dwarf.All)
		if err != nil {
			t.Fatal(err)
		}
		sum = dwarf.MergeAggregates(sum, a)
	}
	if sum.Count != int64(len(all)) {
		t.Fatalf("leased segments count %d tuples, want %d", sum.Count, len(all))
	}
	old.release()
	checkMappings(t, s)
	compareStore(t, s, all, nil, rng, false)
}

// TestStoreClosedQueriesFail: after Close every query shape, planned or
// not and warm in the result cache or not, fails with ErrClosed instead of
// touching an unmapped file.
func TestStoreClosedQueriesFail(t *testing.T) {
	for _, planned := range []bool{true, false} {
		opts := Options{Dims: testDims, SealTuples: 1 << 20, DisableAutoCompact: true, NoSync: true}
		if planned {
			opts.CacheBytes = 1 << 20
			opts.Rollups = [][]string{{"A"}}
		}
		s, err := Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		if err := s.Append(randTuples(rng, 40)); err != nil {
			t.Fatal(err)
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		all := make([]dwarf.Selector, len(testDims))
		shapes := map[string]func() error{
			"Point": func() error { _, err := s.Point(dwarf.All, dwarf.All, dwarf.All); return err },
			"Range": func() error { _, err := s.Range(all); return err },
			"GroupBy": func() error {
				_, err := s.GroupBy(0, all)
				return err
			},
			"Pivot": func() error { _, err := s.Pivot([]int{0, 1}, all); return err },
			"TopK": func() error {
				_, err := s.TopK(0, all, dwarf.TopKSpec{K: 2})
				return err
			},
		}
		for name, q := range shapes {
			if err := q(); err != nil { // warms the result cache when planned
				t.Fatalf("%s before Close: %v", name, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if n := s.mappings.Load(); n != 0 {
			t.Fatalf("planned=%v: %d mappings live after Close", planned, n)
		}
		for name, q := range shapes {
			if err := q(); !errors.Is(err, ErrClosed) {
				t.Fatalf("planned=%v: %s after Close = %v, want ErrClosed", planned, name, err)
			}
		}
		if err := s.Seal(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Seal after Close = %v, want ErrClosed", err)
		}
		if _, err := s.Compact(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Compact after Close = %v, want ErrClosed", err)
		}
	}
}

// TestStoreOpenRejectsDamagedSegment: mapping a listed segment does not
// weaken Open's validation. An empty file and one cut off inside its
// offset trailer both fail Open, naming the file.
func TestStoreOpenRejectsDamagedSegment(t *testing.T) {
	damage := map[string]func(data []byte) []byte{
		"empty": func([]byte) []byte { return nil },
		"truncated-trailer": func(data []byte) []byte {
			v1, _, err := dwarf.SplitEncoded(data)
			if err != nil {
				t.Fatal(err)
			}
			return data[:len(v1)+6]
		},
	}
	for name, cut := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{Dims: testDims, DisableAutoCompact: true, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(4))
			for i := 0; i < 2; i++ {
				if err := s.Append(randTuples(rng, 20)); err != nil {
					t.Fatal(err)
				}
				if err := s.Seal(); err != nil {
					t.Fatal(err)
				}
			}
			victim := s.Stats().Segments[1].File
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, victim)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, cut(data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = Open(dir, Options{})
			if err == nil || !strings.Contains(err.Error(), victim) {
				t.Fatalf("Open over %s segment = %v, want an error naming %s", name, err, victim)
			}
		})
	}
}
