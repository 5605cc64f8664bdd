package cubestore

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dwarf"
	"repro/internal/smartcity"
)

// BenchmarkStoreIngest is the store's catch-up write path at layer level:
// two closed-loop writers append 80-tuple bike-feed batches to a durable
// store with the default SealTuples and MaxFrozen, as perfbench's ingest
// write phase does, until twenty seals' worth of tuples are in. One op is
// one catch-up into a fresh store, timed from the first Append to the last
// ack; opening the store and draining its seal queue are not timed.
// Reported: tuples/s over the write phases, fsyncs per batch (one WAL sync
// per commit group), the mean WAL sync time per commit group in
// microseconds, and the milliseconds per op that commits waited for the
// sealer (backpressure).
func BenchmarkStoreIngest(b *testing.B) {
	const (
		tuples  = 20 * DefaultSealTuples
		batch   = 80
		writers = 2
	)
	recs := smartcity.NewBikeFeed(smartcity.BikeConfig{Seed: 7}).Take(tuples)
	feed := make([]dwarf.Tuple, len(recs))
	for i, r := range recs {
		feed[i] = r.Tuple()
	}
	nb := (len(feed) + batch - 1) / batch
	var write time.Duration
	var groups, synced, stalled int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := Open(b.TempDir(), Options{Dims: smartcity.BikeDims})
		if err != nil {
			b.Fatal(err)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		b.StartTimer()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1) - 1)
					if j >= nb {
						return
					}
					if err := s.Append(feed[j*batch : min((j+1)*batch, len(feed))]); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		write += time.Since(start)
		st := s.Stats()
		groups += st.GroupCommits
		synced += s.syncNs.Load()
		stalled += s.backpressureNs.Load()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(feed))/write.Seconds(), "tuples/s")
	b.ReportMetric(float64(groups)/float64(b.N*nb), "fsyncs/batch")
	b.ReportMetric(float64(synced)/1e3/float64(groups), "sync-us/group")
	b.ReportMetric(float64(stalled)/1e6/float64(b.N), "backpressure-ms/op")
}
