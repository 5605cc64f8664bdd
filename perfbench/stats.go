package main

import (
	"sort"
	"time"
)

// lat collects latencies of one kind. Percentiles use the nearest-rank
// rule on the sorted samples.
type lat struct{ ns []int64 }

func (l *lat) add(d time.Duration) { l.ns = append(l.ns, int64(d)) }
func (l *lat) addAll(o *lat)       { l.ns = append(l.ns, o.ns...) }
func (l *lat) n() int              { return len(l.ns) }

// q returns the q-quantile in nanoseconds (0 when empty).
func (l *lat) q(q float64) float64 {
	if len(l.ns) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(l.ns, func(a, b int) bool { return l.ns[a] < l.ns[b] }) {
		sort.Slice(l.ns, func(a, b int) bool { return l.ns[a] < l.ns[b] })
	}
	i := int(q*float64(len(l.ns))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(l.ns) {
		i = len(l.ns) - 1
	}
	return float64(l.ns[i])
}

func (l *lat) ms(q float64) float64 { return l.q(q) / 1e6 }
func (l *lat) us(q float64) float64 { return l.q(q) / 1e3 }

// median of a small set of per-round values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// event is one completed operation of a measured phase: when it finished
// (offset from the phase start), how long it took, its query shape and how
// many units of work (queries or tuples) it acknowledged.
type event struct {
	at, ns int64
	shape  shape
	n      int32
}

// windows is the robust summary of measured phases: the phases are cut
// into windows of a fixed width, and the reported rate and per-shape p50
// are medians over the windows. The host this runs on steals CPU in
// stretches of seconds; a median over many windows stays put when a few
// windows are slowed, where a total over the phase would not.
type windows struct {
	width time.Duration
	rates []float64
	p50s  [numShapes][]float64
}

// add summarizes one phase of the given length; a trailing partial window
// is dropped. A phase shorter than the width is one window, so a short
// --seconds still reports every metric.
func (w *windows) add(events []event, phase time.Duration) {
	width := min(w.width, phase)
	if width <= 0 {
		return
	}
	n := int(phase / width)
	units := make([]float64, n)
	lats := make([][numShapes]lat, n)
	for _, e := range events {
		i := int(time.Duration(e.at) / width)
		if i >= n {
			continue
		}
		units[i] += float64(e.n)
		lats[i][e.shape].ns = append(lats[i][e.shape].ns, e.ns)
	}
	for i := 0; i < n; i++ {
		w.rates = append(w.rates, units[i]/width.Seconds())
		for s := range lats[i] {
			if lats[i][s].n() > 0 {
				w.p50s[s] = append(w.p50s[s], lats[i][s].ms(0.5))
			}
		}
	}
}

func (w *windows) rate() float64         { return median(w.rates) }
func (w *windows) p50ms(s shape) float64 { return median(w.p50s[s]) }
