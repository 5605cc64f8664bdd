package dwarf

import (
	"slices"
	"strings"
)

// facts is the input of one build: raw tuples, whose measures are lifted
// to single-value aggregates as the scan reads them, or pre-aggregated
// ones. Builds sort and scan facts through an index permutation and never
// copy them.
type facts interface {
	len() int
	keys(i int) []string
	agg(i int) Aggregate
}

type rawFacts []Tuple

func (f rawFacts) len() int            { return len(f) }
func (f rawFacts) keys(i int) []string { return f[i].Dims }
func (f rawFacts) agg(i int) Aggregate { return NewAggregate(f[i].Measure) }

type aggFacts []AggTuple

func (f aggFacts) len() int            { return len(f) }
func (f aggFacts) keys(i int) []string { return f[i].Dims }
func (f aggFacts) agg(i int) Aggregate { return f[i].Agg }

// sortScratch is sortPerm's working memory, reusable across sorts.
type sortScratch struct {
	perm, tmp []int32
	// col[i] is fact i's key id in the dimension being sorted: the order
	// of the key's first appearance, looked up in ids.
	col      []int32
	ids      map[string]int32
	distinct []string
	order    []int32 // key ids in key order
	rank     []int32 // rank[id]: the key's position in key order
	counts   []int32

	// With ranks requested, ranks[d][i] is fact i's key rank in dimension
	// d and keys[d] lists dimension d's distinct keys in key order, so
	// keys[d][ranks[d][i]] is fact i's key: equal keys have equal ranks,
	// and ranks compare as their keys do.
	ranks [][]int32
	keys  [][]string
}

// sortPerm returns the permutation that stable-sorts f by compareDims
// (keys compared dimension by dimension; the oracle in sortperm_test.go):
// perm[i] is the index of the i-th fact in key order, and facts with equal
// keys keep their input order, so a duplicate fold over the permutation
// merges them exactly as a stable sort of copies would. The result aliases
// sc and is valid until its next sortPerm.
//
// The sort is a least-significant-digit radix sort of the permutation:
// each dimension's distinct keys are ranked once with strings.Compare, then
// one stable counting pass per dimension, last dimension first, orders the
// permutation by rank. A dimension with a single distinct key needs no
// pass. With ranked set, the ranks and the ranked keys are kept in
// sc.ranks and sc.keys for a build to compare keys as integers.
func sortPerm(f facts, sc *sortScratch, ranked bool) []int32 {
	n := f.len()
	perm := slices.Grow(sc.perm[:0], n)[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	sc.perm = perm
	if n == 0 || n == 1 && !ranked {
		return perm
	}
	nd := len(f.keys(0))
	if ranked {
		sc.ranks = slices.Grow(sc.ranks[:0], nd)[:nd]
		sc.keys = slices.Grow(sc.keys[:0], nd)[:nd]
	}
	if sc.ids == nil {
		sc.ids = make(map[string]int32)
	}
	sc.col = slices.Grow(sc.col[:0], n)[:n]
	sc.tmp = slices.Grow(sc.tmp[:0], n)[:n]
	for d := nd - 1; d >= 0; d-- {
		clear(sc.ids)
		distinct := sc.distinct[:0]
		var prev string
		var id int32
		for i := 0; i < n; i++ {
			// A feed repeats a key over neighbouring tuples (one poll's
			// time parts), which skips the lookup.
			if k := f.keys(i)[d]; i == 0 || k != prev {
				var ok bool
				if id, ok = sc.ids[k]; !ok {
					id = int32(len(distinct))
					sc.ids[k] = id
					distinct = append(distinct, k)
				}
				prev = k
			}
			sc.col[i] = id
		}
		sc.distinct = distinct
		nk := len(distinct)
		if nk == 1 {
			if ranked {
				sc.ranks[d] = slices.Grow(sc.ranks[d][:0], n)[:n]
				clear(sc.ranks[d])
				sc.keys[d] = append(sc.keys[d][:0], distinct[0])
			}
			continue
		}
		order := slices.Grow(sc.order[:0], nk)[:nk]
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int {
			return strings.Compare(distinct[a], distinct[b])
		})
		rank := slices.Grow(sc.rank[:0], nk)[:nk]
		for r, id := range order {
			rank[id] = int32(r)
		}
		sc.order, sc.rank = order, rank
		if ranked {
			ranks := slices.Grow(sc.ranks[d][:0], n)[:n]
			for i, id := range sc.col {
				ranks[i] = rank[id]
			}
			keys := slices.Grow(sc.keys[d][:0], nk)[:nk]
			for r, id := range order {
				keys[r] = distinct[id]
			}
			sc.ranks[d], sc.keys[d] = ranks, keys
		}

		// Stable counting pass: counts[r] becomes the first output slot
		// of rank r, and facts are placed in their current order.
		counts := slices.Grow(sc.counts[:0], nk+1)[:nk+1]
		clear(counts)
		for i := 0; i < n; i++ {
			counts[rank[sc.col[i]]+1]++
		}
		for r := 1; r <= nk; r++ {
			counts[r] += counts[r-1]
		}
		out := sc.tmp
		for _, p := range perm {
			r := rank[sc.col[p]]
			out[counts[r]] = p
			counts[r]++
		}
		sc.counts = counts
		perm, sc.tmp = out, perm
	}
	sc.perm = perm
	return perm
}
