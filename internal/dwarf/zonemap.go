package dwarf

import (
	"encoding/binary"
	"hash/crc32"
	"math"
)

// Zone maps: per-dimension key-range metadata carried by the optional v3
// metadata section (see codec.go for the byte layout). For each dimension
// the map records the smallest and largest key present anywhere in the cube
// plus the distinct-key count. Dimension keys are sorted strings, so a
// store holding many segments can intersect a query's selectors against
// each segment's zone maps and skip segments that provably hold no matching
// tuple — before the kernel, or even the file, is ever opened.
//
// Every writer of a cube it built reads the maps off the ALL chain (see
// Cube.zoneMaps); only AppendOffsetTrailer, which upgrades a stream from
// outside, folds every cell key during its validating scan.

// ZoneMap is one dimension's key-range summary.
type ZoneMap struct {
	// Min and Max are the smallest and largest keys of the dimension
	// (empty when Distinct is 0 — the cube holds no tuples).
	Min string `json:"min"`
	Max string `json:"max"`
	// Distinct is the number of distinct keys of the dimension.
	Distinct int `json:"distinct"`
}

// zoneAcc accumulates per-dimension zone maps while a scan walks cells.
// Keys arrive in node order, not globally sorted, so the accumulator tracks
// running min/max and a seen set per dimension.
type zoneAcc struct {
	seen  []map[string]struct{}
	zones []ZoneMap
}

func newZoneAcc(ndims int) *zoneAcc {
	a := &zoneAcc{
		seen:  make([]map[string]struct{}, ndims),
		zones: make([]ZoneMap, ndims),
	}
	for i := range a.seen {
		a.seen[i] = make(map[string]struct{})
	}
	return a
}

// add folds one cell key at the given level. key may alias an input stream;
// it is copied if retained.
func (a *zoneAcc) add(level int, key []byte) {
	if _, ok := a.seen[level][string(key)]; ok {
		return
	}
	a.addNew(level, string(key))
}

func (a *zoneAcc) addNew(level int, key string) {
	a.seen[level][key] = struct{}{}
	z := &a.zones[level]
	if z.Distinct == 0 || key < z.Min {
		z.Min = key
	}
	if z.Distinct == 0 || key > z.Max {
		z.Max = key
	}
	z.Distinct++
}

// zoneMaps returns the cube's zone maps from its ALL chain. The node
// reached from the root through d ALL cells aggregates every fact over the
// first d dimensions, so its cells are exactly dimension d's distinct keys,
// sorted: the first is the minimum, the last the maximum, and their count
// the distinct count. Every cube built from facts, merged, or decoded from
// an encoder's output has that shape.
func (c *Cube) zoneMaps() []ZoneMap {
	zones := make([]ZoneMap, len(c.dims))
	for n := c.root; n != nil; n = n.AllChild {
		if k := len(n.Cells); k > 0 {
			zones[n.Level] = ZoneMap{Min: n.Cells[0].Key, Max: n.Cells[k-1].Key, Distinct: k}
		}
	}
	return zones
}

// appendMetaTrailer appends the v3 metadata section (body, body CRC, body
// length, magic) carrying the zone maps to an encoded stream — the same
// footer discipline the v2 offset trailer uses, so the section is
// self-describing and strippable from the end.
func appendMetaTrailer(out []byte, zones []ZoneMap) []byte {
	bodyStart := len(out)
	out = binary.AppendUvarint(out, uint64(len(zones)))
	for i := range zones {
		out = binary.AppendUvarint(out, uint64(zones[i].Distinct))
		out = binary.AppendUvarint(out, uint64(len(zones[i].Min)))
		out = append(out, zones[i].Min...)
		out = binary.AppendUvarint(out, uint64(len(zones[i].Max)))
		out = append(out, zones[i].Max...)
	}
	bodyLen := len(out) - bodyStart
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[bodyStart:]))
	out = binary.LittleEndian.AppendUint32(out, uint32(bodyLen))
	return append(out, metaMagic...)
}

// metaTrailerLen bounds the bytes appendMetaTrailer adds for zones.
func metaTrailerLen(zones []ZoneMap) int {
	n := binary.MaxVarintLen64 + metaFootLen
	for i := range zones {
		n += 3*binary.MaxVarintLen64 + len(zones[i].Min) + len(zones[i].Max)
	}
	return n
}

// parseZoneMaps decodes a CRC-validated v3 metadata body, enforcing every
// structural invariant pruning relies on: one map per cube dimension,
// min == max exactly when one key exists, min < max beyond that, empty
// bounds exactly when the dimension is empty, and the body fully consumed.
func parseZoneMaps(body []byte, ndims int) ([]ZoneMap, error) {
	cur := cursor{data: body, pos: 0, end: len(body)}
	nd, err := cur.uvarint()
	if err != nil {
		return nil, err
	}
	if nd != uint64(ndims) {
		return nil, errCorrupt("zone-map section covers %d dimensions, cube has %d", nd, ndims)
	}
	zones := make([]ZoneMap, ndims)
	for d := range zones {
		distinct, err := cur.uvarint()
		if err != nil {
			return nil, err
		}
		if distinct > math.MaxUint32 {
			return nil, errCorrupt("zone map %d: implausible distinct-key count %d", d, distinct)
		}
		min, err := cur.str()
		if err != nil {
			return nil, err
		}
		max, err := cur.str()
		if err != nil {
			return nil, err
		}
		switch {
		case distinct == 0:
			if len(min) != 0 || len(max) != 0 {
				return nil, errCorrupt("zone map %d: non-empty bounds with zero distinct keys", d)
			}
		case distinct == 1:
			if cmpKeys(min, max) != 0 {
				return nil, errCorrupt("zone map %d: min != max with one distinct key", d)
			}
		default:
			if cmpKeys(min, max) >= 0 {
				return nil, errCorrupt("zone map %d: min not below max with %d distinct keys", d, distinct)
			}
		}
		zones[d] = ZoneMap{Min: string(min), Max: string(max), Distinct: int(distinct)}
	}
	if cur.pos != cur.end {
		return nil, errCorrupt("zone-map section has %d trailing bytes", cur.end-cur.pos)
	}
	return zones, nil
}

// ZonesAdmit reports whether a segment with the given zone maps can hold
// any tuple matched by sels — the prune-before-scan test. It is
// deliberately conservative: nil or mismatched zones admit (an old segment
// without zone maps must always be scanned), and a dimension only rejects
// when its selector's key set or range provably misses [Min, Max]. The
// kernel's HasRange-shadows-Keys precedence is honored. Skipping a
// non-admitted segment never changes a merged answer: an absent key
// contributes the zero Aggregate, and MergeAggregates(x, zero) == x.
func ZonesAdmit(zones []ZoneMap, sels []Selector) bool {
	if len(zones) == 0 || len(zones) != len(sels) {
		return true
	}
	for d := range sels {
		s := &sels[d]
		switch {
		case s.HasRange:
			if s.Lo > s.Hi {
				return false // empty range matches nothing anywhere
			}
			z := &zones[d]
			if z.Distinct == 0 || s.Lo > z.Max || s.Hi < z.Min {
				return false
			}
		case len(s.Keys) > 0:
			z := &zones[d]
			if z.Distinct == 0 {
				return false
			}
			hit := false
			for _, k := range s.Keys {
				if k >= z.Min && k <= z.Max {
					hit = true
					break
				}
			}
			if !hit {
				return false
			}
		}
	}
	return true
}

// ZonesAdmitPoint is ZonesAdmit for a point query's key tuple: every bound
// (non-ALL) key must fall inside its dimension's [Min, Max].
func ZonesAdmitPoint(zones []ZoneMap, keys []string) bool {
	if len(zones) == 0 || len(zones) != len(keys) {
		return true
	}
	for d, k := range keys {
		if k == All {
			continue
		}
		z := &zones[d]
		if z.Distinct == 0 || k < z.Min || k > z.Max {
			return false
		}
	}
	return true
}
