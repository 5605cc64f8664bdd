package cubestore

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/dwarf"
)

// The manifest is the store's root of truth: a JSON file naming every live
// segment and the lowest WAL generation still covering unsealed tuples.
// Every state transition (seal, compaction) is committed by atomically
// replacing it — temp file, fsync, rename, directory fsync — so a crash
// leaves either the old state or the new one, never a mix. Files the
// manifest does not name are garbage by definition: segments not listed are
// orphans of an interrupted seal or compaction, WAL generations below
// WALGen were already sealed into a listed segment. Open deletes both.

const (
	manifestName    = "MANIFEST"
	manifestVersion = 1
	segPrefix       = "seg-"
	rollupPrefix    = "rollup-"
	segSuffix       = ".dwarf"
	tmpSuffix       = ".tmp"
)

// segmentMeta is one sealed segment's manifest entry.
type segmentMeta struct {
	// File is the segment's base name inside the store directory.
	File string `json:"file"`
	// Tuples is the number of source tuples sealed into the segment; it
	// determines the segment's compaction level.
	Tuples int `json:"tuples"`
	// Zones are the segment's per-dimension zone maps (min/max key plus
	// distinct-key count), duplicated from the file's v3 metadata section so
	// the planner prunes fan-out without opening the file. Absent for
	// segments sealed before zone maps existed — the planner then falls back
	// to the view's own maps, or scans unconditionally.
	Zones []dwarf.ZoneMap `json:"zones,omitempty"`
}

// rollupMeta is one rollup segment's manifest entry: a pre-aggregated cube
// over a subset of the store's dimensions, summarizing an exact set of
// sealed segments.
type rollupMeta struct {
	// File is the rollup's base name inside the store directory.
	File string `json:"file"`
	// Dims is the surviving dimension subset, in store dimension order.
	Dims []string `json:"dims"`
	// Covers lists the sealed segment files the rollup summarizes. The
	// rollup may only answer queries while every covered file is still
	// live — after a compaction replaces one, routing through the rollup
	// would double-count its tuples against the compacted output.
	Covers []string `json:"covers"`
	// Tuples is the rollup cube's own (coalesced) tuple count — the
	// planner's cost proxy when several rollups cover a query.
	Tuples int `json:"tuples"`
	// Zones are the rollup cube's zone maps over Dims (its own dimension
	// order, a subset of the store's).
	Zones []dwarf.ZoneMap `json:"zones,omitempty"`
}

// manifest is the persistent store state.
type manifest struct {
	Version int `json:"version"`
	// Dims is the cube dimension list, fixed at store creation.
	Dims []string `json:"dims"`
	// NextSegID names the next sealed, compacted or rollup file.
	NextSegID uint64 `json:"next_seg_id"`
	// WALGen is the lowest live WAL generation: generations below it are
	// sealed into segments and deleted on sight, generations at or above it
	// replay into the memtable on open.
	WALGen uint64 `json:"wal_gen"`
	// Generation counts visible state transitions (appends, seals,
	// compactions, rollup swaps). Persisted so reopening resumes a strictly
	// monotonic sequence; query caches stamp results with it.
	Generation uint64 `json:"generation"`
	// Segments lists the live segments, oldest first.
	Segments []segmentMeta `json:"segments"`
	// Rollups lists the live rollup segments, if any.
	Rollups []rollupMeta `json:"rollups,omitempty"`
}

func (m *manifest) clone() manifest {
	out := *m
	out.Dims = append([]string(nil), m.Dims...)
	out.Segments = append([]segmentMeta(nil), m.Segments...)
	out.Rollups = append([]rollupMeta(nil), m.Rollups...)
	return out
}

func segFileName(id uint64) string {
	return fmt.Sprintf("%s%016d%s", segPrefix, id, segSuffix)
}

func rollupFileName(id uint64) string {
	return fmt.Sprintf("%s%016d%s", rollupPrefix, id, segSuffix)
}

// isSegFile matches only the store's own seg-<16 digits>.dwarf names: the
// directory may be shared with foreign cube files (dwarfd -live serves
// static cubes from it), and orphan cleanup must never take those.
func isSegFile(name string) bool { return isStoreCubeFile(name, segPrefix) }

// isRollupFile matches the store's own rollup-<16 digits>.dwarf names.
func isRollupFile(name string) bool { return isStoreCubeFile(name, rollupPrefix) }

func isStoreCubeFile(name, prefix string) bool {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, segSuffix) {
		return false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), segSuffix)
	if len(mid) != 16 {
		return false
	}
	for _, c := range mid {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// isStoreTempFile matches only the store's own CreateTemp patterns —
// recovery must not delete a foreign .tmp file that happens to share the
// directory (dwarfd -live serves static cubes from it too).
func isStoreTempFile(name string) bool {
	if !strings.HasSuffix(name, tmpSuffix) {
		return false
	}
	return strings.HasPrefix(name, manifestName+"-") ||
		strings.HasPrefix(name, segPrefix) || strings.HasPrefix(name, rollupPrefix)
}

// Exists reports whether dir already holds a store (a manifest is
// present). Callers use it to decide whether Open needs Options.Dims.
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// loadManifest reads dir's manifest; ok is false when none exists yet.
func loadManifest(dir string) (manifest, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, false, fmt.Errorf("cubestore: manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return manifest{}, false, fmt.Errorf("cubestore: manifest version %d not supported", m.Version)
	}
	if len(m.Dims) == 0 {
		return manifest{}, false, fmt.Errorf("cubestore: manifest has no dimensions")
	}
	return m, true, nil
}

// writeManifest atomically replaces dir's manifest with m.
func writeManifest(dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, manifestName+"-*"+tmpSuffix)
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	return fsyncDir(dir)
}

// writeSegmentFile atomically writes a new segment or rollup file, durable
// before return: encode streams the cube bytes straight into a temp file,
// which is synced and renamed into place.
func writeSegmentFile(dir, name string, encode func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dir, segPrefix+"*"+tmpSuffix)
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	return fsyncDir(dir)
}
