// Package smartcity generates the deterministic synthetic feeds that stand
// in for the paper's Dublin/CitiBikes data streams (the intro's list: bike
// sharing, car parks, air-quality sensors, auctions and sales data). The
// generators reproduce the statistical shape that matters for the
// evaluation — a polling sensor fleet with strong prefix locality, bounded
// key cardinalities and 8 cube dimensions — and can emit their records as
// XML or JSON documents so the ingestion path is exercised end to end.
package smartcity

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dwarf"
)

// BikeRecord is one observation from the bike-sharing feed.
type BikeRecord struct {
	Timestamp      time.Time
	StationID      string
	Name           string
	Area           string
	Status         string
	BikesAvailable int
	DocksAvailable int
	Capacity       int
}

// BikeDims is the 8-dimension cube layout used throughout the evaluation
// ("All DWARFs contain 8 dimensions"). Time parts first gives the strong
// prefix locality of a polled feed.
var BikeDims = []string{"Year", "Month", "Day", "Hour", "Quarter", "Area", "Station", "Status"}

// Tuple maps the record onto the 8-dimension layout with the available-bike
// count as the measure.
func (r BikeRecord) Tuple() dwarf.Tuple {
	return dwarf.Tuple{
		Dims: []string{
			fmt.Sprintf("%04d", r.Timestamp.Year()),
			fmt.Sprintf("%02d", int(r.Timestamp.Month())),
			fmt.Sprintf("%02d", r.Timestamp.Day()),
			fmt.Sprintf("%02d", r.Timestamp.Hour()),
			fmt.Sprintf("q%d", r.Timestamp.Minute()/15),
			r.Area,
			r.StationID,
			r.Status,
		},
		Measure: float64(r.BikesAvailable),
	}
}

// BikeConfig tunes the feed generator. The zero value selects the defaults
// used by the Table 2 presets.
type BikeConfig struct {
	Seed            int64
	Stations        int     // default 80
	Areas           int     // default 12
	IntervalMinutes int     // polling interval, default 15
	DropoutRate     float64 // fraction of missed station reports, default 0.04
	Start           time.Time
}

func (c BikeConfig) withDefaults() BikeConfig {
	if c.Stations <= 0 {
		c.Stations = 80
	}
	if c.Areas <= 0 {
		c.Areas = 12
	}
	if c.IntervalMinutes <= 0 {
		c.IntervalMinutes = 15
	}
	if c.DropoutRate == 0 {
		c.DropoutRate = 0.04
	}
	if c.Start.IsZero() {
		// The paper's harvest period (late 2015, before the EDBT'16
		// deadline).
		c.Start = time.Date(2015, time.June, 1, 0, 0, 0, 0, time.UTC)
	}
	return c
}

// BikeFeed is an infinite deterministic stream of bike-share observations:
// every interval tick each station reports (minus dropouts), with the bike
// count doing a bounded random walk that dips in rush hours.
type BikeFeed struct {
	cfg      BikeConfig
	rng      *rand.Rand
	now      time.Time
	bikes    []int
	caps     []int
	station  int // next station to report this tick
	statuses []string
}

// NewBikeFeed builds the deterministic stream for a config.
func NewBikeFeed(cfg BikeConfig) *BikeFeed {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &BikeFeed{
		cfg:      cfg,
		rng:      rng,
		now:      cfg.Start,
		bikes:    make([]int, cfg.Stations),
		caps:     make([]int, cfg.Stations),
		statuses: []string{"open", "open", "open", "open", "open", "open", "full", "maintenance"},
	}
	for i := range f.caps {
		f.caps[i] = 10 + rng.Intn(31)
		f.bikes[i] = rng.Intn(f.caps[i] + 1)
	}
	return f
}

// Next returns the next observation.
func (f *BikeFeed) Next() BikeRecord {
	for {
		if f.station >= f.cfg.Stations {
			f.station = 0
			f.now = f.now.Add(time.Duration(f.cfg.IntervalMinutes) * time.Minute)
		}
		i := f.station
		f.station++
		// Random walk, biased down in rush hours and up at night.
		drift := 0
		switch h := f.now.Hour(); {
		case h >= 7 && h <= 9 || h >= 16 && h <= 18:
			drift = -1
		case h >= 22 || h <= 5:
			drift = 1
		}
		delta := f.rng.Intn(7) - 3 + drift
		f.bikes[i] += delta
		if f.bikes[i] < 0 {
			f.bikes[i] = 0
		}
		if f.bikes[i] > f.caps[i] {
			f.bikes[i] = f.caps[i]
		}
		if f.rng.Float64() < f.cfg.DropoutRate {
			continue // missed report; move on deterministically
		}
		status := f.statuses[f.rng.Intn(len(f.statuses))]
		if f.bikes[i] == f.caps[i] {
			status = "full"
		}
		return BikeRecord{
			Timestamp:      f.now,
			StationID:      fmt.Sprintf("station-%03d", i),
			Name:           fmt.Sprintf("Station %03d", i),
			Area:           fmt.Sprintf("area-%02d", i%f.cfg.Areas),
			Status:         status,
			BikesAvailable: f.bikes[i],
			DocksAvailable: f.caps[i] - f.bikes[i],
			Capacity:       f.caps[i],
		}
	}
}

// Take returns the next n observations.
func (f *BikeFeed) Take(n int) []BikeRecord {
	out := make([]BikeRecord, n)
	for i := range out {
		out[i] = f.Next()
	}
	return out
}

// Preset is one of the paper's five evaluation datasets (Table 2).
type Preset struct {
	Name string `json:"name"`
	// Tuples is the exact fact count of Table 2.
	Tuples int `json:"tuples"`
	// PaperMB is the source-data size the paper reports, for the Table 2
	// comparison row.
	PaperMB float64 `json:"paper_mb"`
	// Period is the human description from the paper.
	Period string `json:"period"`
}

// Presets mirrors Table 2: Day, Week, Month, TMonth (two months), SMonth
// (six months).
var Presets = []Preset{
	{Name: "Day", Tuples: 7358, PaperMB: 2.1, Period: "one day"},
	{Name: "Week", Tuples: 60102, PaperMB: 17.1, Period: "one week"},
	{Name: "Month", Tuples: 118934, PaperMB: 54.1, Period: "one month"},
	{Name: "TMonth", Tuples: 396756, PaperMB: 113, Period: "two months"},
	{Name: "SMonth", Tuples: 1181344, PaperMB: 338, Period: "six months"},
}

// PresetByName resolves a Table 2 dataset name.
func PresetByName(name string) (Preset, error) {
	for _, p := range Presets {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("smartcity: unknown preset %q (want Day/Week/Month/TMonth/SMonth)", name)
}

// DatasetRecords generates exactly the preset's observation count.
func DatasetRecords(name string) ([]BikeRecord, error) {
	p, err := PresetByName(name)
	if err != nil {
		return nil, err
	}
	return NewBikeFeed(BikeConfig{Seed: 2016}).Take(p.Tuples), nil
}

// Dataset generates the preset's fact tuples.
func Dataset(name string) ([]dwarf.Tuple, error) {
	recs, err := DatasetRecords(name)
	if err != nil {
		return nil, err
	}
	tuples := make([]dwarf.Tuple, len(recs))
	for i, r := range recs {
		tuples[i] = r.Tuple()
	}
	return tuples, nil
}
