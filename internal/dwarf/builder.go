package dwarf

import (
	"errors"
	"fmt"
	"math"
)

// Tuple is one fact: a key per dimension plus the measure, the shape the
// paper's Fig. 1 feeds into cube construction:
// (dimension_1, ..., dimension_n, measure).
type Tuple struct {
	Dims    []string
	Measure float64
}

// Options tune cube construction. The zero value enables all DWARF
// compression; the Disable* switches exist for the ablation benchmarks and
// are read only by New and NewFromAggregates, whose stream builder applies
// them (see Scratch.build).
type Options struct {
	// DisableSuffixCoalescing materializes every ALL sub-dwarf and every
	// single-input merge as a private deep copy instead of sharing the
	// sub-dwarf. It turns hash-consing off too: the result is the
	// uncompressed cube tree.
	DisableSuffixCoalescing bool
	// DisableHashConsing turns off cross-branch detection of structurally
	// identical sub-dwarfs. Construction-time suffix coalescing (single
	// input merges) still shares sub-dwarfs unless DisableSuffixCoalescing
	// is also set.
	DisableHashConsing bool
}

// Option mutates Options.
type Option func(*Options)

// WithoutSuffixCoalescing disables pointer sharing of identical sub-dwarfs.
func WithoutSuffixCoalescing() Option {
	return func(o *Options) { o.DisableSuffixCoalescing = true }
}

// WithoutHashConsing disables cross-branch identical sub-dwarf detection.
func WithoutHashConsing() Option {
	return func(o *Options) { o.DisableHashConsing = true }
}

// Cube is a built DWARF cube. Cubes are immutable after construction.
type Cube struct {
	dims      []string
	root      *Node
	numTuples int
	// FromQuery mirrors the paper's is_cube flag: true when this cube was
	// produced by querying/extracting from another DWARF rather than built
	// directly from source tuples.
	FromQuery bool
}

// Validation errors returned by New and related constructors.
var (
	ErrNoDimensions   = errors.New("dwarf: cube needs at least one dimension")
	ErrDimMismatch    = errors.New("dwarf: tuple dimension count does not match cube dimensions")
	ErrReservedKey    = errors.New("dwarf: tuple uses the reserved wildcard key")
	ErrDimsMismatch   = errors.New("dwarf: cubes have different dimension lists")
	ErrBadQuery       = errors.New("dwarf: query key count does not match cube dimensions")
	ErrNotFiniteValue = errors.New("dwarf: measure must be a finite number")
)

// ValidateTuple checks one fact tuple against the construction rules New
// enforces: dimension count, no reserved wildcard key, finite measure.
// Callers that persist tuples before building — the live store logs a
// batch to its WAL ahead of the memtable — validate with this same
// function, so an accepted batch can never fail to build on replay.
func ValidateTuple(t Tuple, ndims int) error {
	if len(t.Dims) != ndims {
		return fmt.Errorf("%w: tuple has %d dims, want %d", ErrDimMismatch, len(t.Dims), ndims)
	}
	for _, k := range t.Dims {
		if k == All {
			return fmt.Errorf("%w: %q", ErrReservedKey, All)
		}
	}
	if math.IsNaN(t.Measure) || math.IsInf(t.Measure, 0) {
		return ErrNotFiniteValue
	}
	return nil
}

// New constructs a DWARF cube from the given fact tuples. The tuple slice is
// not modified. Duplicate dimension key combinations are merged into one
// leaf aggregate. The cube is BuildIndexed's stream decoded: New and the
// store's seals run one construction, so a cube's EncodeIndexed bytes are
// the bytes BuildIndexed writes for the same facts.
func New(dims []string, tuples []Tuple, opts ...Option) (*Cube, error) {
	if err := validateTuples(dims, tuples); err != nil {
		return nil, err
	}
	return decodeBuild(dims, rawFacts(tuples), len(tuples), opts)
}

// validateTuples checks raw facts with ValidateTuple, naming the first bad
// one, and then that the cube has dimensions.
func validateTuples(dims []string, tuples []Tuple) error {
	for i := range tuples {
		if err := ValidateTuple(tuples[i], len(dims)); err != nil {
			return fmt.Errorf("tuple %d: %w", i, err)
		}
	}
	if len(dims) == 0 {
		return ErrNoDimensions
	}
	return nil
}

// validateAggTuples checks pre-aggregated facts against the cube's
// dimensions and returns their source tuple count, the sum of the
// aggregate counts.
func validateAggTuples(dims []string, tuples []AggTuple) (int, error) {
	if len(dims) == 0 {
		return 0, ErrNoDimensions
	}
	numTuples := 0
	for i := range tuples {
		if len(tuples[i].Dims) != len(dims) {
			return 0, fmt.Errorf("%w: tuple %d has %d dims, cube has %d",
				ErrDimMismatch, i, len(tuples[i].Dims), len(dims))
		}
		for _, k := range tuples[i].Dims {
			if k == All {
				return 0, fmt.Errorf("%w: %q in tuple %d", ErrReservedKey, All, i)
			}
		}
		numTuples += int(tuples[i].Agg.Count)
	}
	return numTuples, nil
}

// AggTuple is a fact carrying full aggregate state instead of a raw
// measure; rollups and re-materializations use it to preserve counts and
// min/max through a rebuild.
type AggTuple struct {
	Dims []string
	Agg  Aggregate
}

// NewFromAggregates constructs a cube from pre-aggregated facts, as New
// does from raw ones. The source tuple count is the sum of the aggregate
// counts.
func NewFromAggregates(dims []string, tuples []AggTuple, opts ...Option) (*Cube, error) {
	numTuples, err := validateAggTuples(dims, tuples)
	if err != nil {
		return nil, err
	}
	return decodeBuild(dims, aggFacts(tuples), numTuples, opts)
}

// decodeBuild builds validated facts into a stream under opts and decodes
// it into a node graph.
func decodeBuild(dims []string, f facts, numTuples int, opts []Option) (*Cube, error) {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	data, err := new(Scratch).build(dims, f, uint64(numTuples), o)
	if err != nil {
		return nil, err
	}
	return DecodeBytes(data)
}

// Dims returns the cube's dimension names in order.
func (c *Cube) Dims() []string { return append([]string(nil), c.dims...) }

// NumDims returns the number of dimensions.
func (c *Cube) NumDims() int { return len(c.dims) }

// NumSourceTuples returns how many fact tuples were folded into the cube
// (before duplicate-key merging).
func (c *Cube) NumSourceTuples() int { return c.numTuples }

// Root returns the top-level node, the entry point of all traversals.
func (c *Cube) Root() *Node { return c.root }

func commonPrefix(a, b []string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
