// Package sfc implements the space filling curves the paper analyzes — the
// Z (Morton) curve, the Hilbert curve and the Gray-code curve — as
// bijections between cells of the discrete universe [0,2^k−1]^d and d*k-bit
// keys, together with the key-range machinery (standard-cube ranges and run
// merging) on which both the exhaustive and the ε-approximate point
// dominance searches are built.
package sfc

import (
	"fmt"
	mbits "math/bits"
	"slices"

	"sfccover/internal/bits"
)

// Curve is a proximity-preserving bijection between the cells of a
// d-dimensional universe with 2^k cells per dimension and the integers
// [0, 2^(d*k)). All curves here are recursive in the paper's sense, so
// every standard cube occupies one contiguous, block-aligned key range
// (Fact 2.1), which CubeRange exploits.
type Curve interface {
	// Name identifies the curve ("z", "hilbert", "gray").
	Name() string
	// Dims returns d, the number of dimensions.
	Dims() int
	// Bits returns k, the per-dimension resolution in bits.
	Bits() int
	// Key maps a cell (one coordinate per dimension, each < 2^k) to its
	// position in the curve's total order.
	Key(cell []uint32) bits.Key
	// Cell inverts Key.
	Cell(key bits.Key) []uint32
}

// MaxDims is the widest universe a curve accepts: a subscription schema
// has at most 8 attributes, each two dimensions of the covering index.
// HilbertCurve.Key transposes a cell in a stack buffer of this size.
const MaxDims = 16

// Config carries the two parameters every curve needs.
type Config struct {
	Dims int // d in [1,MaxDims]
	Bits int // k in [1,32]
}

// Validate checks that the universe fits the curves and the key width.
func (c Config) Validate() error {
	if c.Dims < 1 || c.Dims > MaxDims {
		return fmt.Errorf("sfc: dims %d out of range [1,%d]", c.Dims, MaxDims)
	}
	if c.Bits < 1 || c.Bits > 32 {
		return fmt.Errorf("sfc: bits %d out of range [1,32]", c.Bits)
	}
	if c.Dims*c.Bits > bits.KeyBits {
		return fmt.Errorf("sfc: key width %d exceeds %d bits", c.Dims*c.Bits, bits.KeyBits)
	}
	return nil
}

// New constructs a curve by name: "z", "hilbert" or "gray".
func New(name string, cfg Config) (Curve, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch name {
	case "z", "morton":
		return NewZ(cfg)
	case "hilbert":
		return NewHilbert(cfg)
	case "gray":
		return NewGray(cfg)
	default:
		return nil, fmt.Errorf("sfc: unknown curve %q", name)
	}
}

// Names lists the curve families New accepts, in their canonical order.
func Names() []string { return []string{"z", "hilbert", "gray"} }

// KeyRange is a closed interval [Lo, Hi] of curve keys. A run in the
// paper's terminology is a maximal KeyRange whose cells all belong to the
// region under consideration.
type KeyRange struct {
	Lo, Hi bits.Key
}

// Contains reports whether key lies within the range.
func (r KeyRange) Contains(k bits.Key) bool {
	return r.Lo.Cmp(k) <= 0 && k.Cmp(r.Hi) <= 0
}

// CubeRange returns the key range occupied by the standard cube with the
// given minimum corner and side length (a power of two). It relies on
// Fact 2.1: for recursive curves the cube's cells form one contiguous,
// block-aligned segment, so the range is the key of any member cell with
// its low d*log2(side) bits cleared/set. The corner has one coordinate per
// dimension, so d is len(corner).
func CubeRange(c Curve, corner []uint32, side uint64) KeyRange {
	low := len(corner) * mbits.Len64(side>>1) // floor(log2(side)); 0 for side <= 1
	k := c.Key(corner)
	return KeyRange{Lo: k.ClearLow(low), Hi: k.SetLow(low)}
}

// MergeRanges sorts ranges by Lo and coalesces ranges that touch
// (hi+1 == next lo) or overlap, returning the minimal set of maximal
// ranges — the runs. The input slice is not modified.
func MergeRanges(ranges []KeyRange) []KeyRange {
	if len(ranges) == 0 {
		return nil
	}
	sorted := append([]KeyRange(nil), ranges...)
	return MergeRangesInPlace(sorted)
}

// MergeRangesInPlace is MergeRanges for scratch buffers: the input slice
// is sorted and compacted in place and the merged runs are returned as a
// prefix of it — no allocation in steady state. Callers that need the
// original ranges must use MergeRanges.
func MergeRangesInPlace(ranges []KeyRange) []KeyRange {
	if len(ranges) == 0 {
		return nil
	}
	slices.SortFunc(ranges, compareRangeLo)
	n := 0
	for _, r := range ranges[1:] {
		next, ok := ranges[n].Hi.Inc()
		if ok && r.Lo.Cmp(next) <= 0 {
			if ranges[n].Hi.Less(r.Hi) {
				ranges[n].Hi = r.Hi
			}
			continue
		}
		n++
		ranges[n] = r
	}
	return ranges[:n+1]
}

// compareRangeLo orders key ranges by their low end. A package-level
// function keeps MergeRangesInPlace allocation-free: sort.Slice would
// allocate its closure (and sort.Sort its interface box) on every call.
func compareRangeLo(a, b KeyRange) int { return a.Lo.Cmp(b.Lo) }
