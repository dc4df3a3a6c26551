// Package cubes implements the standard-cube machinery of Sections 3 and 5:
// the greedy minimal partition of a region into standard cubes (Lemma 3.3),
// the closed-form per-level census for extremal rectangles (Lemmas 3.4–3.5),
// the Appendix-A key-enumeration algorithms, the t(ℓ,m) truncation that
// turns an exhaustive dominance query into an ε-approximate one
// (Lemma 3.2), and the conversion of cube partitions into SFC runs.
package cubes

import (
	"fmt"
	"math"
	"math/big"
	"sort"

	"sfccover/internal/bits"
	"sfccover/internal/geom"
	"sfccover/internal/sfc"
)

// Cube is a standard cube: a cube of the recursive bisection of the
// universe, with power-of-two side length and corner aligned to its side.
type Cube struct {
	Corner []uint32 // minimum corner, one coordinate per dimension
	Side   uint64   // power of two; 2^32 for the whole k=32 universe
}

// Level returns log2(Side), the depth complement of the cube: cells are
// level 0, the whole universe is level k.
func (c Cube) Level() int {
	lvl := 0
	for s := c.Side; s > 1; s >>= 1 {
		lvl++
	}
	return lvl
}

// Volume returns Side^d as a float64.
func (c Cube) Volume() float64 {
	v := 1.0
	for range c.Corner {
		v *= float64(c.Side)
	}
	return v
}

// Rect materializes the cube as a geometry rectangle.
func (c Cube) Rect() geom.Rect {
	return c.RectInto(make([]uint32, len(c.Corner)), make([]uint32, len(c.Corner)))
}

// RectInto is Rect writing into caller-provided scratch: lo and hi must
// each hold Dims coordinates. The returned rectangle aliases them, so
// hot paths can rematerialize cubes without allocating.
func (c Cube) RectInto(lo, hi []uint32) geom.Rect {
	for i, l := range c.Corner {
		lo[i] = l
		hi[i] = uint32(uint64(l) + c.Side - 1)
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// cubeRelation classifies the standard cube (corner, side) against r
// without materializing a rectangle: intersects reports a shared cell,
// inside that the cube lies entirely within r.
func cubeRelation(r geom.Rect, corner []uint32, side uint64) (intersects, inside bool) {
	inside = true
	for i, lo := range corner {
		hi := uint64(lo) + side - 1
		if hi < uint64(r.Lo[i]) || uint64(lo) > uint64(r.Hi[i]) {
			return false, false
		}
		if uint64(lo) < uint64(r.Lo[i]) || hi > uint64(r.Hi[i]) {
			inside = false
		}
	}
	return true, inside
}

func (c Cube) String() string { return fmt.Sprintf("Cube{corner=%v side=%d}", c.Corner, c.Side) }

// Decompose partitions the rectangle into the minimum number of standard
// cubes of the 2^k-per-dimension universe (the greedy partition of
// Lemma 3.3: every cell is grouped into the largest standard cube that
// still fits inside the rectangle). Cubes are emitted in recursive-
// partition order.
//
// The cost is proportional to the output size times d, which Theorem 4.1
// shows can be as large as Ω((2^(α−1)ℓ)^(d−1)) — that expense is exactly
// the paper's case for approximate search, so callers wanting bounded work
// must truncate the region first (see TruncateExtremal).
func Decompose(r geom.Rect, k int) ([]Cube, error) {
	var dc Decomposer
	cs, err := dc.Decompose(r, k, 0)
	if err != nil {
		return nil, err
	}
	return cloneCubes(cs), nil
}

// Runs converts a cube partition into the minimal set of SFC runs: each
// cube is a single contiguous key range (Fact 2.1) and adjacent ranges are
// merged, so len(Runs(...)) == runs(T) <= cubes(T) (Lemma 3.1).
func Runs(c sfc.Curve, cs []Cube) []sfc.KeyRange {
	ranges := make([]sfc.KeyRange, len(cs))
	for i, cube := range cs {
		ranges[i] = sfc.CubeRange(c, cube.Corner, cube.Side)
	}
	return sfc.MergeRanges(ranges)
}

// SortByVolumeDesc orders cubes largest-first, the probe order of the
// Section 5 algorithm (biggest volume gain per run access first).
// Ties are broken by corner order to keep the sort deterministic.
func SortByVolumeDesc(cs []Cube) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Side != cs[j].Side {
			return cs[i].Side > cs[j].Side
		}
		a, b := cs[i].Corner, cs[j].Corner
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
}

// ChooseM returns the truncation parameter m = ⌈log2(2d/ε)⌉ of Lemma 3.2:
// truncating every side length of the query region to its m most
// significant bits retains at least a (1−ε) fraction of its volume.
func ChooseM(eps float64, d int) (int, error) {
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("cubes: epsilon %v out of range (0,1)", eps)
	}
	if d < 1 {
		return 0, fmt.Errorf("cubes: dimension %d < 1", d)
	}
	return int(math.Ceil(math.Log2(2 * float64(d) / eps))), nil
}

// TruncateExtremal applies t(ℓ,m) with the Lemma 3.2 choice of m for the
// given ε, returning the truncated extremal rectangle R^m(ℓ) together with
// the m used. The truncated region is contained in e and covers at least a
// (1−ε) fraction of its volume.
func TruncateExtremal(e geom.Extremal, eps float64) (geom.Extremal, int, error) {
	m, err := ChooseM(eps, len(e.Len))
	if err != nil {
		return geom.Extremal{}, 0, err
	}
	return e.Truncate(m), m, nil
}

// LevelCensus returns, for an extremal rectangle R(ℓ), the exact number of
// standard cubes of side 2^i in its minimal partition for each
// i = 0..k (Lemmas 3.4–3.5):
//
//	N_i = (∏_j S_i(ℓ_j) − ∏_j S_{i+1}(ℓ_j)) / 2^(i·d)   when O_i = 1,
//	N_i = 0                                              when O_i = 0,
//
// computed exactly with big integers. Indices at or above b(ℓ_min) are
// zero by Lemma 3.4.
func LevelCensus(e geom.Extremal) []*big.Int {
	d := len(e.Len)
	counts := make([]*big.Int, e.K+1)
	for i := range counts {
		counts[i] = new(big.Int)
	}
	bmin := bits.B(e.Len[0])
	for _, l := range e.Len[1:] {
		if b := bits.B(l); b < bmin {
			bmin = b
		}
	}
	prodS := func(i int) *big.Int {
		p := big.NewInt(1)
		for _, l := range e.Len {
			p.Mul(p, new(big.Int).SetUint64(bits.S(l, i)))
		}
		return p
	}
	for i := 0; i < bmin; i++ {
		oi := false
		for _, l := range e.Len {
			if bits.BitOf(l, i) == 1 {
				oi = true
				break
			}
		}
		if !oi {
			continue
		}
		diff := prodS(i)
		diff.Sub(diff, prodS(i+1))
		diff.Rsh(diff, uint(i*d))
		counts[i] = diff
	}
	return counts
}

// CensusTotal sums a LevelCensus, giving cubes(R(ℓ)) exactly.
func CensusTotal(counts []*big.Int) *big.Int {
	total := new(big.Int)
	for _, c := range counts {
		total.Add(total, c)
	}
	return total
}

// UpperBoundCubes evaluates the Lemma 3.7 bound m·(2^α(2^m − 1))^(d−1) on
// cubes(R^m(ℓ)) for aspect ratio α, truncation m and dimension d.
func UpperBoundCubes(m, alpha, d int) float64 {
	base := math.Pow(2, float64(alpha)) * (math.Pow(2, float64(m)) - 1)
	return float64(m) * math.Pow(base, float64(d-1))
}

// LowerBoundRuns evaluates the Theorem 4.1 bound (2^(α−1)·ℓ_d)^(d−1) on
// runs(R(ℓ)) for the adversarial family with shortest side ℓ_d.
func LowerBoundRuns(alpha int, shortest uint64, d int) float64 {
	return math.Pow(math.Pow(2, float64(alpha))*float64(shortest)/2, float64(d-1))
}
