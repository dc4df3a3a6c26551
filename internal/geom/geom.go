// Package geom models the d-dimensional discrete universe of the paper:
// axis-aligned rectangles of cells in [0, 2^k - 1]^d, the extremal
// rectangles R(ℓ) anchored at the maximum corner, volumes and the paper's
// bit-length aspect ratio α = b(ℓ_max) − b(ℓ_min).
package geom

import (
	"fmt"

	"sfccover/internal/bits"
)

// Rect is a closed axis-aligned box of cells: Lo[i] <= x_i <= Hi[i].
// The zero value is not a valid rectangle; construct with NewRect.
type Rect struct {
	Lo, Hi []uint32
}

// NewRect builds a rectangle from inclusive corner coordinates. It returns
// an error when the slices disagree in length, are empty, or lo > hi on any
// dimension.
func NewRect(lo, hi []uint32) (Rect, error) {
	if len(lo) == 0 || len(lo) != len(hi) {
		return Rect{}, fmt.Errorf("geom: corner dimension mismatch: %d vs %d", len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Rect{}, fmt.Errorf("geom: inverted range on dimension %d: [%d,%d]", i, lo[i], hi[i])
		}
	}
	return Rect{Lo: append([]uint32(nil), lo...), Hi: append([]uint32(nil), hi...)}, nil
}

// MustRect is NewRect for statically known-good literals (tests, examples).
func MustRect(lo, hi []uint32) Rect {
	r, err := NewRect(lo, hi)
	if err != nil {
		panic(err)
	}
	return r
}

// Dims returns the number of dimensions.
func (r Rect) Dims() int { return len(r.Lo) }

// Side returns the side length (cell count) along dimension i.
func (r Rect) Side(i int) uint64 { return uint64(r.Hi[i]) - uint64(r.Lo[i]) + 1 }

// Volume returns the number of cells in r as a float64. Universes are
// capped at d*k <= 256 bits, so a volume stays far below the float64
// overflow threshold of 2^1024, and float64 is exact enough for the (1−ε)
// coverage accounting the algorithm performs.
func (r Rect) Volume() float64 {
	v := 1.0
	for i := range r.Lo {
		v *= float64(r.Side(i))
	}
	return v
}

// Contains reports whether the cell p lies inside r.
func (r Rect) Contains(p []uint32) bool {
	for i := range r.Lo {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether o is entirely inside r.
func (r Rect) ContainsRect(o Rect) bool {
	for i := range r.Lo {
		if o.Lo[i] < r.Lo[i] || o.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and o share at least one cell.
func (r Rect) Intersects(o Rect) bool {
	for i := range r.Lo {
		if o.Hi[i] < r.Lo[i] || o.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Equal reports whether r and o are the same box.
func (r Rect) Equal(o Rect) bool {
	if r.Dims() != o.Dims() {
		return false
	}
	for i := range r.Lo {
		if r.Lo[i] != o.Lo[i] || r.Hi[i] != o.Hi[i] {
			return false
		}
	}
	return true
}

func (r Rect) String() string { return fmt.Sprintf("Rect{lo=%v hi=%v}", r.Lo, r.Hi) }

// Extremal is the paper's extremal rectangle R(ℓ): the box whose corner is
// pinned at (2^k−1, ..., 2^k−1) and whose side length along dimension i is
// Len[i], with 1 <= Len[i] <= 2^k.
type Extremal struct {
	Len []uint64
	K   int
}

// NewExtremal validates side lengths against the universe size 2^k.
func NewExtremal(lens []uint64, k int) (Extremal, error) {
	if len(lens) == 0 {
		return Extremal{}, fmt.Errorf("geom: extremal rectangle needs at least one dimension")
	}
	if k <= 0 || k > 32 {
		return Extremal{}, fmt.Errorf("geom: universe bits k=%d out of range [1,32]", k)
	}
	for i, l := range lens {
		if l < 1 || l > 1<<uint(k) {
			return Extremal{}, fmt.Errorf("geom: side %d length %d out of range [1,2^%d]", i, l, k)
		}
	}
	return Extremal{Len: append([]uint64(nil), lens...), K: k}, nil
}

// MustExtremal is NewExtremal for known-good literals.
func MustExtremal(lens []uint64, k int) Extremal {
	e, err := NewExtremal(lens, k)
	if err != nil {
		panic(err)
	}
	return e
}

// Rect materializes the extremal rectangle as a concrete box:
// dimension i spans [2^k − Len[i], 2^k − 1].
func (e Extremal) Rect() Rect {
	max := uint64(1) << uint(e.K)
	lo := make([]uint32, len(e.Len))
	hi := make([]uint32, len(e.Len))
	for i, l := range e.Len {
		lo[i] = uint32(max - l)
		hi[i] = uint32(max - 1)
	}
	return Rect{Lo: lo, Hi: hi}
}

// Volume returns the cell count of R(ℓ).
func (e Extremal) Volume() float64 {
	v := 1.0
	for _, l := range e.Len {
		v *= float64(l)
	}
	return v
}

// AspectRatio returns α = b(ℓ_max) − b(ℓ_min), the paper's bit-length
// aspect ratio (≈ log2 of the classical longest/shortest ratio).
func (e Extremal) AspectRatio() int {
	bmin, bmax := bits.B(e.Len[0]), bits.B(e.Len[0])
	for _, l := range e.Len[1:] {
		b := bits.B(l)
		if b < bmin {
			bmin = b
		}
		if b > bmax {
			bmax = b
		}
	}
	return bmax - bmin
}

// Truncate returns R(t(ℓ,m)): every side length truncated to its m most
// significant bits (Section 3.1). The result is contained in e and, by
// Lemma 3.2, covers at least a (1 − 2d/2^m) fraction of e's volume.
func (e Extremal) Truncate(m int) Extremal {
	return Extremal{Len: bits.TVec(e.Len, m), K: e.K}
}

// Sub returns R(S_i(ℓ)) — side lengths restricted to bits i and above —
// which Lemma 3.4 identifies as the region occupied by all standard cubes
// of side 2^i or larger in the greedy partition. The zero-length case
// (S_i(ℓ_j) = 0 for some j) yields an empty region; Empty reports it.
func (e Extremal) Sub(i int) Extremal {
	return Extremal{Len: bits.SVec(e.Len, i), K: e.K}
}

// Empty reports whether any side length is zero (possible only for
// truncated/sub rectangles, since NewExtremal requires positive lengths).
func (e Extremal) Empty() bool {
	for _, l := range e.Len {
		if l == 0 {
			return true
		}
	}
	return false
}

// QueryRegion builds the extremal rectangle of the dominance query at point
// q: the region [q_1, 2^k−1] × ... × [q_d, 2^k−1], whose side lengths are
// ℓ_i = 2^k − q_i.
func QueryRegion(q []uint32, k int) Extremal {
	lens := make([]uint64, len(q))
	max := uint64(1) << uint(k)
	for i, x := range q {
		lens[i] = max - uint64(x)
	}
	return Extremal{Len: lens, K: k}
}

// Dominates reports whether point a dominates point b: a_i >= b_i on every
// dimension. This is the covering test after the Edelsbrunner–Overmars
// transform.
func Dominates(a, b []uint32) bool {
	for i := range a {
		if a[i] < b[i] {
			return false
		}
	}
	return true
}
