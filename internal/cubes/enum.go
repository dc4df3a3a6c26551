package cubes

import (
	"fmt"

	"sfccover/internal/bits"
	"sfccover/internal/geom"
)

// EnumLevelCubes enumerates the set D_i — the standard cubes of side 2^i in
// the greedy partition of the extremal rectangle R(ℓ) — using the paper's
// Appendix-A algorithm (Algorithms 1–3 driven by Equation 1), which emits
// each cube in O(d·k) time without touching the rest of the partition.
//
// The space occupied by D_i is first decomposed into disjoint rectangles,
// one per instance of the selection vector P (P[x] is the index of a
// nonzero bit chosen from ℓ_x, with exactly one dimension s pinned to
// P[s] = i and earlier dimensions forced above i to avoid duplicates); the
// cubes inside each rectangle are then enumerated by instantiating the free
// bits of the coordinate vector Q per Equation 1.
func EnumLevelCubes(e geom.Extremal, level int) ([]Cube, error) {
	var out []Cube
	err := EnumLevelVisit(e, level, func(corner []uint32, side uint64) bool {
		out = append(out, Cube{Corner: append([]uint32(nil), corner...), Side: side})
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EnumLevelVisit is the callback form of EnumLevelCubes: visit is
// called once per cube of D_i with the cube's minimum corner and side. The
// corner slice is reused between calls and must not be retained. Returning
// false stops the enumeration early (EnumLevelVisit still returns nil).
// This is the query hot path: the Section 5 search probes each cube's key
// range the moment it is enumerated and stops at the first hit. Callers
// that enumerate repeatedly should hold a LevelEnum instead — this form
// allocates its enumerator state per call.
func EnumLevelVisit(e geom.Extremal, level int, visit func(corner []uint32, side uint64) bool) error {
	var le LevelEnum
	return le.Visit(e, level, visit)
}

// LevelEnum is reusable scratch for the Appendix-A level enumeration:
// the selection and coordinate vectors (and the enumerator frame) are
// kept between calls, so a worker that owns a LevelEnum enumerates with
// zero allocations in steady state. Not safe for concurrent use.
type LevelEnum struct {
	en enumerator
}

// Visit is EnumLevelVisit against the reusable state.
//
//sfc:hotpath
func (le *LevelEnum) Visit(e geom.Extremal, level int, visit func(corner []uint32, side uint64) bool) error {
	d := len(e.Len)
	k := e.K
	if level < 0 || level > k {
		return fmt.Errorf("cubes: level %d out of range [0,%d]", level, k)
	}
	en := &le.en
	if cap(en.p) < d {
		en.p = make([]int, d)
		en.q = make([]uint32, d)
	}
	en.p, en.q = en.p[:d], en.q[:d]
	en.lens, en.d, en.k, en.i = e.Len, d, k, level
	en.visit, en.stopped = visit, false
	// Algorithm 1: one pass per dimension s whose length has bit i set,
	// skipping passes that would select no rectangle at all.
	for s := 0; s < d && !en.stopped; s++ {
		if bits.BitOf(e.Len[s], level) == 1 {
			en.s = s
			if en.passYields() {
				en.enumRectangles(0)
			}
		}
	}
	// Drop the references so the scratch does not pin caller state.
	en.visit, en.lens = nil, nil
	return nil
}

type enumerator struct {
	lens    []uint64
	d, k    int
	i       int      // cube level: side 2^i
	s       int      // dimension pinned to bit exactly i
	p       []int    // current selection vector P
	q       []uint32 // current coordinate vector Q (reused)
	visit   func(corner []uint32, side uint64) bool
	stopped bool
}

// passYields reports whether the pass pinned at dimension s selects any
// rectangle: every earlier dimension needs a nonzero bit above i and
// every later one a nonzero bit at or above i. Choices are independent
// per dimension, so a pass that passes this O(d) check reaches a
// rectangle on every branch; one that fails it would walk the product of
// the earlier dimensions' choices and emit nothing, unbounded by any
// cube budget (at d = 16 such a walk can run for seconds).
func (en *enumerator) passYields() bool {
	for t, l := range en.lens {
		if (t < en.s && l>>uint(en.i+1) == 0) || (t > en.s && l>>uint(en.i) == 0) {
			return false
		}
	}
	return true
}

// enumRectangles is Algorithm 3: choose a nonzero bit P[t] from ℓ_t for
// every dimension t, with the constraints that keep rectangles disjoint.
func (en *enumerator) enumRectangles(t int) {
	if en.stopped {
		return
	}
	advance := func() {
		if t == en.d-1 {
			en.compKeys(0)
		} else {
			en.enumRectangles(t + 1)
		}
	}
	switch {
	case t == en.s:
		en.p[t] = en.i
		advance()
	case t < en.s:
		// Dimensions before s must select strictly above i (duplicates guard).
		for y := bits.B(en.lens[t]) - 1; y >= en.i+1 && !en.stopped; y-- {
			if bits.BitOf(en.lens[t], y) == 1 {
				en.p[t] = y
				advance()
			}
		}
	default: // t > en.s
		for y := bits.B(en.lens[t]) - 1; y >= en.i && !en.stopped; y-- {
			if bits.BitOf(en.lens[t], y) == 1 {
				en.p[t] = y
				advance()
			}
		}
	}
}

// compKeys is Algorithm 2: instantiate the coordinate vector Q for the
// rectangle denoted by P, one dimension at a time, enumerating every
// combination of the free bits below P[t] (Equation 1). The fixed bits are
//
//	Q_{t,y} = ¬ℓ_{t,y} for y in (P[t], k−1],
//	Q_{t,y} =  ℓ_{t,y} for y = P[t],
//	Q_{t,y} ∈ {0,1}    for y in [i, P[t]),   and 0 below i (cube alignment).
func (en *enumerator) compKeys(t int) {
	var base uint32
	for y := en.p[t] + 1; y < en.k; y++ {
		if bits.BitOf(en.lens[t], y) == 0 {
			base |= 1 << uint(y)
		}
	}
	// P[t] == k occurs only for ℓ_t = 2^k (full span); that bit lies outside
	// the k-bit coordinate and contributes nothing to the corner.
	if en.p[t] < en.k && bits.BitOf(en.lens[t], en.p[t]) == 1 {
		base |= 1 << uint(en.p[t])
	}
	freeLo, freeHi := en.i, en.p[t] // free bit positions are [freeLo, freeHi)
	if freeHi > en.k {
		freeHi = en.k
	}
	nFree := freeHi - freeLo
	for inst := uint64(0); inst < 1<<uint(nFree) && !en.stopped; inst++ {
		en.q[t] = base | uint32(inst)<<uint(freeLo)
		if t == en.d-1 {
			if !en.visit(en.q, 1<<uint(en.i)) {
				en.stopped = true
			}
		} else {
			en.compKeys(t + 1)
		}
	}
}

// EnumAllCubes runs EnumLevelCubes for every level, yielding the complete
// greedy partition of R(ℓ) via the Appendix-A route (for cross-validation
// against Decompose, and for callers that want the partition level-major,
// largest cubes first).
func EnumAllCubes(e geom.Extremal) ([]Cube, error) {
	var out []Cube
	for level := e.K; level >= 0; level-- {
		cs, err := EnumLevelCubes(e, level)
		if err != nil {
			return nil, err
		}
		out = append(out, cs...)
	}
	return out, nil
}
