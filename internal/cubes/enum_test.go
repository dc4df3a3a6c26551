package cubes

import (
	"math/rand"
	"testing"
	"time"

	"sfccover/internal/bits"
	"sfccover/internal/geom"
)

// refEnumLevel is the Appendix-A level enumeration exactly as the paper
// states it: Algorithm 1 runs a pass for every dimension s whose length
// has bit i set, with no check that the pass can select a rectangle.
// It is the reference the pruned LevelEnum must reproduce cube for cube.
func refEnumLevel(e geom.Extremal, i int, visit func(corner []uint32, side uint64) bool) {
	d, k, lens := len(e.Len), e.K, e.Len
	p := make([]int, d)
	q := make([]uint32, d)
	stopped := false
	var compKeys func(t int)
	compKeys = func(t int) {
		var base uint32
		for y := p[t] + 1; y < k; y++ {
			if bits.BitOf(lens[t], y) == 0 {
				base |= 1 << uint(y)
			}
		}
		if p[t] < k && bits.BitOf(lens[t], p[t]) == 1 {
			base |= 1 << uint(p[t])
		}
		hi := min(p[t], k)
		for inst := uint64(0); inst < 1<<uint(hi-i) && !stopped; inst++ {
			q[t] = base | uint32(inst)<<uint(i)
			if t < d-1 {
				compKeys(t + 1)
			} else if !visit(q, 1<<uint(i)) {
				stopped = true
			}
		}
	}
	var rects func(s, t int)
	rects = func(s, t int) {
		next := func() {
			if t == d-1 {
				compKeys(0)
			} else {
				rects(s, t+1)
			}
		}
		if t == s {
			p[t] = i
			next()
			return
		}
		floor := i
		if t < s {
			floor = i + 1
		}
		for y := bits.B(lens[t]) - 1; y >= floor && !stopped; y-- {
			if bits.BitOf(lens[t], y) == 1 {
				p[t] = y
				next()
			}
		}
	}
	for s := 0; s < d && !stopped; s++ {
		if bits.BitOf(lens[s], i) == 1 {
			rects(s, 0)
		}
	}
}

// randomExtremal draws a region with every side length uniform in
// [1, 2^k].
func randomExtremal(rng *rand.Rand, d, k int) geom.Extremal {
	lens := make([]uint64, d)
	for j := range lens {
		lens[j] = uint64(rng.Int63n(1<<uint(k))) + 1
	}
	return geom.MustExtremal(lens, k)
}

// TestLevelEnumMatchesUnprunedReference: skipping the passes that select
// no rectangle must not change a single cube or its position, on every
// level of random regions at d ≤ 5, raw and Lemma 3.2-truncated (the
// truncated ones are where dimensions run out of high bits).
func TestLevelEnumMatchesUnprunedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var le LevelEnum
	for trial := 0; trial < 3000; trial++ {
		// d·k ≤ 15 keeps every full partition small.
		d := 1 + rng.Intn(5)
		k := 1 + rng.Intn(15/d)
		e := randomExtremal(rng, d, k)
		if trial%2 == 1 {
			tr, _, err := TruncateExtremal(e, 0.05+0.9*rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			e = tr
		}
		for level := k; level >= 0; level-- {
			var want []Cube
			refEnumLevel(e, level, func(corner []uint32, side uint64) bool {
				want = append(want, Cube{Corner: append([]uint32(nil), corner...), Side: side})
				return true
			})
			var got []Cube
			if err := le.Visit(e, level, func(corner []uint32, side uint64) bool {
				got = append(got, Cube{Corner: append([]uint32(nil), corner...), Side: side})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			sameCubes(t, "level enumeration", got, want)
		}
	}
}

// TestLevelEnumWideRegionsRespectCubeCap: at d = 16, k = 16 a capped
// largest-first enumeration must cost in proportion to the cubes it
// emits. Before dead passes were skipped, one of these regions walked
// the product of the earlier dimensions' bit choices for ~19 s while
// emitting nothing, so the cap never bound.
func TestLevelEnumWideRegionsRespectCubeCap(t *testing.T) {
	const (
		d, k     = 16, 16
		regions  = 300
		maxCubes = 2000
	)
	rng := rand.New(rand.NewSource(16))
	var le LevelEnum
	start := time.Now()
	for r := 0; r < regions; r++ {
		e := randomExtremal(rng, d, k)
		n := 0
		for level := k; level >= 0 && n < maxCubes; level-- {
			if err := le.Visit(e, level, func([]uint32, uint64) bool {
				n++
				return n < maxCubes
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("%d capped enumerations at d=%d took %v, want well under 5s", regions, d, el)
	}
}
