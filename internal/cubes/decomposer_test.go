package cubes

import (
	"errors"
	"math/rand"
	"testing"

	"sfccover/internal/geom"
	"sfccover/internal/sfc"
)

func randomRect(rng *rand.Rand, d, k int) geom.Rect {
	max := uint32(1)<<uint(k) - 1
	lo := make([]uint32, d)
	hi := make([]uint32, d)
	for i := 0; i < d; i++ {
		a, b := rng.Uint32()&max, rng.Uint32()&max
		if a > b {
			a, b = b, a
		}
		lo[i], hi[i] = a, b
	}
	return geom.MustRect(lo, hi)
}

func sameCubes(t *testing.T, label string, got, want []Cube) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: cube count %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Side != want[i].Side {
			t.Fatalf("%s: cube %d side %d, want %d", label, i, got[i].Side, want[i].Side)
		}
		for j := range got[i].Corner {
			if got[i].Corner[j] != want[i].Corner[j] {
				t.Fatalf("%s: cube %d corner %v, want %v", label, i, got[i].Corner, want[i].Corner)
			}
		}
	}
}

// TestDecomposerMatchesDecompose checks the arena-backed decomposer
// against the package-level entry point — same cubes, same order —
// while reusing one Decomposer across many rectangles, and that a cube
// limit admits exactly the partitions that fit in it.
func TestDecomposerMatchesDecompose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var dc Decomposer
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(3)
		k := 2 + rng.Intn(5)
		r := randomRect(rng, d, k)
		want, err := Decompose(r, k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dc.Decompose(r, k, len(want)-1); len(want) > 1 && !errors.Is(err, ErrCubeLimit) {
			t.Fatalf("limit %d on a %d-cube partition: err = %v, want ErrCubeLimit", len(want)-1, len(want), err)
		}
		got, err := dc.Decompose(r, k, len(want))
		if err != nil {
			t.Fatal(err)
		}
		sameCubes(t, "decompose", got, want)
		curve := sfc.MustZ(d, k)
		wantRuns := Runs(curve, want)
		gotRuns := dc.Runs(curve, got)
		if len(gotRuns) != len(wantRuns) {
			t.Fatalf("runs: %d, want %d", len(gotRuns), len(wantRuns))
		}
		for i := range gotRuns {
			if gotRuns[i] != wantRuns[i] {
				t.Fatalf("run %d: %v, want %v", i, gotRuns[i], wantRuns[i])
			}
		}
	}
}

// TestDecomposerBudgetMatches checks the budgeted form under every
// stopping condition: no stop, volume target, hard cap.
func TestDecomposerBudgetMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var dc Decomposer
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(3)
		k := 2 + rng.Intn(5)
		r := randomRect(rng, d, k)
		target := 0.0
		if trial%3 == 1 {
			target = (1 - 0.3) * r.Volume()
		}
		maxCubes := 0
		if trial%3 == 2 {
			maxCubes = 1 + rng.Intn(20)
		}
		want, err := DecomposeBudget(r, k, target, maxCubes)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dc.DecomposeBudget(r, k, target, maxCubes)
		if err != nil {
			t.Fatal(err)
		}
		sameCubes(t, "budget", got.Cubes, want.Cubes)
		if got.Volume != want.Volume || got.Complete != want.Complete ||
			got.LowestLevel != want.LowestLevel || got.LowestLevelComplete != want.LowestLevelComplete {
			t.Fatalf("budget result %+v, want %+v", got, want)
		}
	}
}

// TestDecomposerSteadyStateZeroAlloc pins the tentpole property: after
// warmup, decompose + runs on the same worker allocate nothing.
func TestDecomposerSteadyStateZeroAlloc(t *testing.T) {
	var dc Decomposer
	r := geom.MustRect([]uint32{3, 1}, []uint32{13, 14})
	curve := sfc.MustZ(2, 4)
	work := func() {
		cs, err := dc.Decompose(r, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		dc.Runs(curve, cs)
		if _, err := dc.DecomposeBudget(r, 4, 0.7*r.Volume(), 0); err != nil {
			t.Fatal(err)
		}
	}
	work() // warm the arenas
	if allocs := testing.AllocsPerRun(100, work); allocs != 0 {
		t.Fatalf("steady-state decomposition allocates %v per run, want 0", allocs)
	}
}

// TestLevelEnumSteadyStateZeroAlloc pins the same property for the
// Appendix-A enumerator scratch.
func TestLevelEnumSteadyStateZeroAlloc(t *testing.T) {
	var le LevelEnum
	e := geom.MustExtremal([]uint64{13, 6}, 4)
	n := 0
	visit := func(corner []uint32, side uint64) bool { n++; return true }
	work := func() {
		for level := e.K; level >= 0; level-- {
			if err := le.Visit(e, level, visit); err != nil {
				t.Fatal(err)
			}
		}
	}
	work()
	if allocs := testing.AllocsPerRun(100, work); allocs != 0 {
		t.Fatalf("steady-state enumeration allocates %v per run, want 0", allocs)
	}
}

// TestRectInto checks the scratch form against Rect.
func TestRectInto(t *testing.T) {
	c := Cube{Corner: []uint32{4, 8, 0}, Side: 4}
	lo := make([]uint32, 3)
	hi := make([]uint32, 3)
	got := c.RectInto(lo, hi)
	want := c.Rect()
	if !got.Equal(want) {
		t.Fatalf("RectInto = %v, want %v", got, want)
	}
	if &got.Lo[0] != &lo[0] || &got.Hi[0] != &hi[0] {
		t.Fatal("RectInto should alias the caller's scratch")
	}
}
