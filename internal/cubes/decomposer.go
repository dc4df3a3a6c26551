package cubes

import (
	"errors"
	"fmt"

	"sfccover/internal/geom"
	"sfccover/internal/sfc"
)

// Decomposer is reusable scratch for the greedy standard-cube
// decompositions: cube corners live in one flat backing array and the
// recursion stack, refinement frontier and run buffers are kept between
// calls, so a worker that owns a Decomposer performs decompositions with
// zero allocations in steady state.
//
// The cubes (and runs) returned by its methods alias the Decomposer's
// arenas and are valid only until the next call; callers that retain
// them must copy. A Decomposer is not safe for concurrent use — give
// each worker its own.
type Decomposer struct {
	arena    []uint32  // flat corner storage, one d-coordinate group per cube
	stack    []cubeRef // DFS stack (Decompose)
	frontier []cubeRef // BFS frontier (DecomposeBudget)
	next     []cubeRef // BFS next level
	refs     []cubeRef // emitted cubes as arena references
	out      []Cube    // materialized headers over the arena
	ranges   []sfc.KeyRange
}

// ErrCubeLimit reports a decomposition that needs more standard cubes than
// the caller's limit allows.
var ErrCubeLimit = errors.New("cubes: decomposition exceeds the cube limit")

// cubeRef names a standard cube by its corner's arena offset and side:
// offsets stay valid across arena growth where slices would not.
type cubeRef struct {
	off  int
	side uint64
}

// alloc reserves one d-coordinate corner group and returns its offset.
func (dc *Decomposer) alloc(d int) int {
	off := len(dc.arena)
	for i := 0; i < d; i++ {
		dc.arena = append(dc.arena, 0)
	}
	return off
}

// materialize builds the []Cube view of the emitted refs over the arena.
func (dc *Decomposer) materialize(d int) []Cube {
	if cap(dc.out) < len(dc.refs) {
		dc.out = make([]Cube, len(dc.refs))
	}
	dc.out = dc.out[:len(dc.refs)]
	for i, ref := range dc.refs {
		dc.out[i] = Cube{Corner: dc.arena[ref.off : ref.off+d : ref.off+d], Side: ref.side}
	}
	return dc.out
}

func checkUniverse(r geom.Rect, k int) error {
	if k < 1 || k > 32 {
		return fmt.Errorf("cubes: universe bits k=%d out of range [1,32]", k)
	}
	max := uint64(1) << uint(k)
	for i := 0; i < r.Dims(); i++ {
		if uint64(r.Hi[i]) >= max {
			return fmt.Errorf("cubes: rectangle exceeds universe on dimension %d: hi=%d >= 2^%d", i, r.Hi[i], k)
		}
	}
	return nil
}

// Decompose is the scratch-buffer form of the package-level Decompose:
// the same greedy minimal partition (Lemma 3.3) in the same
// recursive-partition order, emitted into the Decomposer's arenas. A
// positive limit bounds the work: a partition needing more than limit
// cubes fails with ErrCubeLimit as soon as the limit is exceeded
// (0 = no limit).
//
//sfc:hotpath
func (dc *Decomposer) Decompose(r geom.Rect, k, limit int) ([]Cube, error) {
	if err := checkUniverse(r, k); err != nil {
		return nil, err
	}
	d := r.Dims()
	dc.arena = dc.arena[:0]
	dc.refs = dc.refs[:0]
	root := dc.alloc(d)
	dc.stack = append(dc.stack[:0], cubeRef{root, uint64(1) << uint(k)})
	for len(dc.stack) > 0 {
		top := dc.stack[len(dc.stack)-1]
		dc.stack = dc.stack[:len(dc.stack)-1]
		intersects, inside := cubeRelation(r, dc.arena[top.off:top.off+d], top.side)
		if !intersects {
			continue
		}
		if inside {
			if limit > 0 && len(dc.refs) == limit {
				return nil, fmt.Errorf("%w of %d", ErrCubeLimit, limit)
			}
			dc.refs = append(dc.refs, top)
			continue
		}
		// side == 1 cannot reach here: a unit cube intersecting r is inside it.
		half := top.side / 2
		// Children pushed in reverse mask order pop in ascending order,
		// reproducing the recursive-partition order exactly.
		for mask := 1<<uint(d) - 1; mask >= 0; mask-- {
			off := dc.alloc(d)
			parent := dc.arena[top.off : top.off+d] // re-slice: alloc may have grown the arena
			child := dc.arena[off : off+d]
			for i := 0; i < d; i++ {
				child[i] = parent[i]
				if mask>>uint(i)&1 == 1 {
					child[i] = uint32(uint64(parent[i]) + half)
				}
			}
			dc.stack = append(dc.stack, cubeRef{off, half})
		}
	}
	return dc.materialize(d), nil
}

// DecomposeBudget is the scratch-buffer form of the package-level
// DecomposeBudget: identical stopping semantics, cubes emitted into the
// Decomposer's arenas.
//
//sfc:hotpath
func (dc *Decomposer) DecomposeBudget(r geom.Rect, k int, targetVolume float64, maxCubes int) (BudgetResult, error) {
	if err := checkUniverse(r, k); err != nil {
		return BudgetResult{}, err
	}
	d := r.Dims()
	dc.arena = dc.arena[:0]
	dc.refs = dc.refs[:0]
	root := dc.alloc(d)
	dc.frontier = append(dc.frontier[:0], cubeRef{root, uint64(1) << uint(k)})

	res := BudgetResult{LowestLevelComplete: true}
	level := k
	for side := uint64(1) << uint(k); side >= 1 && len(dc.frontier) > 0; side /= 2 {
		dc.next = dc.next[:0]
		emittedThisLevel := false
		for _, ref := range dc.frontier {
			intersects, inside := cubeRelation(r, dc.arena[ref.off:ref.off+d], ref.side)
			if !intersects {
				continue
			}
			if inside {
				dc.refs = append(dc.refs, ref)
				vol := 1.0
				for i := 0; i < d; i++ {
					vol *= float64(ref.side)
				}
				res.Volume += vol
				if !emittedThisLevel {
					emittedThisLevel = true
					res.LowestLevel = level
				}
				if maxCubes > 0 && len(dc.refs) >= maxCubes {
					res.LowestLevelComplete = false
					res.Cubes = dc.materialize(d)
					return res, nil
				}
				continue
			}
			half := ref.side / 2
			for mask := 0; mask < 1<<uint(d); mask++ {
				off := dc.alloc(d)
				parent := dc.arena[ref.off : ref.off+d]
				child := dc.arena[off : off+d]
				for i := 0; i < d; i++ {
					child[i] = parent[i]
					if mask>>uint(i)&1 == 1 {
						child[i] = uint32(uint64(parent[i]) + half)
					}
				}
				dc.next = append(dc.next, cubeRef{off, half})
			}
		}
		if targetVolume > 0 && res.Volume >= targetVolume {
			res.Cubes = dc.materialize(d)
			return res, nil
		}
		dc.frontier, dc.next = dc.next, dc.frontier
		level--
	}
	res.Complete = true
	res.Cubes = dc.materialize(d)
	return res, nil
}

// Runs is the scratch-buffer form of the package-level Runs: cube key
// ranges are collected into a reused buffer and merged in place. The
// returned runs alias the Decomposer and are valid until the next call.
//
//sfc:hotpath
func (dc *Decomposer) Runs(c sfc.Curve, cs []Cube) []sfc.KeyRange {
	if cap(dc.ranges) < len(cs) {
		dc.ranges = make([]sfc.KeyRange, len(cs))
	}
	dc.ranges = dc.ranges[:len(cs)]
	for i, cube := range cs {
		dc.ranges[i] = sfc.CubeRange(c, cube.Corner, cube.Side)
	}
	return sfc.MergeRangesInPlace(dc.ranges)
}

// cloneCubes deep-copies cubes out of a Decomposer's arena, giving each
// its own corner slice (the ownership contract of the package-level
// entry points).
func cloneCubes(cs []Cube) []Cube {
	if len(cs) == 0 {
		return nil
	}
	out := make([]Cube, len(cs))
	for i, c := range cs {
		out[i] = Cube{Corner: append([]uint32(nil), c.Corner...), Side: c.Side}
	}
	return out
}
