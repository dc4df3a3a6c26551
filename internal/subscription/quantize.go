package subscription

import (
	"fmt"
	"math"
)

// Quantizer maps a continuous attribute domain [Min, Max] onto the
// schema's discrete k-bit grid. Real deployments carry prices, volumes and
// sensor readings as floats; the paper's universe is discrete, so both
// events and subscription bounds are quantized with the same grid, which
// preserves the covering relation (monotone maps preserve interval
// containment).
type Quantizer struct {
	min, max float64
	bits     int
	levels   uint32
}

// NewQuantizer builds a quantizer onto a bits-wide grid.
func NewQuantizer(min, max float64, bits int) (*Quantizer, error) {
	if bits < 1 || bits > MaxBits {
		return nil, fmt.Errorf("subscription: quantizer bits %d out of range [1,%d]", bits, MaxBits)
	}
	if !(min < max) || math.IsNaN(min) || math.IsInf(min, 0) || math.IsInf(max, 0) {
		return nil, fmt.Errorf("subscription: invalid quantizer domain [%v,%v]", min, max)
	}
	return &Quantizer{min: min, max: max, bits: bits, levels: 1 << uint(bits)}, nil
}

// MustQuantizer is NewQuantizer for known-good literals.
func MustQuantizer(min, max float64, bits int) *Quantizer {
	q, err := NewQuantizer(min, max, bits)
	if err != nil {
		panic(err)
	}
	return q
}

// Quantize maps v onto the grid, clamping values outside the domain.
func (q *Quantizer) Quantize(v float64) uint32 {
	if v <= q.min {
		return 0
	}
	if v >= q.max {
		return q.levels - 1
	}
	cell := uint32(float64(q.levels) * (v - q.min) / (q.max - q.min))
	if cell >= q.levels {
		cell = q.levels - 1
	}
	return cell
}

// Value returns the lower edge of grid cell u in the continuous domain.
func (q *Quantizer) Value(u uint32) float64 {
	if u >= q.levels {
		u = q.levels - 1
	}
	return q.min + (q.max-q.min)*float64(u)/float64(q.levels)
}

// QuantizeRange maps a continuous interval to a grid range (both endpoints
// by cell). The mapping is monotone, so interval containment — and with it
// subscription covering — survives quantization.
func (q *Quantizer) QuantizeRange(lo, hi float64) (Range, error) {
	if lo > hi {
		return Range{}, fmt.Errorf("subscription: inverted interval [%v,%v]", lo, hi)
	}
	return Range{Lo: q.Quantize(lo), Hi: q.Quantize(hi)}, nil
}
