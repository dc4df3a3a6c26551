package bits

import (
	"math/rand"
	"testing"
)

// TestFastInterleaveMatchesReference cross-checks the lookup-table path
// against the per-bit reference for every supported dimension and
// resolution, including boundary coordinates.
func TestFastInterleaveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for d := 1; d <= maxSpreadDim; d++ {
		for _, k := range []int{1, 7, 8, 9, 16, 17, 31, 32} {
			if d*k > KeyBits {
				continue
			}
			for trial := 0; trial < 200; trial++ {
				coords := make([]uint32, d)
				for i := range coords {
					switch trial % 4 {
					case 0:
						coords[i] = uint32(rng.Int63()) & (1<<uint(k) - 1)
					case 1:
						coords[i] = 0
					case 2:
						coords[i] = 1<<uint(k) - 1 // all ones
					default:
						coords[i] = 1 << uint(rng.Intn(k)) // single bit
					}
				}
				fast := interleaveFast(coords, k)
				slow := interleaveSlow(coords, k)
				if fast != slow {
					t.Fatalf("d=%d k=%d coords=%v: fast %v != slow %v", d, k, coords, fast, slow)
				}
			}
		}
	}
}

// TestFastInterleaveMasksOutOfRangeBits ensures coordinates with stray
// bits above the universe resolution do not corrupt the key.
func TestFastInterleaveMasksOutOfRangeBits(t *testing.T) {
	clean := interleaveFast([]uint32{0b101, 0b011}, 3)
	dirty := interleaveFast([]uint32{0b101 | 0xFFFFFF00 | 1<<3, 0b011 | 1<<5}, 3)
	if clean != dirty {
		t.Fatalf("out-of-range coordinate bits leaked into the key")
	}
}

func BenchmarkInterleaveFastD4K16(b *testing.B) {
	coords := []uint32{0xABCD, 0x1234, 0xF0F0, 0x5555}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = interleaveFast(coords, 16)
	}
}

func BenchmarkInterleaveSlowD4K16(b *testing.B) {
	coords := []uint32{0xABCD, 0x1234, 0xF0F0, 0x5555}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = interleaveSlow(coords, 16)
	}
}
