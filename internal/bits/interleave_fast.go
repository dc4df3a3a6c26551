package bits

import "sync"

// Byte-spread lookup tables for fast interleaving: spreadTables[d][b] holds
// the bits of byte b spaced out with stride d, so interleaving reduces to
// table lookups and shifted ORs instead of per-bit loops. Built lazily once
// per process; ~35 KB total for all strides.
var (
	spreadOnce   sync.Once
	spreadTables [maxSpreadDim + 1][256]uint64
)

const maxSpreadDim = 8 // a spread byte needs bit 7*d+7 < 64, so d <= 8

func initSpreadTables() {
	for d := 1; d <= maxSpreadDim; d++ {
		for b := 0; b < 256; b++ {
			var v uint64
			for t := 0; t < 8; t++ {
				if b>>uint(t)&1 == 1 {
					v |= 1 << uint(t*d)
				}
			}
			spreadTables[d][b] = v
		}
	}
}

// interleaveFast is the lookup-table implementation of Interleave for
// dimensions up to maxSpreadDim. Bit i of coordinate j lands at key bit
// i*d + (d-1-j), so byte t of every coordinate together fills the 8d-bit
// chunk of the key starting at bit 8t*d: spread(b_j) << (d-1-j) for each
// coordinate j. Chunks are laid down from the least significant end into a
// register; each output word is stored once, when it fills.
func interleaveFast(coords []uint32, k int) Key {
	spreadOnce.Do(initSpreadTables)
	d := len(coords)
	table := &spreadTables[d]
	mask := uint32(1)<<uint(k) - 1 // ignore bits beyond the universe; all ones at k = 32
	chunk := uint(8 * d)           // <= 64 because d <= maxSpreadDim
	var key Key
	var acc uint64 // the output word being filled
	off := uint(0) // bits of acc already filled
	word := KeyWords - 1
	for t := uint(0); t < uint(k+7)/8; t++ {
		var v uint64
		for j, x := range coords {
			v |= table[byte((x&mask)>>(8*t))] << uint(d-1-j)
		}
		acc |= v << off
		off += chunk
		if off >= 64 {
			key.w[word] = acc
			word--
			off -= 64
			acc = v >> (chunk - off) // the part of v that did not fit; 0 when none
		}
	}
	if off > 0 {
		key.w[word] = acc
	}
	return key
}
