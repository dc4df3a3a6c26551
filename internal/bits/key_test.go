package bits

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKeyFromUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		got, ok := KeyFromUint64(v).Uint64()
		return ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyCmpMatchesUint64(t *testing.T) {
	f := func(a, b uint64) bool {
		ka, kb := KeyFromUint64(a), KeyFromUint64(b)
		switch {
		case a < b:
			return ka.Cmp(kb) == -1 && ka.Less(kb)
		case a > b:
			return ka.Cmp(kb) == 1 && !ka.Less(kb)
		default:
			return ka.Cmp(kb) == 0 && ka.Equal(kb)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyIncDecMatchUint64(t *testing.T) {
	f := func(v uint64) bool {
		k := KeyFromUint64(v)
		if v < ^uint64(0) {
			inc, ok := k.Inc()
			got, fits := inc.Uint64()
			if !ok || !fits || got != v+1 {
				return false
			}
		}
		if v > 0 {
			dec, ok := k.Dec()
			got, fits := dec.Uint64()
			if !ok || !fits || got != v-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyIncCarriesAcrossWords(t *testing.T) {
	var k Key
	k.w[KeyWords-1] = ^uint64(0)
	k.w[KeyWords-2] = 5
	inc, ok := k.Inc()
	if !ok {
		t.Fatal("Inc reported overflow on non-maximal key")
	}
	if inc.w[KeyWords-1] != 0 || inc.w[KeyWords-2] != 6 {
		t.Fatalf("carry failed: got %v", inc)
	}
	dec, ok := inc.Dec()
	if !ok || dec != k {
		t.Fatalf("Dec(Inc(k)) != k: got %v want %v", dec, k)
	}
}

func TestKeyIncOverflow(t *testing.T) {
	var k Key
	for i := range k.w {
		k.w[i] = ^uint64(0)
	}
	if _, ok := k.Inc(); ok {
		t.Fatal("Inc on all-ones key should report overflow")
	}
}

func TestKeyDecOnZero(t *testing.T) {
	var k Key
	if _, ok := k.Dec(); ok {
		t.Fatal("Dec on zero should report underflow")
	}
}

func TestSetBitGetBit(t *testing.T) {
	var k Key
	positions := []int{0, 1, 63, 64, 65, 127, 128, 192, 255}
	for _, p := range positions {
		k = k.SetBit(p, 1)
	}
	for _, p := range positions {
		if k.Bit(p) != 1 {
			t.Fatalf("bit %d not set", p)
		}
	}
	if k.Bit(2) != 0 || k.Bit(200) != 0 {
		t.Fatal("unexpected set bit")
	}
	for _, p := range positions {
		k = k.SetBit(p, 0)
	}
	if !k.IsZero() {
		t.Fatalf("clearing all bits should leave zero, got %v", k)
	}
}

func TestLowMask(t *testing.T) {
	tests := []struct {
		n    int
		want uint64
	}{
		{0, 0},
		{1, 1},
		{3, 7},
		{63, 1<<63 - 1},
	}
	for _, tt := range tests {
		got, ok := LowMask(tt.n).Uint64()
		if !ok || got != tt.want {
			t.Errorf("LowMask(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
	wide := LowMask(130)
	for p := 0; p < 130; p++ {
		if wide.Bit(p) != 1 {
			t.Fatalf("LowMask(130) bit %d clear", p)
		}
	}
	if wide.Bit(130) != 0 {
		t.Fatal("LowMask(130) bit 130 set")
	}
}

func TestClearLowSetLow(t *testing.T) {
	k := KeyFromUint64(0b101101)
	if got, _ := k.ClearLow(3).Uint64(); got != 0b101000 {
		t.Errorf("ClearLow(3) = %b", got)
	}
	if got, _ := k.SetLow(3).Uint64(); got != 0b101111 {
		t.Errorf("SetLow(3) = %b", got)
	}
}

func TestShr1AndShrN(t *testing.T) {
	f := func(v uint64, n uint8) bool {
		k := KeyFromUint64(v)
		if got, _ := k.Shr1().Uint64(); got != v>>1 {
			return false
		}
		s := int(n % 64)
		got, _ := k.ShrN(s).Uint64()
		return got == v>>uint(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShrNAcrossWords(t *testing.T) {
	var k Key
	k.w[0] = 0xdeadbeefcafef00d
	shifted := k.ShrN(64 * (KeyWords - 1))
	if got, ok := shifted.Uint64(); !ok || got != 0xdeadbeefcafef00d {
		t.Fatalf("ShrN whole words: got %x ok=%v", got, ok)
	}
	shifted = k.ShrN(64*(KeyWords-1) + 4)
	if got, _ := shifted.Uint64(); got != 0xdeadbeefcafef00d>>4 {
		t.Fatalf("ShrN partial: got %x", got)
	}
	if !k.ShrN(KeyBits).IsZero() {
		t.Fatal("ShrN(KeyBits) should be zero")
	}
}

func TestShlNInvertsShrN(t *testing.T) {
	var k Key
	k.w[KeyWords-1] = 0xdeadbeefcafef00d
	// Round trips hold while n + k.Len() <= KeyBits (no bits pushed out).
	for _, n := range []int{0, 1, 5, 63, 64, 65, 128, 64 * (KeyWords - 1)} {
		if got := k.ShlN(n).ShrN(n); got != k {
			t.Fatalf("ShlN(%d) then ShrN(%d) = %v, want %v", n, n, got, k)
		}
	}
	nibble := KeyFromUint64(0xd)
	if got := nibble.ShlN(KeyBits - 4).ShrN(KeyBits - 4); got != nibble {
		t.Fatalf("top-nibble round trip = %v, want %v", got, nibble)
	}
	if !k.ShlN(KeyBits).IsZero() {
		t.Fatal("ShlN(KeyBits) should be zero")
	}
	// Bits pushed past the top are discarded.
	var top Key
	top.w[0] = 1 << 63
	if !top.ShlN(1).IsZero() {
		t.Fatal("ShlN must discard overflow bits")
	}
	if got := KeyFromUint64(3).ShlN(64 * (KeyWords - 1)); got.w[0] != 3 {
		t.Fatalf("ShlN whole words: w[0] = %x, want 3", got.w[0])
	}
}

func TestKeyLen(t *testing.T) {
	if got := (Key{}).Len(); got != 0 {
		t.Fatalf("Len(0) = %d", got)
	}
	if got := KeyFromUint64(9).Len(); got != 4 {
		t.Fatalf("Len(9) = %d, want 4", got)
	}
	var k Key
	k = k.SetBit(200, 1)
	if got := k.Len(); got != 201 {
		t.Fatalf("Len(bit 200) = %d, want 201", got)
	}
}

func TestGrayRoundTrip64(t *testing.T) {
	f := func(v uint64) bool {
		k := KeyFromUint64(v)
		g := k.Gray()
		want := v ^ v>>1
		if got, _ := g.Uint64(); got != want {
			return false
		}
		return g.GrayInv() == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGrayRoundTripWide(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var k Key
		for i := range k.w {
			k.w[i] = rng.Uint64()
		}
		if got := k.Gray().GrayInv(); got != k {
			t.Fatalf("GrayInv(Gray(k)) != k for %v", k)
		}
		if got := k.GrayInv().Gray(); got != k {
			t.Fatalf("Gray(GrayInv(k)) != k for %v", k)
		}
	}
}

func TestGrayAdjacencyProperty(t *testing.T) {
	// Consecutive integers must have Gray codes differing in exactly one bit.
	prev := KeyFromUint64(0).Gray()
	for v := uint64(1); v < 4096; v++ {
		cur := KeyFromUint64(v).Gray()
		diff := cur.Xor(prev)
		ones := 0
		for p := 0; p < 16; p++ {
			ones += int(diff.Bit(p))
		}
		if ones != 1 {
			t.Fatalf("gray(%d) and gray(%d) differ in %d bits", v-1, v, ones)
		}
		prev = cur
	}
}

func TestBitwiseOps(t *testing.T) {
	f := func(a, b uint64) bool {
		ka, kb := KeyFromUint64(a), KeyFromUint64(b)
		or, _ := ka.Or(kb).Uint64()
		and, _ := ka.And(kb).Uint64()
		xor, _ := ka.Xor(kb).Uint64()
		andNot, _ := ka.AndNot(kb).Uint64()
		return or == a|b && and == a&b && xor == a^b && andNot == a&^b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyString(t *testing.T) {
	if got := KeyFromUint64(255).String(); got != "0xff" {
		t.Errorf("String = %q", got)
	}
	var k Key
	k.w[KeyWords-2] = 1
	if got := k.String(); got != "0x10000000000000000" {
		t.Errorf("String wide = %q", got)
	}
}

func TestBitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range bit position")
		}
	}()
	var k Key
	k.Bit(KeyBits)
}

// toBig converts a key to the math/big integer of the same value.
func toBig(k Key) *big.Int {
	z := new(big.Int)
	for _, w := range k.w {
		z.Lsh(z, 64).Or(z, new(big.Int).SetUint64(w))
	}
	return z
}

// randWideKey draws a key whose words are each zero, all ones or random,
// so carries, borrows and first-differing-word cases reach every word.
func randWideKey(rng *rand.Rand) Key {
	var k Key
	for i := range k.w {
		switch rng.Intn(4) {
		case 0:
			k.w[i] = 0
		case 1:
			k.w[i] = ^uint64(0)
		default:
			k.w[i] = rng.Uint64()
		}
	}
	return k
}

// TestKeyOpsMatchBig checks the multiword kernels against math/big on keys
// that span all KeyWords words, with bit counts on both sides of every
// 64-bit boundary.
func TestKeyOpsMatchBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	modulus := new(big.Int).Lsh(big.NewInt(1), KeyBits)
	one := big.NewInt(1)
	var widths []int
	for b := 0; b <= KeyBits; b += 64 {
		for _, n := range []int{b - 1, b, b + 1} {
			if n >= 0 && n <= KeyBits {
				widths = append(widths, n)
			}
		}
	}
	check := func(op string, got Key, want *big.Int) {
		t.Helper()
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("%s = %v, want 0x%x", op, got, want)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		a := randWideKey(rng)
		b := a
		if trial%3 != 0 { // otherwise a == b
			b.w[rng.Intn(KeyWords)] = rng.Uint64()
		}
		if trial%5 == 0 {
			b = randWideKey(rng)
		}
		ba, bb := toBig(a), toBig(b)

		if got, want := a.Cmp(b), ba.Cmp(bb); got != want {
			t.Fatalf("Cmp(%v, %v) = %d, want %d", a, b, got, want)
		}
		if got, want := a.Less(b), ba.Cmp(bb) < 0; got != want {
			t.Fatalf("Less(%v, %v) = %v, want %v", a, b, got, want)
		}

		sum := new(big.Int).Add(ba, one)
		inc, ok := a.Inc()
		if wantOK := sum.Cmp(modulus) < 0; ok != wantOK {
			t.Fatalf("Inc(%v) ok = %v, want %v", a, ok, wantOK)
		}
		check("Inc", inc, sum.Mod(sum, modulus))
		dec, ok := a.Dec()
		if wantOK := ba.Sign() > 0; ok != wantOK {
			t.Fatalf("Dec(%v) ok = %v, want %v", a, ok, wantOK)
		}
		if ok {
			check("Dec", dec, new(big.Int).Sub(ba, one))
		}

		check("Or", a.Or(b), new(big.Int).Or(ba, bb))
		check("AndNot", a.AndNot(b), new(big.Int).AndNot(ba, bb))

		n := widths[(trial/2)%len(widths)]
		if trial%2 == 1 {
			n = rng.Intn(KeyBits + 1)
		}
		low := new(big.Int).Sub(new(big.Int).Lsh(one, uint(n)), one)
		check("ClearLow", a.ClearLow(n), new(big.Int).AndNot(ba, low))
		check("SetLow", a.SetLow(n), new(big.Int).Or(ba, low))
		check("ShlN", a.ShlN(n), new(big.Int).Mod(new(big.Int).Lsh(ba, uint(n)), modulus))
		check("ShrN", a.ShrN(n), new(big.Int).Rsh(ba, uint(n)))
	}
}
