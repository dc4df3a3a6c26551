package subscription

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sfccover/internal/bits"
	"sfccover/internal/geom"
	"sfccover/internal/sfc"
)

// TestWidestSchemaFitsKey ties NewSchema's limits to the covering index:
// the widest schema's 2β-dimensional point must be a universe every curve
// accepts, so widening MaxAttrs or MaxBits fails here rather than in
// sfc.New.
func TestWidestSchemaFitsKey(t *testing.T) {
	if w := 2 * MaxAttrs * MaxBits; w > bits.KeyBits {
		t.Fatalf("widest schema needs %d-bit keys, bits.KeyBits is %d", w, bits.KeyBits)
	}
	cfg := sfc.Config{Dims: 2 * MaxAttrs, Bits: MaxBits}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("widest schema's universe %+v: %v", cfg, err)
	}
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(0, "a"); err == nil {
		t.Error("bits=0 must fail")
	}
	if _, err := NewSchema(17, "a"); err == nil {
		t.Error("bits=17 must fail")
	}
	if _, err := NewSchema(8); err == nil {
		t.Error("no attributes must fail")
	}
	if _, err := NewSchema(8, "a", "a"); err == nil {
		t.Error("duplicate attribute must fail")
	}
	if _, err := NewSchema(8, ""); err == nil {
		t.Error("empty attribute name must fail")
	}
	if _, err := NewSchema(8, "a", "b", "c", "d", "e", "f", "g", "h", "i"); err == nil {
		t.Error("9 attributes must fail")
	}
	s, err := NewSchema(10, "stock", "volume", "price")
	if err != nil {
		t.Fatal(err)
	}
	if s.Bits() != 10 || s.NumAttrs() != 3 || s.Dims() != 6 || s.MaxValue() != 1023 {
		t.Errorf("schema accessors wrong: %+v", s)
	}
	if i, ok := s.AttrIndex("volume"); !ok || i != 1 {
		t.Errorf("AttrIndex(volume) = %d,%v", i, ok)
	}
	if _, ok := s.AttrIndex("nope"); ok {
		t.Error("unknown attribute found")
	}
}

func TestSubscriptionConstraintsAndMatching(t *testing.T) {
	// The paper's intro example: subscription [stock = IBM, volume > 500,
	// current < 95] matches event [stock = IBM, volume = 1000, current = 88].
	schema := MustSchema(10, "stock", "volume", "current")
	sub := New(schema)
	const ibm = 7
	if err := sub.SetEq("stock", ibm); err != nil {
		t.Fatal(err)
	}
	if err := sub.SetMin("volume", 501); err != nil {
		t.Fatal(err)
	}
	if err := sub.SetMax("current", 94); err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvent(schema, map[string]uint32{"stock": ibm, "volume": 1000, "current": 88})
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Matches(ev) {
		t.Error("paper example must match")
	}
	ev2, _ := NewEvent(schema, map[string]uint32{"stock": ibm, "volume": 400, "current": 88})
	if sub.Matches(ev2) {
		t.Error("volume below threshold must not match")
	}
	ev3, _ := NewEvent(schema, map[string]uint32{"stock": 8, "volume": 1000, "current": 88})
	if sub.Matches(ev3) {
		t.Error("different stock must not match")
	}
}

func TestSetRangeValidation(t *testing.T) {
	schema := MustSchema(4, "a")
	sub := New(schema)
	if err := sub.SetRange("nope", 0, 1); err == nil {
		t.Error("unknown attribute must fail")
	}
	if err := sub.SetRange("a", 5, 3); err == nil {
		t.Error("inverted range must fail")
	}
	if err := sub.SetRange("a", 0, 16); err == nil {
		t.Error("out-of-domain value must fail")
	}
}

func TestCoversSemantics(t *testing.T) {
	schema := MustSchema(8, "x", "y")
	wide := MustParse(schema, "x in [10,200] && y in [0,100]")
	narrow := MustParse(schema, "x in [20,150] && y in [5,50]")
	if !wide.Covers(narrow) {
		t.Error("wide must cover narrow")
	}
	if narrow.Covers(wide) {
		t.Error("narrow must not cover wide")
	}
	if !wide.Covers(wide) {
		t.Error("covering is reflexive")
	}
	everything := New(schema)
	if !everything.Covers(wide) || !everything.Covers(narrow) {
		t.Error("unconstrained subscription covers everything")
	}
	disjoint := MustParse(schema, "x in [201,255]")
	if wide.Covers(disjoint) || disjoint.Covers(wide) {
		t.Error("disjoint subscriptions cover neither way")
	}
}

func TestCoversIffAllMatchesContained(t *testing.T) {
	// Semantic definition: s1 covers s2 iff N(s1) ⊇ N(s2). Verify against
	// brute-force event enumeration on a tiny domain.
	schema := MustSchema(3, "a", "b")
	rng := rand.New(rand.NewSource(19))
	randSub := func() *Subscription {
		s := New(schema)
		for _, attr := range schema.Attrs() {
			lo := uint32(rng.Intn(8))
			hi := lo + uint32(rng.Intn(int(8-lo)))
			if err := s.SetRange(attr, lo, hi); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	for trial := 0; trial < 200; trial++ {
		s1, s2 := randSub(), randSub()
		semantic := true
		for a := uint32(0); a < 8; a++ {
			for b := uint32(0); b < 8; b++ {
				e := Event{a, b}
				if s2.Matches(e) && !s1.Matches(e) {
					semantic = false
				}
			}
		}
		if got := s1.Covers(s2); got != semantic {
			t.Fatalf("Covers(%v, %v) = %v, semantic %v", s1, s2, got, semantic)
		}
	}
}

func TestPointTransformPreservesCovering(t *testing.T) {
	// The Edelsbrunner–Overmars equivalence, both directions:
	// s1 covers s2 <=> p(s1) dominates p(s2).
	schema := MustSchema(6, "a", "b", "c")
	rng := rand.New(rand.NewSource(23))
	randSub := func() *Subscription {
		s := New(schema)
		for _, attr := range schema.Attrs() {
			lo := uint32(rng.Intn(64))
			hi := lo + uint32(rng.Intn(int(64-lo)))
			if err := s.SetRange(attr, lo, hi); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	for trial := 0; trial < 500; trial++ {
		s1, s2 := randSub(), randSub()
		if s1.Covers(s2) != geom.Dominates(s1.Point(), s2.Point()) {
			t.Fatalf("EO transform broken for %v vs %v", s1, s2)
		}
	}
}

func TestPointRoundTrip(t *testing.T) {
	schema := MustSchema(8, "x", "y")
	f := func(lo1, hi1, lo2, hi2 uint8) bool {
		s := New(schema)
		l1, h1 := uint32(lo1), uint32(hi1)
		if l1 > h1 {
			l1, h1 = h1, l1
		}
		l2, h2 := uint32(lo2), uint32(hi2)
		if l2 > h2 {
			l2, h2 = h2, l2
		}
		if err := s.SetRange("x", l1, h1); err != nil {
			return false
		}
		if err := s.SetRange("y", l2, h2); err != nil {
			return false
		}
		back, err := FromPoint(schema, s.Point())
		return err == nil && back.Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromPointValidation(t *testing.T) {
	schema := MustSchema(8, "x")
	if _, err := FromPoint(schema, []uint32{1}); err == nil {
		t.Error("wrong dims must fail")
	}
	// Inverted: lo=200 means p[0]=max-200=55; hi=100 < 200.
	if _, err := FromPoint(schema, []uint32{55, 100}); err == nil {
		t.Error("inverted decode must fail")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	schema := MustSchema(8, "x")
	a := MustParse(schema, "x in [1,5]")
	b := a.Clone()
	if err := b.SetRange("x", 7, 9); err != nil {
		t.Fatal(err)
	}
	if a.Range(0).Lo != 1 || a.Range(0).Hi != 5 {
		t.Error("clone mutated original")
	}
}

func TestStringRendering(t *testing.T) {
	schema := MustSchema(8, "stock", "volume", "price")
	tests := []struct {
		expr string
		want string
	}{
		{"stock == 5", "stock == 5"},
		{"volume >= 100", "volume >= 100"},
		{"price <= 95", "price <= 95"},
		{"stock in [3,9]", "stock in [3,9]"},
		{"", "true"},
		{"true", "true"},
	}
	for _, tt := range tests {
		s := MustParse(schema, tt.expr)
		if got := s.String(); got != tt.want {
			t.Errorf("String(%q) = %q, want %q", tt.expr, got, tt.want)
		}
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	schema := MustSchema(8, "a", "b")
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		s := New(schema)
		for _, attr := range schema.Attrs() {
			lo := uint32(rng.Intn(256))
			hi := lo + uint32(rng.Intn(int(256-lo)))
			if err := s.SetRange(attr, lo, hi); err != nil {
				t.Fatal(err)
			}
		}
		back, err := Parse(schema, s.String())
		if err != nil {
			t.Fatalf("parse of %q: %v", s.String(), err)
		}
		if !back.Equal(s) {
			t.Fatalf("roundtrip %q -> %q", s.String(), back.String())
		}
	}
}

func TestNewEventValidation(t *testing.T) {
	schema := MustSchema(4, "a", "b")
	if _, err := NewEvent(schema, map[string]uint32{"a": 1}); err == nil {
		t.Error("missing attribute must fail")
	}
	if _, err := NewEvent(schema, map[string]uint32{"a": 1, "c": 2}); err == nil {
		t.Error("unknown attribute must fail")
	}
	if _, err := NewEvent(schema, map[string]uint32{"a": 1, "b": 16}); err == nil {
		t.Error("out-of-domain value must fail")
	}
	e, err := NewEvent(schema, map[string]uint32{"b": 3, "a": 1})
	if err != nil {
		t.Fatal(err)
	}
	if e[0] != 1 || e[1] != 3 {
		t.Errorf("event order wrong: %v", e)
	}
}
