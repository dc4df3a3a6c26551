package subscription

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestSubscriptionWireRoundTrip(t *testing.T) {
	schema := MustSchema(12, "a", "b", "c")
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		s := New(schema)
		for _, attr := range schema.Attrs() {
			lo := uint32(rng.Intn(4096))
			hi := lo + uint32(rng.Intn(int(4096-lo)))
			if err := s.SetRange(attr, lo, hi); err != nil {
				t.Fatal(err)
			}
		}
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalSubscription(schema, data)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !back.Equal(s) {
			t.Fatalf("roundtrip %v -> %v", s, back)
		}
	}
}

// TestAppendBinaryExtendsDst pins AppendBinary's contract: it appends
// exactly MarshalBinary's bytes behind whatever dst already holds, and
// allocates nothing when dst has room.
func TestAppendBinaryExtendsDst(t *testing.T) {
	schema := MustSchema(12, "a", "b", "c")
	s := MustParse(schema, "a in [3,900] && c >= 4000")
	want, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte{0xde, 0xad}
	got := s.AppendBinary(append([]byte(nil), prefix...))
	if !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) {
		t.Fatalf("AppendBinary = %x, want %x then %x", got, prefix, want)
	}
	buf := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() { buf = s.AppendBinary(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendBinary into a roomy buffer allocates %.1f times", allocs)
	}
}

func TestEventWireRoundTrip(t *testing.T) {
	schema := MustSchema(10, "x", "y")
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		e := Event{uint32(rng.Intn(1024)), uint32(rng.Intn(1024))}
		data, err := e.MarshalBinary(schema)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalEvent(schema, data)
		if err != nil {
			t.Fatal(err)
		}
		if back[0] != e[0] || back[1] != e[1] {
			t.Fatalf("roundtrip %v -> %v", e, back)
		}
	}
}

func TestWireRejectsCorruptPayloads(t *testing.T) {
	schema := MustSchema(8, "x", "y")
	s := MustParse(schema, "x in [3,7] && y in [1,200]")
	good, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":          {},
		"too short":      good[:2],
		"wrong type":     append([]byte{0x45}, good[1:]...),
		"wrong beta":     append([]byte{good[0], 9}, good[2:]...),
		"wrong bits":     append([]byte{good[0], good[1], 13}, good[3:]...),
		"truncated body": good[:len(good)-1],
		"trailing bytes": append(append([]byte{}, good...), 0x00),
	}
	for name, data := range cases {
		if _, err := UnmarshalSubscription(schema, data); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}

	// Inverted range in an otherwise valid payload.
	bad := []byte{good[0], 2, 8}
	bad = append(bad, 200, 1) // lo=200 (varint single byte? 200 > 127...)
	// Build explicitly with known-small varints: lo=5, hi=3 (inverted).
	bad = []byte{good[0], 2, 8, 5, 3, 0, 0}
	if _, err := UnmarshalSubscription(schema, bad); err == nil {
		t.Error("inverted range should fail")
	}
	// Out-of-domain value in an event.
	evBad := []byte{0x45, 2, 8, 255, 10, 1}           // 255+... varint 255 needs 2 bytes
	evBad = append([]byte{0x45, 2, 8}, 0xFF, 0x07, 1) // value 1023 > 255
	if _, err := UnmarshalEvent(schema, evBad); err == nil {
		t.Error("out-of-domain event value should fail")
	}

	if _, err := (Event{1}).MarshalBinary(schema); err == nil {
		t.Error("wrong arity event marshal should fail")
	}
	if _, err := UnmarshalEvent(schema, good); err == nil {
		t.Error("subscription payload decoded as event")
	}
}

func TestWireCrossSchemaRejected(t *testing.T) {
	a := MustSchema(8, "x", "y")
	b := MustSchema(10, "x", "y")
	c := MustSchema(8, "x", "y", "z")
	s := MustParse(a, "x in [1,2]")
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSubscription(b, data); err == nil {
		t.Error("different bits must be rejected")
	}
	if _, err := UnmarshalSubscription(c, data); err == nil {
		t.Error("different attribute count must be rejected")
	}
}
