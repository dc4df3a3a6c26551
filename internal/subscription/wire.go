package subscription

import (
	"encoding/binary"
	"fmt"
)

// Wire format: brokers exchange subscriptions and events between
// processes; the codec is a compact, versioned, schema-checked binary
// encoding built on unsigned varints.
//
//	subscription: version | beta | bits | (lo, hi) per attribute
//	event:        version | beta | bits | value per attribute
//
// The embedded beta/bits let the receiver verify the payload matches its
// schema before trusting any range.
const (
	wireVersionSub   = 0x51 // 'Q' — subscription payload
	wireVersionEvent = 0x45 // 'E' — event payload
)

// MarshalBinary implements encoding.BinaryMarshaler for subscriptions.
func (s *Subscription) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, 3+2*len(s.ranges)*binary.MaxVarintLen32)), nil
}

// AppendBinary appends the subscription's wire encoding to dst and
// returns the extended slice, so callers that frame many payloads encode
// straight into their own buffer.
func (s *Subscription) AppendBinary(dst []byte) []byte {
	dst = append(dst, wireVersionSub, byte(len(s.ranges)), byte(s.schema.bits))
	for _, r := range s.ranges {
		dst = binary.AppendUvarint(dst, uint64(r.Lo))
		dst = binary.AppendUvarint(dst, uint64(r.Hi))
	}
	return dst
}

// UnmarshalSubscription decodes a subscription payload against the given
// schema, validating shape and domain.
func UnmarshalSubscription(schema *Schema, data []byte) (*Subscription, error) {
	rest, err := checkHeader(schema, data, wireVersionSub)
	if err != nil {
		return nil, fmt.Errorf("subscription: decoding subscription: %w", err)
	}
	s := New(schema)
	for i := range s.ranges {
		lo, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("subscription: truncated range lo on attribute %d", i)
		}
		rest = rest[n:]
		hi, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("subscription: truncated range hi on attribute %d", i)
		}
		rest = rest[n:]
		if lo > hi || hi > uint64(schema.MaxValue()) {
			return nil, fmt.Errorf("subscription: range [%d,%d] invalid for attribute %d", lo, hi, i)
		}
		s.setRangeAt(i, Range{Lo: uint32(lo), Hi: uint32(hi)})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("subscription: %d trailing bytes", len(rest))
	}
	return s, nil
}

// MarshalBinary implements encoding.BinaryMarshaler for events. The event
// does not know its schema, so the caller supplies it.
func (e Event) MarshalBinary(schema *Schema) ([]byte, error) {
	if len(e) != schema.NumAttrs() {
		return nil, fmt.Errorf("subscription: event has %d attributes, schema needs %d", len(e), schema.NumAttrs())
	}
	buf := make([]byte, 0, 3+len(e)*binary.MaxVarintLen32)
	buf = append(buf, wireVersionEvent, byte(len(e)), byte(schema.bits))
	for _, v := range e {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf, nil
}

// UnmarshalEvent decodes an event payload against the given schema.
func UnmarshalEvent(schema *Schema, data []byte) (Event, error) {
	rest, err := checkHeader(schema, data, wireVersionEvent)
	if err != nil {
		return nil, fmt.Errorf("subscription: decoding event: %w", err)
	}
	e := make(Event, schema.NumAttrs())
	for i := range e {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("subscription: truncated value on attribute %d", i)
		}
		rest = rest[n:]
		if v > uint64(schema.MaxValue()) {
			return nil, fmt.Errorf("subscription: value %d out of domain on attribute %d", v, i)
		}
		e[i] = uint32(v)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("subscription: %d trailing bytes", len(rest))
	}
	return e, nil
}

func checkHeader(schema *Schema, data []byte, version byte) ([]byte, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("payload too short (%d bytes)", len(data))
	}
	if data[0] != version {
		return nil, fmt.Errorf("unexpected payload type 0x%02x", data[0])
	}
	if int(data[1]) != schema.NumAttrs() {
		return nil, fmt.Errorf("payload has %d attributes, schema has %d", data[1], schema.NumAttrs())
	}
	if int(data[2]) != schema.Bits() {
		return nil, fmt.Errorf("payload uses %d-bit domains, schema uses %d", data[2], schema.Bits())
	}
	return data[3:], nil
}
