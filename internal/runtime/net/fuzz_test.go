package net_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	goruntime "runtime"
	"testing"

	"repro/internal/core"
	rnet "repro/internal/runtime/net"
)

// populate fills every field reachable from v with a distinct non-zero
// value, slices with three elements, so an encoding exercises each kind's
// non-trivial path (multi-byte varints, non-empty strings, nested slices).
func populate(v reflect.Value, next *uint64) {
	*next += 0x9e3779b9
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int, reflect.Int64:
		v.SetInt(int64(*next % 100)) // fits every width
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint, reflect.Uint64:
		if v.OverflowUint(*next) {
			v.SetUint(*next % 200)
		} else {
			v.SetUint(*next)
		}
	case reflect.Float64:
		v.SetFloat(float64(*next) / 7)
	case reflect.String:
		v.SetString("value-" + string(rune('a'+*next%26)))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 3, 3)
		for i := 0; i < s.Len(); i++ {
			populate(s.Index(i), next)
		}
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			populate(v.Field(i), next)
		}
	}
}

// FuzzCodecDecode feeds the decoder arbitrary bytes under every wire code of
// the real protocol. Decode must hand back a value or an error — never
// panic, and never allocate more than a small multiple of the payload it was
// given: a length prefix alone must not be able to balloon a process.
func FuzzCodecDecode(f *testing.F) {
	protos := core.WireMessages()
	c, err := rnet.NewCodec(protos...)
	if err != nil {
		f.Fatal(err)
	}
	var next uint64
	var fieldCode uint16 // the first message with fields, and its encoding
	var fieldPayload []byte
	for _, p := range protos {
		v := reflect.New(reflect.TypeOf(p)).Elem()
		populate(v, &next)
		code, payload, err := c.Encode(v.Interface())
		if err != nil {
			f.Fatal(err)
		}
		got, err := c.Decode(code, payload)
		if err != nil || !reflect.DeepEqual(got, v.Interface()) {
			f.Fatalf("populated %T does not round-trip: %#v -> %#v (%v)", p, v.Interface(), got, err)
		}
		f.Add(code, payload)
		if len(payload) > 0 && fieldPayload == nil {
			fieldCode, fieldPayload = code, payload
		}
		if len(payload) > 0 { // a field-less message encodes to nothing
			f.Add(code, payload[:len(payload)/2])
			f.Add(code, payload[:len(payload)-1])
			f.Add(code, []byte{}) // truncated before the first field
		}
		// Length prefixes claiming far more than the frame holds: the
		// largest the decoder accepts on its own, and one beyond it in
		// front of real content.
		f.Add(code, binary.AppendUvarint(nil, 1<<20))
		f.Add(code, append(binary.AppendUvarint(nil, 1<<40), payload...))
	}
	f.Add(uint16(0), []byte{})
	f.Add(uint16(len(protos)+1), []byte{1, 2, 3})
	// Malformed framing around real content: the largest code, the reserved
	// code 0 with a whole payload, one byte trailing a whole message, a
	// varint running past 64 bits, one cut after its continuation bit, and a
	// non-minimal zero in front of real content.
	f.Add(uint16(math.MaxUint16), []byte{})
	f.Add(uint16(0), fieldPayload)
	f.Add(fieldCode, append(append([]byte{}, fieldPayload...), 0))
	f.Add(fieldCode, bytes.Repeat([]byte{0xff}, 11))
	f.Add(fieldCode, []byte{0x80})
	f.Add(fieldCode, append([]byte{0x80, 0x00}, fieldPayload...))

	f.Fuzz(func(t *testing.T, code uint16, payload []byte) {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		msg, err := c.Decode(code, payload)
		goruntime.ReadMemStats(&after)
		if (msg == nil) == (err == nil) {
			t.Fatalf("Decode(%d, %d bytes) = (%v, %v): want exactly one of value and error", code, len(payload), msg, err)
		}
		// 64x covers the in-memory size of the densest legitimate encoding
		// (a 24-byte slice header or a 40-byte item per wire byte or three);
		// the constant covers the message struct, the error and whatever the
		// test binary's other goroutines allocated meanwhile.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(payload)+256<<10); got > limit {
			t.Fatalf("Decode(%d, %d bytes) allocated %d bytes, limit %d", code, len(payload), got, limit)
		}
		if err != nil {
			return
		}
		// What decodes must encode to its canonical form, a fixed point of
		// decode-then-encode (bytes are compared, not values: a NaN in a
		// float field is unequal to itself).
		code2, canon, err := c.Encode(msg)
		if err != nil || code2 != code {
			t.Fatalf("re-encode of %T: code %d -> %d, err %v", msg, code, code2, err)
		}
		msg2, err := c.Decode(code, canon)
		if err != nil {
			t.Fatalf("canonical encoding of %T does not decode: %v", msg, err)
		}
		if _, again, _ := c.Encode(msg2); !bytes.Equal(canon, again) {
			t.Fatalf("%T changes on a second round trip: %x -> %x", msg, canon, again)
		}
	})
}
