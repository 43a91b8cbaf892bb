package net

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
)

// Codec is the wire registry for protocol messages: it assigns each
// registered Go type a dense uint16 code and encodes/decodes values with a
// reflection-driven compact binary format.
//
// The format is schema-implicit: both ends register the same types in the
// same order (the contract core.WireMessages provides), so no type
// descriptors travel on the wire — unlike gob, a message costs exactly its
// field payload. Supported field kinds are the closed set the protocol
// messages use: booleans, all fixed-size integer kinds (signed ints are
// zigzag-varint, unsigned are uvarint), float64, strings, structs, and
// slices of any supported kind. Named types (runtime.Addr, idspace.ID,
// core.Role, runtime.Time) encode as their underlying kind.
//
// Registration validates the full type tree eagerly, so an unencodable
// message type fails at startup, not mid-run on a live socket.
type Codec struct {
	types  []reflect.Type
	byType map[reflect.Type]uint16
	// fp fingerprints the registry: FNV-64a over each type's name and then
	// its fields' names and kinds, depth first, in registration order. A
	// worker's alloc request carries it, and the bootstrap refuses one that
	// differs from its own instead of letting the two mis-decode each other.
	fp uint64
}

// NewCodec builds a codec from prototype values, assigning codes 1..N in
// argument order. The order is part of the wire contract: every process in a
// cluster must build its codec from the same list.
func NewCodec(protos ...any) (*Codec, error) {
	c := &Codec{byType: make(map[reflect.Type]uint16, len(protos))}
	h := fnv.New64a()
	for _, p := range protos {
		t := reflect.TypeOf(p)
		if t == nil {
			return nil, fmt.Errorf("net: nil codec prototype")
		}
		if _, dup := c.byType[t]; dup {
			return nil, fmt.Errorf("net: duplicate codec prototype %v", t)
		}
		fmt.Fprintf(h, "%v=", t)
		if err := validateWireType(t, 0, h); err != nil {
			return nil, fmt.Errorf("net: prototype %v: %w", t, err)
		}
		c.types = append(c.types, t)
		c.byType[t] = uint16(len(c.types)) // codes start at 1
	}
	c.fp = h.Sum64()
	return c, nil
}

// validateWireType checks every reachable field kind is encodable, writing
// each kind and field name it passes to the fingerprint.
func validateWireType(t reflect.Type, depth int, fp io.Writer) error {
	if depth > 16 {
		return fmt.Errorf("type nesting too deep (cycle?)")
	}
	fmt.Fprintf(fp, "%v;", t.Kind())
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float64, reflect.String:
		return nil
	case reflect.Slice:
		return validateWireType(t.Elem(), depth+1, fp)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return fmt.Errorf("field %s.%s is unexported", t, f.Name)
			}
			fmt.Fprintf(fp, "%s:", f.Name)
			if err := validateWireType(f.Type, depth+1, fp); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unsupported wire kind %v", t.Kind())
	}
}

// Encode serializes a registered message, returning its code and payload.
func (c *Codec) Encode(msg any) (uint16, []byte, error) {
	code, err := c.code(msg)
	if err != nil {
		return 0, nil, err
	}
	return code, encodePayload(msg), nil
}

// code returns a registered message's wire code.
func (c *Codec) code(msg any) (uint16, error) {
	code, ok := c.byType[reflect.TypeOf(msg)]
	if !ok {
		return 0, fmt.Errorf("net: unregistered wire type %T", msg)
	}
	return code, nil
}

// encodePayload serializes a message of a registered type.
func encodePayload(msg any) []byte { return appendValue(nil, reflect.ValueOf(msg)) }

// Decode reconstructs the message for a code from its payload. The returned
// value has the registered concrete type (not a pointer), so receiver-side
// type switches see exactly what an in-process transport would deliver.
func (c *Codec) Decode(code uint16, payload []byte) (any, error) {
	if code == 0 || int(code) > len(c.types) {
		return nil, fmt.Errorf("net: unknown wire code %d", code)
	}
	v := reflect.New(c.types[code-1]).Elem()
	rest, err := readValue(payload, v)
	if err != nil {
		return nil, fmt.Errorf("net: decoding %v: %w", c.types[code-1], err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("net: %d trailing bytes after %v", len(rest), c.types[code-1])
	}
	return v.Interface(), nil
}

func appendValue(buf []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(buf, 1)
		}
		return append(buf, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(buf, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(buf, v.Uint())
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		return append(buf, s...)
	case reflect.Slice:
		n := v.Len()
		buf = binary.AppendUvarint(buf, uint64(n))
		for i := 0; i < n; i++ {
			buf = appendValue(buf, v.Index(i))
		}
		return buf
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			buf = appendValue(buf, v.Field(i))
		}
		return buf
	default:
		panic(fmt.Sprintf("net: unreachable wire kind %v (validated at registration)", v.Kind()))
	}
}

// maxWireSlice bounds decoded slice and string lengths; a corrupt or hostile
// length prefix must not drive an allocation by itself. Below it, a length is
// also held against the bytes that remain to back it.
const maxWireSlice = 1 << 20

func readValue(b []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Bool:
		if len(b) < 1 {
			return nil, fmt.Errorf("short buffer for bool")
		}
		v.SetBool(b[0] != 0)
		return b[1:], nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, n := binary.Varint(b)
		if n <= 0 {
			return nil, fmt.Errorf("bad varint")
		}
		if v.OverflowInt(x) {
			return nil, fmt.Errorf("varint %d overflows %v", x, v.Type())
		}
		v.SetInt(x)
		return b[n:], nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("bad uvarint")
		}
		if v.OverflowUint(x) {
			return nil, fmt.Errorf("uvarint %d overflows %v", x, v.Type())
		}
		v.SetUint(x)
		return b[n:], nil
	case reflect.Float64:
		if len(b) < 8 {
			return nil, fmt.Errorf("short buffer for float64")
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		return b[8:], nil
	case reflect.String:
		n, w := binary.Uvarint(b)
		if w <= 0 || n > maxWireSlice || uint64(len(b)-w) < n {
			return nil, fmt.Errorf("bad string length")
		}
		v.SetString(string(b[w : w+int(n)]))
		return b[w+int(n):], nil
	case reflect.Slice:
		n, w := binary.Uvarint(b)
		if w <= 0 || n > maxWireSlice {
			return nil, fmt.Errorf("bad slice length")
		}
		b = b[w:]
		if n == 0 {
			return b, nil // leave the field nil, matching the encoded value
		}
		// Every kind that occupies memory encodes to at least one byte, so
		// a count beyond the bytes left cannot be honest; refuse it before
		// it sizes an allocation.
		if n > uint64(len(b)) && v.Type().Elem().Size() != 0 {
			return nil, fmt.Errorf("slice length %d exceeds the %d bytes left", n, len(b))
		}
		s := reflect.MakeSlice(v.Type(), int(n), int(n))
		var err error
		for i := 0; i < int(n); i++ {
			if b, err = readValue(b, s.Index(i)); err != nil {
				return nil, err
			}
		}
		v.Set(s)
		return b, nil
	case reflect.Struct:
		var err error
		for i := 0; i < v.NumField(); i++ {
			if b, err = readValue(b, v.Field(i)); err != nil {
				return nil, err
			}
		}
		return b, nil
	default:
		return nil, fmt.Errorf("unsupported wire kind %v", v.Kind())
	}
}
