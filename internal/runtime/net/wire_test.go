package net

import (
	"bytes"
	"encoding/binary"
	goruntime "runtime"
	"testing"
)

// allocated reports how many bytes fn allocated. The fuzz targets below hold
// it to FuzzCodecDecode's bound: 64 bytes per input byte plus 256 KiB for
// the values themselves and whatever other goroutines allocated meanwhile.
func allocated(fn func()) uint64 {
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	fn()
	goruntime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func allocLimit(input []byte) uint64 { return uint64(64*len(input) + 256<<10) }

// FuzzReadEnvelope feeds the frame reader what a broken or hostile peer
// could send. It must return a frame or an error — never panic, never a
// partly filled frame beside an error — and allocate in proportion to the
// bytes that arrived, not to the length a header claims.
func FuzzReadEnvelope(f *testing.F) {
	f.Add(appendEnvelope(nil, envelope{Type: 1, From: 2, To: 3, Payload: []byte("payload")}))
	f.Add(appendEnvelope(nil, envelope{Type: ctrlAllocReq, From: -1, To: -1, MsgID: 7}))
	// A bare header claiming the largest payload the reader accepts, one
	// claiming more, and a header cut short.
	claim := appendEnvelope(nil, envelope{Type: 1})
	binary.LittleEndian.PutUint32(claim[26:30], maxPayload)
	f.Add(claim)
	over := bytes.Clone(claim)
	binary.LittleEndian.PutUint32(over[26:30], maxPayload+1)
	f.Add(over)
	f.Add(claim[:headerLen-1])
	// A payload that takes the reader several steps, and the same frame cut
	// short past its first step.
	big := appendEnvelope(nil, envelope{Type: 2, Payload: bytes.Repeat([]byte{7}, 200<<10)})
	f.Add(big)
	f.Add(big[:headerLen+70<<10])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		var env envelope
		var err error
		if got := allocated(func() { env, err = readEnvelope(bytes.NewReader(b)) }); got > allocLimit(b) {
			t.Fatalf("readEnvelope(%d bytes) allocated %d bytes, limit %d", len(b), got, allocLimit(b))
		}
		if err != nil {
			if env.Type != 0 || env.From != 0 || env.To != 0 || env.MsgID != 0 || env.Payload != nil {
				t.Fatalf("readEnvelope(%d bytes) = (%+v, %v): a frame beside the error", len(b), env, err)
			}
			return
		}
		// A frame read is the prefix it came from, byte for byte.
		if enc := appendEnvelope(nil, env); !bytes.HasPrefix(b, enc) {
			t.Fatalf("frame %+v re-encodes to %x, not a prefix of %x", env, enc, b)
		}
	})
}

// FuzzControlPayloads runs the control frames' three payload readers on
// arbitrary bytes. Each returns its fields or an error — never panics,
// never fields beside an error — allocates in proportion to its input, and
// what it accepts survives a second encode and decode unchanged.
func FuzzControlPayloads(f *testing.F) {
	f.Add(addrPayload(42))
	f.Add(addrPayload(-1))
	f.Add(registerPayload(7, "127.0.0.1:7000"))
	f.Add(allocPayload(0x9e3779b97f4a7c15, -1, "127.0.0.1:7001"))
	f.Add(allocPayload(1, 5, ""))
	// Endpoint lengths past the end of the payload.
	f.Add(binary.AppendUvarint(binary.AppendVarint(nil, 1), 1<<40))
	f.Add(binary.AppendUvarint([]byte{1}, 1<<20))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		var (
			addr, regAddr, allocAddr int64
			regEp, allocEp           string
			fp                       uint64
			addrErr, regErr, aErr    error
		)
		got := allocated(func() {
			addr, addrErr = readAddrPayload(b)
			regAddr, regEp, regErr = readRegisterPayload(b)
			fp, allocAddr, allocEp, aErr = readAllocPayload(b)
		})
		if got > allocLimit(b) {
			t.Fatalf("payload readers on %d bytes allocated %d bytes, limit %d", len(b), got, allocLimit(b))
		}

		if addrErr != nil {
			if addr != 0 {
				t.Fatalf("readAddrPayload(%x) = (%d, %v)", b, addr, addrErr)
			}
		} else if a, err := readAddrPayload(addrPayload(addr)); err != nil || a != addr {
			t.Fatalf("addr %d does not round-trip: (%d, %v)", addr, a, err)
		}

		if regErr != nil {
			if regAddr != 0 || regEp != "" {
				t.Fatalf("readRegisterPayload(%x) = (%d, %q, %v)", b, regAddr, regEp, regErr)
			}
		} else if a, ep, err := readRegisterPayload(registerPayload(regAddr, regEp)); err != nil || a != regAddr || ep != regEp {
			t.Fatalf("register (%d, %q) does not round-trip: (%d, %q, %v)", regAddr, regEp, a, ep, err)
		}

		if aErr != nil {
			if fp != 0 || allocAddr != 0 || allocEp != "" {
				t.Fatalf("readAllocPayload(%x) = (%x, %d, %q, %v)", b, fp, allocAddr, allocEp, aErr)
			}
		} else if f2, a, ep, err := readAllocPayload(allocPayload(fp, allocAddr, allocEp)); err != nil || f2 != fp || a != allocAddr || ep != allocEp {
			t.Fatalf("alloc (%x, %d, %q) does not round-trip: (%x, %d, %q, %v)", fp, allocAddr, allocEp, f2, a, ep, err)
		}
	})
}
