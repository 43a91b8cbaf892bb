package net

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// The wire envelope. Every frame on a cluster connection is:
//
//	offset  size  field
//	0       2     Type   — codec message code, or a ctrl* code (>= 0xFF00)
//	2       8     From   — sender address (int64; -1 for control frames)
//	10      8     To     — destination address (int64; -1 for control frames)
//	18      8     MsgID  — request-correlation id; 0 on one-way frames
//	26      4     Len    — payload length
//	30      Len   payload
//
// all integers little-endian. Every frame is a one-way datagram (the
// transport contract is asynchronous and unreliable) with MsgID 0, except
// the one request, alloc: the requester stamps a fresh MsgID and its
// response carries it back.
const (
	headerLen  = 30
	maxPayload = 16 << 20
)

// Control frame types. Codes at or above ctrlBase never collide with codec
// codes (codec codes are dense from 1 and far below 0xFF00).
const (
	ctrlBase uint16 = 0xFF00

	// ctrlAllocReq asks the bootstrap for a fresh peer address (JOIN-ALLOC);
	// ctrlAllocResp answers it on the requester's endpoint. Addresses are
	// handed out densely from one counter, preserving the Addr.Index contract
	// across every process in the cluster. Payload: allocPayload.
	ctrlAllocReq  uint16 = 0xFF01
	ctrlAllocResp uint16 = 0xFF02

	// ctrlRegister says "address A is attached at endpoint E": a worker's
	// to the bootstrap, and the bootstrap's to every worker. Payload: varint
	// addr, uvarint len, endpoint.
	ctrlRegister uint16 = 0xFF03

	// ctrlDetach says "address A is detached", on the same paths. Payload:
	// varint addr.
	ctrlDetach uint16 = 0xFF04
)

type envelope struct {
	Type    uint16
	From    int64
	To      int64
	MsgID   uint64
	Payload []byte
	// msg is a protocol message Send posted unencoded: the outbox writer
	// encodes it into Payload, so the executor does no work that grows with
	// the message's size.
	msg any
}

// appendEnvelope serializes the frame into buf.
func appendEnvelope(buf []byte, env envelope) []byte {
	var h [headerLen]byte
	binary.LittleEndian.PutUint16(h[0:2], env.Type)
	binary.LittleEndian.PutUint64(h[2:10], uint64(env.From))
	binary.LittleEndian.PutUint64(h[10:18], uint64(env.To))
	binary.LittleEndian.PutUint64(h[18:26], env.MsgID)
	binary.LittleEndian.PutUint32(h[26:30], uint32(len(env.Payload)))
	buf = append(buf, h[:]...)
	return append(buf, env.Payload...)
}

// readEnvelope reads one frame. io.EOF on a clean boundary means the peer
// closed; a partial header or payload surfaces as ErrUnexpectedEOF.
func readEnvelope(r io.Reader) (envelope, error) {
	var h [headerLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return envelope{}, err
	}
	env := envelope{
		Type:  binary.LittleEndian.Uint16(h[0:2]),
		From:  int64(binary.LittleEndian.Uint64(h[2:10])),
		To:    int64(binary.LittleEndian.Uint64(h[10:18])),
		MsgID: binary.LittleEndian.Uint64(h[18:26]),
	}
	n := binary.LittleEndian.Uint32(h[26:30])
	if n > maxPayload {
		return envelope{}, fmt.Errorf("net: frame payload %d exceeds limit", n)
	}
	// The payload grows as its bytes arrive — one step of up to 64 KiB,
	// then doubling — so a header alone cannot make the reader allocate the
	// up to maxPayload bytes it claims.
	for want := int(n); len(env.Payload) < want; {
		if len(env.Payload) == cap(env.Payload) {
			env.Payload = slices.Grow(env.Payload, min(max(len(env.Payload), 64<<10), want-len(env.Payload)))
		}
		end := min(cap(env.Payload), want)
		if _, err := io.ReadFull(r, env.Payload[len(env.Payload):end]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised more
			}
			return envelope{}, err
		}
		env.Payload = env.Payload[:end]
	}
	return env, nil
}

// Control payload helpers.

func addrPayload(a int64) []byte {
	return binary.AppendVarint(nil, a)
}

func readAddrPayload(b []byte) (int64, error) {
	a, n := binary.Varint(b)
	if n <= 0 {
		return 0, fmt.Errorf("net: bad addr payload")
	}
	return a, nil
}

func registerPayload(a int64, endpoint string) []byte {
	b := binary.AppendVarint(nil, a)
	b = binary.AppendUvarint(b, uint64(len(endpoint)))
	return append(b, endpoint...)
}

func readRegisterPayload(b []byte) (int64, string, error) {
	a, n := binary.Varint(b)
	if n <= 0 {
		return 0, "", fmt.Errorf("net: bad register payload")
	}
	b = b[n:]
	l, w := binary.Uvarint(b)
	if w <= 0 || uint64(len(b)-w) < l {
		return 0, "", fmt.Errorf("net: bad register endpoint")
	}
	return a, string(b[w : w+int(l)]), nil
}

// allocPayload is both halves of the alloc dialogue: the sender's wire
// fingerprint (8 bytes), a varint address, and an endpoint filling the rest.
// The request carries the worker's fingerprint, -1 and its endpoint; the
// response the bootstrap's fingerprint, the address (-1 when refused) and no
// endpoint.
func allocPayload(fp uint64, a int64, endpoint string) []byte {
	b := binary.AppendVarint(binary.LittleEndian.AppendUint64(nil, fp), a)
	return append(b, endpoint...)
}

func readAllocPayload(b []byte) (uint64, int64, string, error) {
	if len(b) < 8 {
		return 0, 0, "", fmt.Errorf("net: bad alloc payload")
	}
	a, n := binary.Varint(b[8:])
	if n <= 0 {
		return 0, 0, "", fmt.Errorf("net: bad alloc address")
	}
	return binary.LittleEndian.Uint64(b), a, string(b[8+n:]), nil
}

// dirFrame is the directory frame for a register (alive) or a detach.
func dirFrame(a int64, endpoint string, alive bool) envelope {
	if alive {
		return envelope{Type: ctrlRegister, From: -1, To: -1, Payload: registerPayload(a, endpoint)}
	}
	return envelope{Type: ctrlDetach, From: -1, To: -1, Payload: addrPayload(a)}
}
