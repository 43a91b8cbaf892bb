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
// all integers little-endian. Protocol messages are one-way datagrams (the
// transport contract is asynchronous and unreliable), so their MsgID is 0.
// Control frames — the bootstrap broker dialogue — are request/response:
// the requester stamps a fresh MsgID, parks a waiter channel in its
// inflight map, and the connection's reader delivers the matching response.
const (
	headerLen  = 30
	maxPayload = 16 << 20
)

// Control frame types. Codes at or above ctrlBase never collide with codec
// codes (codec codes are dense from 1 and far below 0xFF00).
const (
	ctrlBase uint16 = 0xFF00

	// ctrlAllocReq asks the bootstrap for a fresh peer address (JOIN-ALLOC).
	// Empty payload; the response carries the address. Addresses are handed
	// out densely from one counter, preserving the Addr.Index contract
	// across every process in the cluster.
	ctrlAllocReq  uint16 = 0xFF01
	ctrlAllocResp uint16 = 0xFF02

	// ctrlRegisterReq announces "address A is served at endpoint E" to the
	// bootstrap's directory. Payload: varint addr, uvarint len, endpoint.
	ctrlRegisterReq  uint16 = 0xFF03
	ctrlRegisterResp uint16 = 0xFF04

	// ctrlResolveReq asks the bootstrap which endpoint serves an address.
	// Payload: varint addr. Response: 1 byte found, uvarint len, endpoint.
	ctrlResolveReq  uint16 = 0xFF05
	ctrlResolveResp uint16 = 0xFF06

	// ctrlAttachedReq asks the bootstrap whether an address is currently
	// attached anywhere in the cluster. Payload: varint addr. Response:
	// 1 byte.
	ctrlAttachedReq  uint16 = 0xFF07
	ctrlAttachedResp uint16 = 0xFF08

	// ctrlDetach reports a local detach to the bootstrap's directory.
	// One-way (MsgID 0). Payload: varint addr.
	ctrlDetach uint16 = 0xFF09
)

type envelope struct {
	Type    uint16
	From    int64
	To      int64
	MsgID   uint64
	Payload []byte
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

func resolvePayload(found bool, endpoint string) []byte {
	b := make([]byte, 1, 1+len(endpoint)+2)
	if found {
		b[0] = 1
	}
	b = binary.AppendUvarint(b, uint64(len(endpoint)))
	return append(b, endpoint...)
}

func readResolvePayload(b []byte) (bool, string, error) {
	if len(b) < 1 {
		return false, "", fmt.Errorf("net: bad resolve payload")
	}
	found := b[0] != 0
	b = b[1:]
	l, w := binary.Uvarint(b)
	if w <= 0 || uint64(len(b)-w) < l {
		return false, "", fmt.Errorf("net: bad resolve endpoint")
	}
	return found, string(b[w : w+int(l)]), nil
}

func boolPayload(v bool) []byte {
	if v {
		return []byte{1}
	}
	return []byte{0}
}
