// Package obs is the observability layer: a bounded structured trace of
// protocol and network events, a named metrics registry, machine-readable run
// manifests, and CPU/heap profiling hooks. Every layer of the simulator
// (sim, simnet, core, exp, the CLIs) reports into it; nothing in this package
// ever feeds back into protocol behavior, so enabling observability cannot
// change simulation results.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/runtime"
)

// Kind classifies a trace event.
type Kind uint8

// Trace event kinds. Message-level kinds come from simnet, peer and lookup
// kinds from core.
const (
	EvMsgSend Kind = iota
	EvMsgDeliver
	EvMsgDrop
	EvPeerJoin
	EvPeerLeave
	EvPeerCrash
	EvLookupStart
	EvLookupHop
	EvLookupForward
	EvLookupHit
	EvLookupFail
)

var kindNames = [...]string{
	EvMsgSend:       "msg_send",
	EvMsgDeliver:    "msg_deliver",
	EvMsgDrop:       "msg_drop",
	EvPeerJoin:      "peer_join",
	EvPeerLeave:     "peer_leave",
	EvPeerCrash:     "peer_crash",
	EvLookupStart:   "lookup_start",
	EvLookupHop:     "lookup_hop",
	EvLookupForward: "lookup_forward",
	EvLookupHit:     "lookup_hit",
	EvLookupFail:    "lookup_fail",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one trace record. From/To are peer addresses (simnet.Addr values;
// -1 means none) and Lookup is the query id threaded through the core message
// types (0 means the event is not tied to a lookup).
type Event struct {
	Seq    uint64
	At     runtime.Time
	Kind   Kind
	Lookup uint64
	From   int
	To     int
	Hops   int
	Note   string
}

// Tracer is a bounded in-memory ring of trace events. A nil *Tracer is the
// "tracing off" fast path: Enabled reports false and every method is a no-op,
// so call sites pay one pointer comparison when tracing is disabled.
//
// A Tracer is safe for concurrent use; parallel sweep points may share one
// (each event carries its own simulated timestamp, and the point label tells
// interleaved streams apart).
type Tracer struct {
	mu    sync.Mutex
	label string
	cap   int
	buf   []Event
	start int // index of the oldest event once the ring is full
	seq   uint64
}

// DefaultTraceCap is the default ring capacity (events kept before the oldest
// are overwritten).
const DefaultTraceCap = 1 << 16

// NewTracer creates a tracer keeping at most capacity events (<= 0 uses
// DefaultTraceCap).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{cap: capacity}
}

// Enabled reports whether events should be emitted. It is nil-safe and is the
// TraceOff fast path: protocol code guards every Emit with it.
func (t *Tracer) Enabled() bool { return t != nil }

// SetLabel attaches a label (e.g. "ps=0.70") included in every exported line.
func (t *Tracer) SetLabel(label string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.label = label
	t.mu.Unlock()
}

// Emit appends one event to the ring, overwriting the oldest when full.
func (t *Tracer) Emit(kind Kind, at runtime.Time, lookup uint64, from, to, hops int, note string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	e := Event{Seq: t.seq, At: at, Kind: kind, Lookup: lookup, From: from, To: to, Hops: hops, Note: note}
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.start] = e
		t.start = (t.start + 1) % t.cap
	}
	t.mu.Unlock()
}

// Len returns the number of events currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Events returns the retained events in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eventsLocked()
}

// eventsLocked copies the ring in emission order. Callers hold t.mu.
func (t *Tracer) eventsLocked() []Event {
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.start:]...)
	out = append(out, t.buf[:t.start]...)
	return out
}

// snapshot returns the label and retained events under one lock acquisition,
// so a concurrent SetLabel can never produce a torn label/event pairing in an
// export.
func (t *Tracer) snapshot() (string, []Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.label, t.eventsLocked()
}

// LookupEvents returns the retained events for one lookup id, in emission
// order — the full hop sequence of a traced query.
func (t *Tracer) LookupEvents(qid uint64) []Event {
	var out []Event
	for _, e := range t.Events() {
		if e.Lookup == qid {
			out = append(out, e)
		}
	}
	return out
}

// jsonEvent is the JSONL wire shape of an Event.
type jsonEvent struct {
	Seq    uint64 `json:"seq"`
	TUs    int64  `json:"t_us"`
	Kind   string `json:"kind"`
	Point  string `json:"point,omitempty"`
	Lookup uint64 `json:"lookup,omitempty"`
	From   int    `json:"from"`
	To     int    `json:"to"`
	Hops   int    `json:"hops,omitempty"`
	Note   string `json:"note,omitempty"`
}

// WriteJSONL exports the retained events as one JSON object per line. The
// label and event list are captured under a single lock acquisition, so the
// exported lines are always a consistent (label, events) pairing even when a
// concurrent SetLabel races the export.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return t.WriteJSONLTail(w, 0)
}

// WriteJSONLTail exports the last n retained events (all of them when
// n <= 0) as one JSON object per line — the bounded "what just happened"
// view the introspection server serves at /trace.
func (t *Tracer) WriteJSONLTail(w io.Writer, n int) error {
	if t == nil {
		return nil
	}
	label, events := t.snapshot()
	if n > 0 && n < len(events) {
		events = events[len(events)-n:]
	}
	enc := json.NewEncoder(w)
	for _, e := range events {
		je := jsonEvent{
			Seq: e.Seq, TUs: int64(e.At), Kind: e.Kind.String(), Point: label,
			Lookup: e.Lookup, From: e.From, To: e.To, Hops: e.Hops, Note: e.Note,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return nil
}
