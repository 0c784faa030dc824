package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"mykil/internal/clock"
)

// Protocol identifies which paper flow a trace event belongs to.
type Protocol string

const (
	// ProtoJoin is the 7-step registration-server join (§III-B).
	ProtoJoin Protocol = "join"
	// ProtoRejoin is the 6-step ticket rejoin, including the anti-cohort
	// verification round 4-5 (§III-D).
	ProtoRejoin Protocol = "rejoin"
	// ProtoRekey covers batch and freshness rekeys (§III-E).
	ProtoRekey Protocol = "rekey"
	// ProtoReseal covers Iolus data re-encryption at area borders (§III-C).
	ProtoReseal Protocol = "reseal"
	// ProtoAlive covers T_idle/T_active alive messages and silence
	// eviction (§IV-A).
	ProtoAlive Protocol = "alive"
	// ProtoReparent covers AC tree re-parenting after failures (§IV-C).
	ProtoReparent Protocol = "reparent"
	// ProtoRecovery covers journal replay on restart.
	ProtoRecovery Protocol = "recovery"
	// ProtoFailover covers backup-replica promotion (§IV-B).
	ProtoFailover Protocol = "failover"
	// ProtoElection covers quorum leader election among an area's
	// replica set, including segment catch-up pulls.
	ProtoElection Protocol = "election"
	// ProtoSplit covers dynamic area split/merge topology changes.
	ProtoSplit Protocol = "split"
)

// Attr is one key/value annotation on an event. Values are plain
// strings by construction: the typed constructors below accept only
// identifiers, integers, and durations, never key material. The fields
// are K and V (not Key) deliberately: keyflow's name heuristic treats a
// bytes-like .Key as key material, and these never are.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// String builds a string-valued attribute (IDs, addresses, epochs as
// text — never key bytes; mykil-vet's obsdiscipline check enforces it).
func String(key, value string) Attr { return Attr{K: key, V: value} }

// Int builds an integer-valued attribute.
func Int(key string, v int64) Attr { return Attr{K: key, V: strconv.FormatInt(v, 10)} }

// Uint builds an unsigned-integer attribute (epochs, LSNs).
func Uint(key string, v uint64) Attr { return Attr{K: key, V: strconv.FormatUint(v, 10)} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{K: key, V: strconv.FormatBool(v)} }

// Dur builds a duration-valued attribute.
func Dur(key string, d time.Duration) Attr { return Attr{K: key, V: d.String()} }

// Event is one structured protocol event. Step is 1-based within a
// handshake (join 1..7, rejoin 1..6) and zero for non-handshake events.
type Event struct {
	Time    time.Time `json:"t"`
	Node    string    `json:"node"`
	Proto   Protocol  `json:"proto"`
	Subject string    `json:"subject,omitempty"`
	Step    int       `json:"step,omitempty"`
	Name    string    `json:"name"`
	Attrs   []Attr    `json:"attrs,omitempty"`
}

func (e Event) String() string {
	s := fmt.Sprintf("%s %s %s", e.Node, e.Proto, e.Name)
	if e.Step != 0 {
		s = fmt.Sprintf("%s step=%d", s, e.Step)
	}
	if e.Subject != "" {
		s = fmt.Sprintf("%s subject=%s", s, e.Subject)
	}
	for _, a := range e.Attrs {
		s = fmt.Sprintf("%s %s=%s", s, a.K, a.V)
	}
	return s
}

// Sink receives events. Implementations must be safe for concurrent
// Emit calls: node loops and data-plane workers share one sink.
type Sink interface {
	Emit(Event)
}

// Ring is an in-memory sink keeping the most recent events, for tests.
type Ring struct {
	mu     sync.Mutex
	buf    []Event
	start  int
	filled bool
}

// NewRing returns a ring sink with the given capacity (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Emit appends the event, evicting the oldest once full.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.filled && len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.filled = true
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
}

// Events returns the buffered events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	return out
}

// Filter returns buffered events matching the protocol and, when
// subject is non-empty, the subject — oldest first.
func (r *Ring) Filter(proto Protocol, subject string) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Proto == proto && (subject == "" || e.Subject == subject) {
			out = append(out, e)
		}
	}
	return out
}

// Len returns the number of buffered events.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// JSONL writes one JSON object per event per line — the mykilnet trace
// file format. Encoding errors are sticky and reported by Err.
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONL returns a sink writing JSON lines to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Emit encodes the event as one JSON line.
func (j *JSONL) Emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(e)
}

// Err returns the first encoding error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// MultiSink fans one event out to several sinks.
type MultiSink []Sink

// Emit forwards the event to every non-nil sink.
func (m MultiSink) Emit(e Event) {
	for _, s := range m {
		if s != nil {
			s.Emit(e)
		}
	}
}

// Tracer stamps events for one node and forwards them to a sink. A nil
// *Tracer is a no-op, so instrumented code never branches on whether
// observability is enabled. Timestamps come from the injected clock,
// never from time.Now (clockdiscipline + obsdiscipline enforced).
type Tracer struct {
	node string
	clk  clock.Clock
	sink Sink
}

// NewTracer binds a node identity and clock to a sink. A nil sink
// yields a nil tracer (every method no-ops).
func NewTracer(node string, clk clock.Clock, sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	if clk == nil {
		clk = clock.Real{}
	}
	return &Tracer{node: node, clk: clk, sink: sink}
}

// Step emits one numbered handshake step for the given subject (the
// member or controller the handshake is about).
func (t *Tracer) Step(proto Protocol, subject string, step int, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{
		Time:    t.clk.Now(),
		Node:    t.node,
		Proto:   proto,
		Subject: subject,
		Step:    step,
		Name:    name,
		Attrs:   attrs,
	})
}

// Event emits an un-numbered protocol event (rekeys, alive rounds,
// reseals, recovery).
func (t *Tracer) Event(proto Protocol, subject, name string, attrs ...Attr) {
	t.Step(proto, subject, 0, name, attrs...)
}
