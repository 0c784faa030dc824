package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sync"
	"time"
)

// samplePerKind is how many real frames of each kind a traced run keeps
// for the layer walk to decode.
const samplePerKind = 64

// traceCollector is the traced run's in-memory instrument: the counting
// transport decorator and the program's obs events both report here, and
// the layer walk appends its spans. Nothing is written until the run ends.
type traceCollector struct {
	mu  sync.Mutex
	rng *rand.Rand

	base time.Time // span timestamps count from here, on the monotonic clock
	// armed is set for the measured phase only: set-up traffic is sampled
	// but not counted, so every count is per measured operation.
	armed bool

	sendsByRole map[string]int64
	sendsByKind map[string]int64 // keyed "role/kind" and "/kind"
	seenByKind  map[string]int64
	samples     map[string][][]byte // encoded frames, a seeded reservoir per kind
	signedSends int64               // frames carrying a signature: one RSA verify each at the receiver
	signs       int64               // distinct signed frames: one RSA sign each
	sealedSends int64               // RSA-sealed bodies: one encrypt and one decrypt each
	lastSigned  map[string][]byte   // per sender: the signature last seen, to tell a multicast from a new frame

	events   int64
	lastStep map[stepKey]stepMark
	stepSum  map[stepKey]float64 // (proto, "", step) -> summed milliseconds
	stepN    map[stepKey]int64

	spans  []span
	nextID int64
}

type stepKey struct {
	proto, subject string
	step           int
}

type stepMark struct {
	step int
	at   time.Time
}

// span is one timed call of the layer walk.
type span struct {
	Trace   int64  `json:"trace"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Calls is how many back-to-back calls the span covers; sub-microsecond
	// calls are timed in blocks so the clock reads do not dominate.
	Calls int `json:"calls"`
}

func newTraceCollector(seed int64) *traceCollector {
	return &traceCollector{
		rng:         rand.New(rand.NewSource(seed)),
		base:        time.Now(),
		sendsByRole: map[string]int64{},
		sendsByKind: map[string]int64{},
		seenByKind:  map[string]int64{},
		samples:     map[string][][]byte{},
		lastSigned:  map[string][]byte{},
		lastStep:    map[stepKey]stepMark{},
		stepSum:     map[stepKey]float64{},
		stepN:       map[stepKey]int64{},
	}
}

// observeSend records one frame handed to a transport.
func (tc *traceCollector) observeSend(role string, f sutFrame) {
	kind := f.Kind()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	// Reservoir sampling keeps every frame of a kind equally likely.
	tc.seenByKind[kind]++
	if s := tc.samples[kind]; len(s) < samplePerKind {
		tc.samples[kind] = append(s, f.Encode())
	} else if j := tc.rng.Int63n(tc.seenByKind[kind]); j < samplePerKind {
		s[j] = f.Encode()
	}
	if !tc.armed {
		return
	}
	tc.sendsByRole[role]++
	tc.sendsByKind["/"+kind]++
	tc.sendsByKind[role+"/"+kind]++
	if f.Signed() {
		tc.signedSends++
		// A multicast hands the same signed frame to the transport once
		// per receiver; only a change of signature is a new signing.
		if sig, from := f.Sig(), f.From(); !sameBytes(tc.lastSigned[from], sig) {
			tc.signs++
			tc.lastSigned[from] = sig
		}
	}
	if sealedKinds[kind] {
		tc.sealedSends++
	}
}

// arm starts or stops counting; the meter brackets the measured phase
// with it.
func (tc *traceCollector) arm(on bool) {
	if tc == nil {
		return
	}
	tc.mu.Lock()
	tc.armed = on
	tc.mu.Unlock()
}

func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// handshakeSteps is how many numbered steps each traced handshake has.
var handshakeSteps = map[string]int{"join": 7, "rejoin": 6}

// observeEvent records one protocol event. Numbered handshake steps feed
// the per-step waiting times: step k's figure is the time from step k's
// event to step k+1's, and the last step's runs to observeDone.
func (tc *traceCollector) observeEvent(proto, subject string, step int, _ string, at time.Time) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if !tc.armed {
		return
	}
	tc.events++
	if step == 0 || handshakeSteps[proto] == 0 {
		return
	}
	tc.markStep(proto, subject, step, at)
}

// observeDone closes a handshake: the member's blocking call returned.
func (tc *traceCollector) observeDone(proto, subject string, at time.Time) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if !tc.armed {
		return
	}
	tc.markStep(proto, subject, handshakeSteps[proto]+1, at)
}

func (tc *traceCollector) markStep(proto, subject string, step int, at time.Time) {
	k := stepKey{proto: proto, subject: subject}
	// A rejoin that skips the steps 4-5 round trip goes 3 -> 6; only
	// consecutive steps are attributed.
	if last, ok := tc.lastStep[k]; ok && last.step == step-1 {
		agg := stepKey{proto: proto, step: last.step}
		tc.stepSum[agg] += ms(at.Sub(last.at))
		tc.stepN[agg]++
	}
	if step > handshakeSteps[proto] {
		delete(tc.lastStep, k)
		return
	}
	tc.lastStep[k] = stepMark{step, at}
}

// stepMeanMs is the mean waiting time of one handshake step.
func (tc *traceCollector) stepMeanMs(proto string, step int) float64 {
	k := stepKey{proto: proto, step: step}
	if tc.stepN[k] == 0 {
		return 0
	}
	return tc.stepSum[k] / float64(tc.stepN[k])
}

// newSpanID reserves an id, so a parent span can be named by its children
// before it ends.
func (tc *traceCollector) newSpanID() int64 {
	tc.nextID++
	return tc.nextID
}

// record appends one finished span of the layer walk.
func (tc *traceCollector) record(trace, id, parent int64, name string, start, end time.Time, calls int) {
	tc.spans = append(tc.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		StartNs: int64(start.Sub(tc.base)), EndNs: int64(end.Sub(tc.base)), Calls: calls,
	})
}

// perCallNs returns every span's duration per call, by span name.
func (tc *traceCollector) perCallNs() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range tc.spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNs-s.StartNs)/float64(s.Calls))
	}
	return out
}

// writeSpans writes the span file of one workload.
func (tc *traceCollector) writeSpans(path, workload string, seed int64) error {
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, tc.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
