package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mykil/internal/crypt"
	"mykil/internal/member"
	"mykil/internal/obs"
	"mykil/internal/simnet"
	"mykil/internal/transport"
	"mykil/internal/wire"
)

// dataTap is a transport factory over its own simnet that keeps a decoded
// copy of every Data frame any component hands to its transport.
type dataTap struct {
	net *simnet.Network
	mu  sync.Mutex
	got []wire.Data
}

type tappedTransport struct {
	transport.Transport
	tap *dataTap
}

func (d *dataTap) factory(name string) (transport.Transport, error) {
	tr, err := transport.NewSim(d.net, name)
	if err != nil {
		return nil, err
	}
	return &tappedTransport{tr, d}, nil
}

func (tt *tappedTransport) Send(to string, f *wire.Frame) error {
	if f.Kind == wire.KindData {
		var d wire.Data
		if err := wire.DecodePlain(f.Body, &d); err == nil {
			tt.tap.mu.Lock()
			tt.tap.got = append(tt.tap.got, d)
			tt.tap.mu.Unlock()
		}
	}
	return tt.Transport.Send(to, f)
}

// from returns the captured Data frames that origin sent.
func (d *dataTap) from(origin string) []wire.Data {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []wire.Data
	for _, f := range d.got {
		if f.Origin == origin {
			out = append(out, f)
		}
	}
	return out
}

// noDataDropped fails if any of the members dropped a data packet it was
// positioned to read: "never a garbled frame", as the members count it.
func noDataDropped(t *testing.T, ms ...*member.Member) {
	t.Helper()
	for _, m := range ms {
		if n := m.Stats().Value(obs.MetricDataDropped); n != 0 {
			t.Errorf("%s = %d at a member, want 0", obs.MetricDataDropped, n)
		}
	}
}

// TestCrossSuiteNegotiationMatrix drives every (member suite mask ×
// area suite) cell through the real join protocol: the outcome must be
// either an agreed suite with intact end-to-end delivery or an explicit
// deny naming the area's suite — never a garbled frame or a hang. In an
// admitted cell the payload on the wire is sealed by the area's suite and
// tagged with it; a relay case per non-legacy suite carries one payload
// across two data-key re-wrap hops unmodified.
func TestCrossSuiteNegotiationMatrix(t *testing.T) {
	masks := []struct {
		name string
		mask uint64
	}{
		{"zero(=all)", 0},
		{"legacy-only", crypt.SuiteLegacy.Mask()},
		{"gcm-only", crypt.SuiteAESGCM.Mask()},
		{"chacha-only", crypt.SuiteChaCha20Poly1305.Mask()},
		{"all", crypt.AllSuitesMask()},
	}
	for _, s := range crypt.Suites() {
		s := s
		t.Run("area="+s.Name(), func(t *testing.T) {
			tap := &dataTap{net: simnet.New(simnet.Config{})}
			defer tap.net.Close()
			opts := append(fastTiming(1), WithCipherSuite(s.Name()), WithTransportFactory(tap.factory))
			g, err := New(opts...)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer g.Close()

			// The reference member speaks everything; it witnesses that
			// admitted probes share its area key stream.
			witness := &collector{}
			ref, err := g.AddMember("ref", MemberConfig{OnData: witness.onData})
			if err != nil {
				t.Fatalf("reference member join: %v", err)
			}

			for i, mc := range masks {
				admit := mc.mask == 0 || mc.mask&s.ID().Mask() != 0
				id := fmt.Sprintf("probe-%d", i)
				m, err := g.NewMember(id, MemberConfig{Suites: mc.mask, OnData: (&collector{}).onData})
				if err != nil {
					t.Fatalf("%s: NewMember: %v", mc.name, err)
				}
				err = m.Join()
				if !admit {
					if err == nil {
						t.Fatalf("%s: joined an area running %s without advertising it", mc.name, s.Name())
					}
					if !errors.Is(err, member.ErrDenied) {
						t.Fatalf("%s: want explicit ErrDenied, got: %v", mc.name, err)
					}
					if !strings.Contains(err.Error(), s.Name()) {
						t.Fatalf("%s: deny reason should name the area suite %s: %v", mc.name, s.Name(), err)
					}
					m.Close()
					continue
				}
				if err != nil {
					t.Fatalf("%s: join should agree on %s: %v", mc.name, s.Name(), err)
				}
				// Prove the agreed suite produces intelligible frames both
				// ways: the probe multicasts and the reference must decrypt
				// the exact payload.
				msg := fmt.Sprintf("hello-from-%s", id)
				if err := m.Send([]byte(msg)); err != nil {
					t.Fatalf("%s: send: %v", mc.name, err)
				}
				waitFor(t, mc.name+" delivery", 5*time.Second, func() bool {
					return witness.has(id + ":" + msg)
				})
				noDataDropped(t, ref, m)
				sent := tap.from(id)[0]
				if sent.Cipher != wire.CipherOf(s.ID()) {
					t.Errorf("%s: Data.Cipher = %d, want %d naming the area suite %s", mc.name, sent.Cipher, wire.CipherOf(s.ID()), s.Name())
				}
				if want := len(msg) + s.Overhead(); len(sent.Payload) != want {
					t.Errorf("%s: payload is %d bytes on the wire, want %d = plaintext + %s overhead", mc.name, len(sent.Payload), want, s.Name())
				}
				if err := m.Leave(); err != nil {
					t.Fatalf("%s: leave: %v", mc.name, err)
				}
				m.Close()
			}
		})
		if s.ID() == crypt.SuiteLegacy {
			continue
		}
		t.Run("relay="+s.Name(), func(t *testing.T) {
			tap := &dataTap{net: simnet.New(simnet.Config{})}
			defer tap.net.Close()
			g, err := New(append(fastTiming(3), WithCipherSuite(s.Name()), WithTransportFactory(tap.factory))...)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer g.Close()
			waitFor(t, "area tree assembly", 10*time.Second, func() bool {
				return g.Controller(1).ParentID() != "" && g.Controller(2).ParentID() != ""
			})
			// Round-robin puts r_i in area i; areas 1 and 2 are siblings
			// under 0, so r1's packet reaches r2 re-wrapped at ac-1 and ac-2.
			var recv [3]collector
			var ms [3]*member.Member
			for i := range ms {
				if ms[i], err = g.AddMember(fmt.Sprintf("r%d", i), MemberConfig{OnData: recv[i].onData}); err != nil {
					t.Fatalf("AddMember r%d: %v", i, err)
				}
			}
			if ms[1].ControllerID() != ACID(1) || ms[2].ControllerID() != ACID(2) {
				t.Fatalf("r1 on %s, r2 on %s; want ac-1, ac-2", ms[1].ControllerID(), ms[2].ControllerID())
			}
			msg := []byte("across two hops")
			if err := ms[1].Send(msg); err != nil {
				t.Fatalf("Send: %v", err)
			}
			waitFor(t, "delivery two hops away", 10*time.Second, func() bool {
				return recv[0].has("r1:"+string(msg)) && recv[2].has("r1:"+string(msg))
			})
			noDataDropped(t, ms[:]...)
			hops := tap.from("r1")
			areas := map[string]bool{}
			for _, d := range hops {
				areas[d.FromArea] = true
				if d.Cipher != hops[0].Cipher || !bytes.Equal(d.Payload, hops[0].Payload) {
					t.Errorf("payload or cipher tag changed on the hop into %s", d.FromArea)
				}
			}
			if len(areas) != 3 {
				t.Errorf("packet traversed areas %v, want all three", areas)
			}
			if hops[0].Cipher != wire.CipherOf(s.ID()) || len(hops[0].Payload) != len(msg)+s.Overhead() {
				t.Errorf("origin sealed %d bytes tagged %d, want %d tagged %d", len(hops[0].Payload), hops[0].Cipher, len(msg)+s.Overhead(), wire.CipherOf(s.ID()))
			}
		})
	}
}
