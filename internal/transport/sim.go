package transport

import (
	"sync"

	"mykil/internal/simnet"
	"mykil/internal/wire"
)

// Sim is a Transport over a simnet endpoint.
type Sim struct {
	ep     *simnet.Endpoint
	net    *simnet.Network
	frames chan *wire.Frame
	wg     sync.WaitGroup
}

var _ Transport = (*Sim)(nil)

// simReg tracks the live Sim transports attached to each network, so a
// virtual-time driver can ask whether any frame has been decoded but not
// yet consumed by its node (PendingFrames). Without that signal a clock
// pump sees an idle network while messages sit in transport buffers and
// sweeps virtual time across real processing stalls.
var (
	simRegMu sync.Mutex
	simReg   = map[*simnet.Network]map[*Sim]struct{}{}
)

// NewSim attaches a new transport to the network under the given address.
func NewSim(n *simnet.Network, addr string) (*Sim, error) {
	ep, err := n.Endpoint(addr)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		ep:     ep,
		net:    n,
		frames: make(chan *wire.Frame, 256),
	}
	simRegMu.Lock()
	set := simReg[n]
	if set == nil {
		set = make(map[*Sim]struct{})
		simReg[n] = set
	}
	set[s] = struct{}{}
	simRegMu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.pump()
	}()
	return s, nil
}

// PendingFrames reports how many frames across all live transports on n
// have been decoded off the wire but not yet received by their node.
// Zero means every delivered message has at least reached its consumer.
func PendingFrames(n *simnet.Network) int {
	simRegMu.Lock()
	defer simRegMu.Unlock()
	total := 0
	for s := range simReg[n] {
		total += len(s.frames)
	}
	return total
}

// pump decodes envelopes into frames. Frames that fail to decode are
// dropped, as a real stack drops corrupt datagrams. A decoded frame
// borrows the envelope's payload, which the other receivers of the same
// multicast borrow too.
func (s *Sim) pump() {
	for {
		select {
		case env := <-s.ep.Inbox():
			f, err := wire.DecodeFrame(env.Payload)
			if err != nil {
				continue
			}
			select {
			case s.frames <- f:
			case <-s.ep.Done():
				return
			}
		case <-s.ep.Done():
			return
		}
	}
}

// Addr implements Transport.
func (s *Sim) Addr() string { return s.ep.Addr() }

// Send implements Transport. The network is handed the frame's own
// encoding, not a copy, so an area multicast queues one buffer N times.
func (s *Sim) Send(to string, f *wire.Frame) error {
	b, err := f.Encode()
	if err != nil {
		return err
	}
	return s.ep.Send(to, b)
}

// Recv implements Transport.
func (s *Sim) Recv() <-chan *wire.Frame { return s.frames }

// Done implements Transport.
func (s *Sim) Done() <-chan struct{} { return s.ep.Done() }

// Close implements Transport.
func (s *Sim) Close() error {
	simRegMu.Lock()
	if set := simReg[s.net]; set != nil {
		delete(set, s)
		if len(set) == 0 {
			delete(simReg, s.net)
		}
	}
	simRegMu.Unlock()
	s.ep.Close()
	s.wg.Wait()
	return nil
}
