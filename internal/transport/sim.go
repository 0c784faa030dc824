package transport

import (
	"sync"
	"sync/atomic"

	"mykil/internal/simnet"
	"mykil/internal/wire"
)

// Sim is a Transport over a simnet endpoint.
type Sim struct {
	ep     *simnet.Endpoint
	net    *simnet.Network
	frames chan *wire.Frame
	taken  atomic.Int64 // envelopes taken from the mailbox, not yet handed to the node
	wg     sync.WaitGroup
}

var _ Transport = (*Sim)(nil)

// simReg tracks the live Sim transports attached to each network, so a
// virtual-time driver can ask whether any frame has been delivered but
// not yet consumed by its node (PendingFrames). Without that signal a
// clock pump sees an idle network while messages sit in transport
// buffers and sweeps virtual time across real processing stalls.
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

// PendingFrames reports how many messages across all live transports on n
// have left their endpoint's mailbox but not yet been received by their
// node: taken and still being decoded or handed over, or decoded and
// waiting in the frame channel. Zero, together with
// n.QueuedInboxes() == 0, means every delivered message has at least
// reached its consumer.
func PendingFrames(n *simnet.Network) int {
	simRegMu.Lock()
	defer simRegMu.Unlock()
	total := 0
	for s := range simReg[n] {
		total += len(s.frames) + int(s.taken.Load())
	}
	return total
}

// pump drains the endpoint's mailbox and decodes each envelope into a
// frame for the node. A frame that fails to decode is dropped, as a real
// stack drops a corrupt datagram, and counted by the network. A decoded
// frame borrows the envelope's payload, which the other receivers of the
// same multicast borrow too.
func (s *Sim) pump() {
	var batch []simnet.Envelope
	for {
		select {
		case <-s.ep.Ready():
		case <-s.ep.Done():
			return
		}
		// Read busy while taking: the mailbox count drops inside Take,
		// before len(batch) is known.
		s.taken.Store(1)
		batch = s.ep.Take(batch[:0])
		s.taken.Store(int64(len(batch)))
		for i := range batch {
			f, err := wire.DecodeFrame(batch[i].Payload)
			if err != nil {
				s.ep.CountUndecodable()
			} else {
				select {
				case s.frames <- f:
				case <-s.ep.Done():
					return
				}
			}
			s.taken.Add(-1)
		}
		clear(batch)
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
