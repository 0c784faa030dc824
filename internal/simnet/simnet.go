// Package simnet is an in-memory message network used to run the full
// Mykil protocol stack — registration server, area controllers, members —
// inside one process. It models exactly the failure phenomena the paper's
// fault-tolerance machinery must survive:
//
//   - network partitions (§IV): disjoint node groups that cannot exchange
//     messages until healed;
//   - node crashes (§IV-C crash failure model): a crashed node neither
//     sends nor receives;
//   - message loss and per-link latency, for the join/rejoin latency
//     experiment (§V-D).
//
// Delivery is FIFO per (sender, receiver) link. All byte and message
// counts are recorded in a typed obs.Registry so experiments can report
// bandwidth.
//
// # Delivery engine
//
// Messages are delivered by a fixed pool of worker lanes (shards), not by
// per-link goroutines: every (from, to) link hashes to exactly one lane,
// and each lane drains its own priority queue in (delivery time, send
// sequence) order. A link's messages therefore always serialize through
// one lane, and because a link's delivery times are clamped to be
// non-decreasing (jitter never reorders a link, matching real FIFO
// transports), per-link FIFO holds by construction. The lane count is
// Config.Shards; per-lane queue depth gauges and per-lane drop counters
// are published through the stats registry.
//
// With Config.Virtual the engine collapses to a single lane, which makes
// the global delivery order deterministic: strictly ascending (timestamp,
// send sequence). Combined with a clock.Fake this is the mega-sim mode —
// the whole network advances under Fake.Advance with no wall-clock waits.
package simnet

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"mykil/internal/clock"
	"mykil/internal/obs"
)

// Counter names recorded in the network's stats registry. The per-shard
// variants append ".shard<NN>" to the base name (e.g.
// "sim.dropped.overflow.shard03"); shard queue depths are gauges named
// "sim.shard<NN>.depth".
const (
	StatSentMsgs         = "sim.sent.msgs"
	StatSentBytes        = "sim.sent.bytes"
	StatDeliveredMsgs    = "sim.delivered.msgs"
	StatDroppedPartition = "sim.dropped.partition"
	StatDroppedCrashed   = "sim.dropped.crashed"
	StatDroppedRate      = "sim.dropped.rate"
	StatDroppedOverflow  = "sim.dropped.overflow"
	StatDroppedClosed    = "sim.dropped.closed"
)

// inboxCapacity is the default bound on each endpoint's mailbox. Rekey
// bursts in the largest experiments stay well under this; mega-sim runs
// shrink it via Config.InboxCapacity to keep 100k mailboxes affordable.
const inboxCapacity = 8192

// maxDefaultShards caps the default lane count so small test networks do
// not burn goroutines on parallelism they cannot use.
const maxDefaultShards = 8

// Errors returned by this package.
var (
	ErrNodeExists   = errors.New("simnet: node already registered")
	ErrNodeUnknown  = errors.New("simnet: node not registered")
	ErrNodeCrashed  = errors.New("simnet: node is crashed")
	ErrNetClosed    = errors.New("simnet: network closed")
	ErrSelfDelivery = errors.New("simnet: message addressed to sender")
)

// Envelope is one delivered message. Payload is the slice the sender
// passed to Send, which other receivers of the same multicast may hold
// too: read it, copy what must outlive the handler, never write to it.
type Envelope struct {
	From    string
	To      string
	Payload []byte
}

// Config controls latency, loss, and the delivery engine. The zero value
// means instant, lossless delivery over min(GOMAXPROCS, 8) lanes.
type Config struct {
	// DefaultLatency applies to every link without an override.
	DefaultLatency time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter).
	Jitter time.Duration
	// DropRate drops each message independently with this probability.
	DropRate float64
	// Seed seeds the drop/jitter RNG; zero selects a fixed default so
	// runs are reproducible unless the caller opts out.
	Seed int64
	// Clock schedules deliveries; nil means the wall clock. Latency
	// experiments inject a fake clock to compress simulated time.
	Clock clock.Clock
	// Shards is the number of delivery lanes. Zero picks
	// min(GOMAXPROCS, 8). Each (from, to) link is pinned to one lane, so
	// per-link FIFO is independent of the lane count.
	Shards int
	// InboxCapacity bounds each endpoint's mailbox; zero means the
	// 8192-slot default. Mega-sims with 100k endpoints set this to a few
	// dozen to keep idle mailbox memory linear-small.
	InboxCapacity int
	// InboxCapacityFor, if set, overrides InboxCapacity per endpoint
	// (return <= 0 to fall back). Mega-sims use it to give the few
	// controller/server endpoints deep mailboxes while the 10^5 member
	// mailboxes stay shallow.
	InboxCapacityFor func(addr string) int
	// Virtual selects the deterministic virtual-time scheduler: a single
	// delivery lane draining strictly in (timestamp, send order). Use
	// with a clock.Fake to run whole scenarios under Advance with zero
	// wall-clock waiting. Overrides Shards.
	Virtual bool
}

// Network is the hub all endpoints attach to.
type Network struct {
	mu        sync.Mutex
	cfg       Config
	rng       *rand.Rand
	seq       uint64 // total order over accepted sends
	nodes     map[string]*Endpoint
	crashed   map[string]bool
	partition map[string]int // node -> group id; absent means group 0
	partEpoch int            // bumped on every partition change
	latency   map[linkKey]time.Duration
	closed    bool
	stopped   chan struct{}
	wg        sync.WaitGroup
	clk       clock.Clock
	hashSeed  maphash.Seed

	shards []*shard

	reg *obs.Registry

	// Typed counter handles, registered at construction.
	cSentMsgs      *obs.Counter
	cSentBytes     *obs.Counter
	cDeliveredMsgs *obs.Counter
	cDropPartition *obs.Counter
	cDropCrashed   *obs.Counter
	cDropRate      *obs.Counter
	cDropOverflow  *obs.Counter
	cDropClosed    *obs.Counter
}

type linkKey struct{ from, to string }

// New creates a network with the given config.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
		if shards > maxDefaultShards {
			shards = maxDefaultShards
		}
	}
	if cfg.Virtual {
		shards = 1
	}
	n := &Network{
		cfg:       cfg,
		clk:       clk,
		rng:       rand.New(rand.NewSource(seed)),
		nodes:     make(map[string]*Endpoint),
		crashed:   make(map[string]bool),
		partition: make(map[string]int),
		latency:   make(map[linkKey]time.Duration),
		stopped:   make(chan struct{}),
		hashSeed:  maphash.MakeSeed(),
		reg:       obs.NewRegistry(),
	}
	n.cSentMsgs = n.reg.Counter(StatSentMsgs, "Messages submitted to the network.")
	n.cSentBytes = n.reg.Counter(StatSentBytes, "Payload bytes submitted to the network.")
	n.cDeliveredMsgs = n.reg.Counter(StatDeliveredMsgs, "Messages delivered to an inbox.")
	n.cDropPartition = n.reg.Counter(StatDroppedPartition, "Messages dropped crossing a partition boundary.")
	n.cDropCrashed = n.reg.Counter(StatDroppedCrashed, "Messages dropped because the destination had crashed.")
	n.cDropRate = n.reg.Counter(StatDroppedRate, "Messages dropped by random loss injection.")
	n.cDropOverflow = n.reg.Counter(StatDroppedOverflow, "Messages dropped because the destination inbox was full.")
	n.cDropClosed = n.reg.Counter(StatDroppedClosed, "Messages dropped because the endpoint or network had closed.")

	n.shards = make([]*shard, shards)
	for i := range n.shards {
		s := &shard{
			id:      i,
			net:     n,
			lastDue: make(map[linkKey]time.Time),
			wake:    make(chan struct{}, 1),
		}
		s.depth = n.reg.Gauge(fmt.Sprintf("sim.shard%02d.depth", i),
			fmt.Sprintf("Messages queued on delivery lane %d.", i))
		s.cDropPartition = n.reg.Counter(fmt.Sprintf("%s.shard%02d", StatDroppedPartition, i),
			fmt.Sprintf("Partition drops on links pinned to lane %d.", i))
		s.cDropCrashed = n.reg.Counter(fmt.Sprintf("%s.shard%02d", StatDroppedCrashed, i),
			fmt.Sprintf("Crash drops on links pinned to lane %d.", i))
		s.cDropRate = n.reg.Counter(fmt.Sprintf("%s.shard%02d", StatDroppedRate, i),
			fmt.Sprintf("Loss-injection drops on links pinned to lane %d.", i))
		s.cDropOverflow = n.reg.Counter(fmt.Sprintf("%s.shard%02d", StatDroppedOverflow, i),
			fmt.Sprintf("Inbox-overflow drops on links pinned to lane %d.", i))
		s.cDropClosed = n.reg.Counter(fmt.Sprintf("%s.shard%02d", StatDroppedClosed, i),
			fmt.Sprintf("Closed-endpoint drops on links pinned to lane %d.", i))
		n.shards[i] = s
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			s.run()
		}()
	}
	return n
}

// Stats returns the network's counter registry.
func (n *Network) Stats() *obs.Registry { return n.reg }

// NumShards returns the number of delivery lanes.
func (n *Network) NumShards() int { return len(n.shards) }

// shardFor pins a link to a lane.
func (n *Network) shardFor(k linkKey) *shard {
	if len(n.shards) == 1 {
		return n.shards[0]
	}
	var h maphash.Hash
	h.SetSeed(n.hashSeed)
	h.WriteString(k.from)
	h.WriteByte(0)
	h.WriteString(k.to)
	return n.shards[h.Sum64()%uint64(len(n.shards))]
}

// Endpoint registers a new node and returns its endpoint.
func (n *Network) Endpoint(addr string) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrNetClosed
	}
	if _, ok := n.nodes[addr]; ok {
		return nil, fmt.Errorf("%w: %q", ErrNodeExists, addr)
	}
	capacity := 0
	if n.cfg.InboxCapacityFor != nil {
		capacity = n.cfg.InboxCapacityFor(addr)
	}
	if capacity <= 0 {
		capacity = n.cfg.InboxCapacity
	}
	if capacity <= 0 {
		capacity = inboxCapacity
	}
	ep := &Endpoint{
		addr:  addr,
		net:   n,
		inbox: make(chan Envelope, capacity),
		done:  make(chan struct{}),
	}
	n.nodes[addr] = ep
	return ep, nil
}

// MustEndpoint is Endpoint but panics on error; for tests and examples.
func (n *Network) MustEndpoint(addr string) *Endpoint {
	ep, err := n.Endpoint(addr)
	if err != nil {
		panic(err)
	}
	return ep
}

// SetLinkLatency overrides the latency for messages from one node to
// another (one direction).
func (n *Network) SetLinkLatency(from, to string, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency[linkKey{from, to}] = d
}

// SetDefaultLatency changes the latency applied to links without an
// override.
func (n *Network) SetDefaultLatency(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.DefaultLatency = d
}

// SetDropRate changes the independent per-message drop probability.
func (n *Network) SetDropRate(rate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.DropRate = rate
}

// SetPartitions divides the network. Nodes in the same group communicate;
// nodes in different groups do not. Nodes not named in any group form one
// implicit extra group together. Calling with no arguments heals the
// network.
func (n *Network) SetPartitions(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[string]int)
	n.partEpoch++
	for i, group := range groups {
		for _, node := range group {
			n.partition[node] = i + 1 // 0 is the implicit group
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() { n.SetPartitions() }

// Partitioned reports whether two nodes are currently separated.
func (n *Network) Partitioned(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partition[a] != n.partition[b]
}

// Crash marks a node as crashed: its sends fail and deliveries to it are
// dropped. Pending queued messages to it are discarded on delivery.
func (n *Network) Crash(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[addr] = true
}

// Restart clears a node's crashed state. Messages dropped while crashed
// are not replayed, matching a real reboot.
func (n *Network) Restart(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, addr)
}

// Crashed reports whether the node is currently crashed.
func (n *Network) Crashed(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[addr]
}

// Pending reports how many accepted messages are still queued on delivery
// lanes. Mega-sim drivers combine this with NextDue to decide how far to
// advance a fake clock.
func (n *Network) Pending() int {
	total := 0
	for _, s := range n.shards {
		s.mu.Lock()
		total += s.pq.Len()
		s.mu.Unlock()
	}
	return total
}

// QueuedInboxes reports how many delivered envelopes are sitting in
// endpoint mailboxes, not yet consumed by their transports. Mega-sim
// drivers treat zero here (together with Pending() == 0) as the network
// half of a quiescence check before advancing virtual time.
func (n *Network) QueuedInboxes() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, ep := range n.nodes {
		total += len(ep.inbox)
	}
	return total
}

// NextDue returns the earliest delivery deadline across all lanes, or
// ok=false when nothing is queued.
func (n *Network) NextDue() (t time.Time, ok bool) {
	for _, s := range n.shards {
		s.mu.Lock()
		if s.pq.Len() > 0 {
			due := s.pq[0].due
			if !ok || due.Before(t) {
				t, ok = due, true
			}
		}
		s.mu.Unlock()
	}
	return t, ok
}

// Close shuts the network down and waits for the delivery lanes to exit.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*Endpoint, 0, len(n.nodes))
	for _, ep := range n.nodes {
		eps = append(eps, ep)
	}
	n.mu.Unlock()

	close(n.stopped)
	for _, ep := range eps {
		ep.closeOnce.Do(func() { close(ep.done) })
	}
	n.wg.Wait()
}

// send validates, accounts, and schedules one message. Called by Endpoint.
func (n *Network) send(from, to string, payload []byte) error {
	key := linkKey{from, to}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrNetClosed
	}
	if from == to {
		n.mu.Unlock()
		return ErrSelfDelivery
	}
	if _, ok := n.nodes[to]; !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNodeUnknown, to)
	}
	if n.crashed[from] {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNodeCrashed, from)
	}

	n.cSentMsgs.Inc()
	n.cSentBytes.Add(int64(len(payload)))
	sh := n.shardFor(key)

	// Loss and partition checks happen at send time; a partition that
	// forms after a message is in flight does not retroactively drop it.
	if n.partition[from] != n.partition[to] {
		n.mu.Unlock()
		n.cDropPartition.Inc()
		sh.cDropPartition.Inc()
		return nil // silent loss: senders learn via timeouts, like UDP/IP multicast
	}
	if n.cfg.DropRate > 0 && n.rng.Float64() < n.cfg.DropRate {
		n.mu.Unlock()
		n.cDropRate.Inc()
		sh.cDropRate.Inc()
		return nil
	}

	delay := n.cfg.DefaultLatency
	if d, ok := n.latency[key]; ok {
		delay = d
	}
	if n.cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	seq := n.seq
	n.seq++
	n.mu.Unlock()

	sh.enqueue(queuedMsg{
		env: Envelope{From: from, To: to, Payload: payload},
		due: n.clk.Now().Add(delay),
		seq: seq,
	}, key)
	return nil
}

// deliver hands a message to its destination endpoint, applying crash and
// close checks at delivery time.
func (n *Network) deliver(env Envelope, sh *shard) {
	n.mu.Lock()
	ep, ok := n.nodes[env.To]
	crashed := n.crashed[env.To]
	n.mu.Unlock()
	if !ok || crashed {
		n.cDropCrashed.Inc()
		sh.cDropCrashed.Inc()
		return
	}
	select {
	case <-ep.done:
		n.cDropClosed.Inc()
		sh.cDropClosed.Inc()
		return
	default:
	}
	select {
	case ep.inbox <- env:
		n.cDeliveredMsgs.Inc()
	case <-ep.done:
		n.cDropClosed.Inc()
		sh.cDropClosed.Inc()
	default:
		n.cDropOverflow.Inc()
		sh.cDropOverflow.Inc()
	}
}

type queuedMsg struct {
	env Envelope
	due time.Time
	seq uint64
}

// shard is one delivery lane: a priority queue of scheduled messages
// drained by a single goroutine in (due, seq) order.
type shard struct {
	id  int
	net *Network

	mu      sync.Mutex
	pq      msgHeap
	lastDue map[linkKey]time.Time // per-link monotonic clamp

	wake chan struct{}

	depth          *obs.Gauge
	cDropPartition *obs.Counter
	cDropCrashed   *obs.Counter
	cDropRate      *obs.Counter
	cDropOverflow  *obs.Counter
	cDropClosed    *obs.Counter
}

// enqueue schedules a message on this lane. Delivery times are clamped to
// be non-decreasing per link: jitter may stretch a link's spacing but
// never reorders it, which is what keeps per-link FIFO true under the
// (due, seq) drain order.
func (s *shard) enqueue(m queuedMsg, key linkKey) {
	s.mu.Lock()
	if last, ok := s.lastDue[key]; ok && m.due.Before(last) {
		m.due = last
	}
	s.lastDue[key] = m.due
	s.pq.push(m)
	s.depth.Set(int64(s.pq.Len()))
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// run drains the lane: pop the earliest-due message, waiting on the
// injected clock until its deadline. A wake signal re-evaluates the head
// (a newly enqueued message may be due earlier than the current wait).
func (s *shard) run() {
	for {
		s.mu.Lock()
		var due time.Time
		have := s.pq.Len() > 0
		if have {
			due = s.pq[0].due
		}
		s.mu.Unlock()

		if !have {
			select {
			case <-s.wake:
				continue
			case <-s.net.stopped:
				return
			}
		}

		if wait := due.Sub(s.net.clk.Now()); wait > 0 {
			timer := s.net.clk.After(wait)
			if !s.net.clk.Now().Before(due) {
				// The clock reached due while the timer was being armed, so it
				// fires late: a driver advancing only to NextDue never gets there.
				continue
			}
			select {
			case <-timer:
			case <-s.wake:
			case <-s.net.stopped:
				return
			}
			continue // re-evaluate the head either way
		}

		s.mu.Lock()
		if s.pq.Len() == 0 {
			s.mu.Unlock()
			continue
		}
		m := s.pq.pop()
		s.depth.Set(int64(s.pq.Len()))
		s.mu.Unlock()
		s.net.deliver(m.env, s)
	}
}

// msgHeap is a binary min-heap of queuedMsg by (due, seq). Hand-rolled
// rather than container/heap to avoid the per-operation interface
// allocations on the mega-sim hot path.
type msgHeap []queuedMsg

func (h msgHeap) Len() int { return len(h) }

func (h msgHeap) less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}

func (h *msgHeap) push(m queuedMsg) {
	*h = append(*h, m)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *msgHeap) pop() queuedMsg {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	old[last] = queuedMsg{}
	*h = old[:last]
	i, n := 0, last
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h).less(l, smallest) {
			smallest = l
		}
		if r < n && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// Endpoint is one node's attachment to the network.
type Endpoint struct {
	addr      string
	net       *Network
	inbox     chan Envelope
	done      chan struct{}
	closeOnce sync.Once
}

// Addr returns the endpoint's network address.
func (e *Endpoint) Addr() string { return e.addr }

// Send transmits payload to another node. A nil error means the message
// was accepted, not that it will arrive: partitions and loss drop silently,
// as on a real best-effort network.
//
// Payload is owned by the network after Send and shared read-only with
// the receiver: it is queued and delivered as Envelope.Payload without a
// copy, so the caller must not write to or reuse the slice afterwards.
// Sending one slice to N nodes is how a multicast costs one buffer —
// every lane and inbox holds the same backing array.
func (e *Endpoint) Send(to string, payload []byte) error {
	select {
	case <-e.done:
		return ErrNetClosed
	default:
	}
	return e.net.send(e.addr, to, payload)
}

// Inbox returns the delivery channel. The channel is never closed; use
// Done to detect shutdown in selects.
func (e *Endpoint) Inbox() <-chan Envelope { return e.inbox }

// Done is closed when the endpoint (or the network) shuts down.
func (e *Endpoint) Done() <-chan struct{} { return e.done }

// Close detaches the endpoint; subsequent deliveries to it are dropped.
func (e *Endpoint) Close() {
	e.closeOnce.Do(func() { close(e.done) })
}
