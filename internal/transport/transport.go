// Package transport abstracts message delivery for the protocol stack.
// The same area-controller, member, and registration-server code runs over
// the in-process simulated network (partitions, latency, crashes — see
// internal/simnet) or over real TCP, which is what the paper's prototype
// used between controllers.
package transport

import (
	"errors"

	"mykil/internal/wire"
)

// ErrClosed reports use of a closed transport.
var ErrClosed = errors.New("transport: closed")

// Transport sends and receives wire frames. Send is best-effort: a nil
// error means the frame was handed to the network, not that it arrived.
// Implementations must be safe for concurrent use.
type Transport interface {
	// Addr returns this endpoint's address, used by peers to reach it.
	Addr() string
	// Send transmits a frame to the given address. It is the only send
	// primitive: a multicast is Send called once per receiver with the
	// same *Frame, which is encoded on the first call and whose one
	// encoding every later call (and, in-process, every receiver)
	// shares. The frame is therefore immutable from its first Send.
	Send(to string, f *wire.Frame) error
	// Recv returns the channel of decoded incoming frames. The channel
	// is never closed; select on Done for shutdown. A received frame's
	// Body and Sig borrow the delivery buffer, which other receivers
	// may share: handlers read them and copy whatever outlives the
	// handler.
	Recv() <-chan *wire.Frame
	// Done is closed when the transport shuts down.
	Done() <-chan struct{}
	// Close releases resources. Safe to call more than once.
	Close() error
}
