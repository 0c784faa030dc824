package node

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mykil/internal/clock"
	"mykil/internal/simnet"
	"mykil/internal/transport"
	"mykil/internal/wire"
)

// chanTransport is a minimal in-memory transport for exercising the loop.
type chanTransport struct {
	recv     chan *wire.Frame
	done     chan struct{}
	doneOnce sync.Once
}

func newChanTransport() *chanTransport {
	return &chanTransport{
		recv: make(chan *wire.Frame, 16),
		done: make(chan struct{}),
	}
}

func (t *chanTransport) Addr() string                   { return "test" }
func (t *chanTransport) Send(string, *wire.Frame) error { return nil }
func (t *chanTransport) Recv() <-chan *wire.Frame       { return t.recv }
func (t *chanTransport) Done() <-chan struct{}          { return t.done }
func (t *chanTransport) Close() error {
	t.doneOnce.Do(func() { close(t.done) })
	return nil
}

func TestLoopDispatchesFramesAndCommands(t *testing.T) {
	tr := newChanTransport()
	var frames []wire.Kind
	l := New(Config{
		Name:      "t",
		Transport: tr,
		OnFrame:   func(f *wire.Frame) { frames = append(frames, f.Kind) },
	})
	l.Start()
	defer l.Close()

	tr.recv <- &wire.Frame{Kind: 1}
	tr.recv <- &wire.Frame{Kind: 2}

	var got []wire.Kind
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < 2 && time.Now().Before(deadline) {
		if err := l.Call(func() { got = append([]wire.Kind(nil), frames...) }); err != nil {
			t.Fatalf("Call: %v", err)
		}
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("frames = %v, want [1 2]", got)
	}
	if n := l.Stats().Value(StatFrames); n != 2 {
		t.Errorf("%s = %d, want 2", StatFrames, n)
	}
}

func TestLoopEnqueueAfterCloseCountsDrops(t *testing.T) {
	tr := newChanTransport()
	l := New(Config{Name: "t", Transport: tr, OnFrame: func(*wire.Frame) {}})
	l.Start()
	l.Close()

	if err := l.Enqueue(func() {}); !errors.Is(err, ErrStopped) {
		t.Fatalf("Enqueue after Close = %v, want ErrStopped", err)
	}
	if err := l.Call(func() {}); !errors.Is(err, ErrStopped) {
		t.Fatalf("Call after Close = %v, want ErrStopped", err)
	}
	if n := l.Stats().Value(StatDrops); n != 2 {
		t.Errorf("%s = %d, want 2", StatDrops, n)
	}
}

func TestLoopStopsOnTransportDone(t *testing.T) {
	tr := newChanTransport()
	exited := make(chan struct{})
	l := New(Config{
		Name:      "t",
		Transport: tr,
		OnFrame:   func(*wire.Frame) {},
		OnExit:    func() { close(exited) },
	})
	l.Start()
	tr.Close()

	select {
	case <-l.Stopped():
	case <-time.After(5 * time.Second):
		t.Fatal("loop did not stop after transport done")
	}
	select {
	case <-exited:
	default:
		t.Fatal("OnExit did not run")
	}
	// Enqueue must not hang even though Close was never called.
	if err := l.Enqueue(func() {}); !errors.Is(err, ErrStopped) {
		t.Fatalf("Enqueue after transport done = %v, want ErrStopped", err)
	}
	l.Close()
}

func TestLoopTicks(t *testing.T) {
	tr := newChanTransport()
	clk := clock.NewFake(time.Unix(0, 0))
	ticked := make(chan struct{}, 8)
	l := New(Config{
		Name:      "t",
		Transport: tr,
		Clock:     clk,
		TickEvery: time.Second,
		OnFrame:   func(*wire.Frame) {},
		OnTick:    func() { ticked <- struct{}{} },
	})
	l.Start()
	defer l.Close()

	// The loop registers its ticker asynchronously; wait for it.
	for i := 0; clk.PendingWaiters() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		select {
		case <-ticked:
		case <-time.After(5 * time.Second):
			t.Fatalf("tick %d never fired", i)
		}
	}
}

func TestLoopExitFromCallback(t *testing.T) {
	tr := newChanTransport()
	l := New(Config{Name: "t", Transport: tr, OnFrame: func(*wire.Frame) {}})
	l.Start()
	if err := l.Enqueue(func() { l.Exit() }); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	select {
	case <-l.Stopped():
	case <-time.After(5 * time.Second):
		t.Fatal("loop did not stop after Exit")
	}
	l.Close()
}

// TestUndecodableFrameCountedNotDispatched: a corrupt payload delivered to
// a Sim transport is counted by the network as undecodable and never
// reaches OnFrame, while the valid frame behind it on the same link does.
func TestUndecodableFrameCountedNotDispatched(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()
	tr, err := transport.NewSim(n, "node")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	got := make(chan wire.Kind, 2)
	l := New(Config{Name: "node", Transport: tr, OnFrame: func(f *wire.Frame) { got <- f.Kind }})
	l.Start()
	defer l.Close()

	raw := n.MustEndpoint("raw")
	valid, err := (&wire.Frame{Kind: wire.KindACAlive, From: "raw"}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{{0}, valid} { // a zero kind, then a frame
		if err := raw.Send("node", payload); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	select {
	case k := <-got:
		if k != wire.KindACAlive {
			t.Fatalf("OnFrame got kind %v, want the valid ACAlive", k)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the valid frame never reached OnFrame")
	}
	// Per-link FIFO: the corrupt payload was handled before the valid one.
	if v := n.Stats().Value(simnet.StatDroppedUndecodable); v != 1 {
		t.Errorf("%s = %d, want 1", simnet.StatDroppedUndecodable, v)
	}
	if v := l.Stats().Value(StatFrames); v != 1 {
		t.Errorf("%s = %d, want 1 (the corrupt payload must not dispatch)", StatFrames, v)
	}
}

func TestPoolMapCoversAllIndices(t *testing.T) {
	for _, size := range []int{1, 2, 8} {
		p := NewPool(size)
		const n = 100
		var hits [n]atomic.Int64
		p.Map(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if v := hits[i].Load(); v != 1 {
				t.Errorf("size %d: index %d ran %d times, want 1", size, i, v)
			}
		}
		p.Close()
	}
}

func TestPoolMapUnderSaturation(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	// Park every worker so Map's helpers cannot be scheduled.
	block := make(chan struct{})
	var parked sync.WaitGroup
	for i := 0; i < 2; i++ {
		parked.Add(1)
		p.Submit(func() { parked.Done(); <-block })
	}
	parked.Wait()

	var sum atomic.Int64
	done := make(chan struct{})
	go func() {
		p.Map(10, func(i int) { sum.Add(int64(i)) })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Map deadlocked on a saturated pool")
	}
	close(block)
	if sum.Load() != 45 {
		t.Fatalf("sum = %d, want 45", sum.Load())
	}
}

func TestPipelinePreservesSubmissionOrder(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var got []int
	pipe := NewPipeline(p, 0, func(v int) { got = append(got, v) })
	const n = 50
	for i := 0; i < n; i++ {
		i := i
		pipe.Submit(func() int {
			// Earlier jobs sleep longer so out-of-order completion is the
			// norm, not the exception.
			time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
			return i
		})
	}
	pipe.Close()
	if len(got) != n {
		t.Fatalf("emitted %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("result %d = %d; order not preserved: %v", i, v, got)
		}
	}
}

func TestPipelineBarrierDrainsInFlightJobs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var emitted atomic.Int64
	pipe := NewPipeline(p, 0, func(int) { emitted.Add(1) })
	defer pipe.Close()
	for i := 0; i < 20; i++ {
		pipe.Submit(func() int {
			time.Sleep(time.Millisecond)
			return 0
		})
	}
	pipe.Barrier()
	if v := emitted.Load(); v != 20 {
		t.Fatalf("after Barrier: emitted = %d, want 20", v)
	}
}
