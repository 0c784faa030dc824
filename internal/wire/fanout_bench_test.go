package wire_test

import (
	"fmt"
	"runtime"
	"testing"

	"mykil/internal/simnet"
	"mykil/internal/transport"
	"mykil/internal/wire"
)

// BenchmarkMulticastFanout measures an area multicast end to end through
// the in-process stack: one signed frame handed to transport.Sim once per
// receiver, queued by simnet, decoded by each receiver's pump and taken
// off its Recv channel. B/receiver is every byte the process allocated
// per delivered frame — with the encoding shared it stays a small
// constant (the decoded Frame and queue bookkeeping) instead of growing
// with the frame size.
func BenchmarkMulticastFanout(b *testing.B) {
	for _, size := range []int{256, 10 << 10, 64 << 10} {
		for _, receivers := range []int{16, 256} {
			b.Run(fmt.Sprintf("frame=%dB/receivers=%d", size, receivers), func(b *testing.B) {
				n := simnet.New(simnet.Config{Shards: 1})
				defer n.Close()
				src, err := transport.NewSim(n, "ac")
				if err != nil {
					b.Fatal(err)
				}
				defer func() { _ = src.Close() }()
				dsts := make([]*transport.Sim, receivers)
				for i := range dsts {
					if dsts[i], err = transport.NewSim(n, fmt.Sprintf("m%03d", i)); err != nil {
						b.Fatal(err)
					}
					defer func(s *transport.Sim) { _ = s.Close() }(dsts[i])
				}
				body, sig := make([]byte, size), make([]byte, 256)
				b.ReportAllocs()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f := &wire.Frame{Kind: wire.KindKeyUpdate, From: "ac", Body: body, Sig: sig}
					for _, d := range dsts {
						if err := src.Send(d.Addr(), f); err != nil {
							b.Fatal(err)
						}
					}
					for _, d := range dsts {
						if got := <-d.Recv(); len(got.Body) != size {
							b.Fatalf("received a %d B body, want %d", len(got.Body), size)
						}
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*receivers), "B/receiver")
			})
		}
	}
}
