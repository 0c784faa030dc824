// Hand-held: the paper's §V-E feasibility scenario. A resource-limited
// "PDA" member joins an area running chacha20-poly1305 — today's software
// stream cipher, where the paper's prototype used RC4 — while a desktop
// member streams video-sized chunks; the example measures the end-to-end
// throughput and compares it against the paper's multimedia bit-rate
// requirement (one minute of high-resolution MPEG-4 in 10 MB).
//
// Run with: go run ./examples/handheld
package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"mykil/internal/bench"
	"mykil/internal/core"
)

const (
	suite     = "chacha20-poly1305"
	chunkSize = 256 << 10 // one "video chunk"
	chunks    = 40        // 10 MB total: one minute of the paper's MPEG-4
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "handheld:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("== hand-held device feasibility (paper §V-E) ==")
	g, err := core.New(core.WithAreas(1), core.WithRSABits(1024), core.WithCipherSuite(suite))
	if err != nil {
		return err
	}
	defer g.Close()

	var receivedBytes atomic.Int64
	var receivedChunks atomic.Int64
	pda, err := g.AddMember("pda", core.MemberConfig{
		OnData: func(payload []byte, _ string) {
			receivedBytes.Add(int64(len(payload)))
			receivedChunks.Add(1)
		},
	})
	if err != nil {
		return err
	}
	desktop, err := g.AddMember("desktop", core.MemberConfig{})
	if err != nil {
		return err
	}
	fmt.Printf("pda joined a %s area (%d keys, ~%d B of key storage — fits any device)\n",
		suite, pda.NumKeys(), pda.NumKeys()*16)
	fmt.Println("desktop streams one minute of video (10 MB)")

	chunk := make([]byte, chunkSize)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	start := time.Now()
	for i := 0; i < chunks; i++ {
		if err := desktop.Send(chunk); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for receivedChunks.Load() < chunks {
		if time.Now().After(deadline) {
			return fmt.Errorf("received %d of %d chunks", receivedChunks.Load(), chunks)
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	mb := float64(receivedBytes.Load()) / (1 << 20)
	fmt.Printf("  delivered %.1f MB end-to-end (encrypt + relay + decrypt) in %v — %.1f MB/s\n",
		mb, elapsed.Round(time.Millisecond), mb/elapsed.Seconds())
	fmt.Printf("  one minute of the paper's MPEG-4 stream processed in %.2fs of wall time\n",
		elapsed.Seconds())

	fmt.Println("\nraw RC4 throughput on this host (the paper's microbenchmark):")
	r := bench.RC4Throughput(16)
	fmt.Printf("  encrypt %.0f MB/s, decrypt %.0f MB/s — paper saw ~50 MB/s on a 600 MHz Celeron\n",
		r.EncryptMBs, r.DecryptMBs)
	if r.Feasible() && elapsed < time.Minute {
		fmt.Println("verdict: real-time multimedia over Mykil is comfortably feasible on small devices")
	} else {
		fmt.Println("verdict: NOT feasible on this host")
	}
	return nil
}
