// Command mykilnet runs a complete Mykil group over real TCP on
// localhost — the transport the paper's prototype used. It stands up the
// registration server, an area-controller tree, and a set of members,
// each on its own TCP listener, then exchanges multicast traffic and
// reports per-member delivery and the measured join latencies.
//
// Usage: mykilnet [-areas N] [-members N] [-messages N] [-rsabits N]
// [-churn N] [-replicas N] [-split-at N] [-merge-at N]
// [-suite legacy|aes-gcm|chacha20-poly1305] [-fsync always|interval|never]
// [-metrics-addr HOST:PORT] [-trace FILE] [-linger D]
// [-simnet [-shards N] [-latency D]]
//
// With -replicas each controller gets N election-capable replicas that
// follow its journal, so -replicas needs -journal-dir; with -split-at /
// -merge-at the area map resizes itself as membership grows and shrinks.
//
// With -simnet the group runs over the in-process simulated network
// (sharded delivery lanes) instead of TCP; the shutdown summary then
// includes per-lane queue depths and drop counters.
//
// With -metrics-addr the process serves a Prometheus text exposition on
// /metrics (every component's counters plus the member join/rejoin
// latency histograms) and the standard net/http/pprof profiles under
// /debug/pprof/. With -trace every protocol event (join steps 1-7,
// rejoin steps 1-6, rekeys, alive rounds, recovery) is appended to FILE
// as one JSON object per line.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"sync/atomic"
	"time"

	"mykil/internal/core"
	"mykil/internal/member"
	"mykil/internal/obs"
	"mykil/internal/simnet"
	"mykil/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mykilnet:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		areas       = flag.Int("areas", 2, "number of areas")
		nMember     = flag.Int("members", 4, "number of members")
		messages    = flag.Int("messages", 5, "multicast messages to send")
		rsaBits     = flag.Int("rsabits", 2048, "RSA key size (paper: 2048)")
		churn       = flag.Int("churn", 0, "leave/rejoin cycles each member performs after the multicast phase")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9190)")
		tracePath   = flag.String("trace", "", "append protocol trace events to this file as JSON lines")
		linger      = flag.Duration("linger", 0, "keep the group (and metrics endpoint) up this long after the run")
		jdir        = flag.String("journal-dir", "", "enable durable journaling under this directory; rerunning with the same directory restarts the group from its journals")
		fsync       = flag.String("fsync", "always", "journal sync policy: always, interval or never")
		suite       = flag.String("suite", "", "cipher suite for key-tree, data-key and payload sealing: legacy (default), aes-gcm, or chacha20-poly1305")
		segBytes    = flag.Int64("segment-bytes", 0, "journal segment rotation threshold (0 = default)")
		replicas    = flag.Int("replicas", 0, "replicas per controller running quorum leader election (0 = none; needs -journal-dir)")
		splitAt     = flag.Int("split-at", 0, "split an area once its live membership exceeds this watermark (0 = never)")
		mergeAt     = flag.Int("merge-at", 0, "merge a non-root area into its parent once membership sinks under this watermark (0 = never)")
		useSimnet   = flag.Bool("simnet", false, "run over the in-process simulated network instead of TCP")
		shards      = flag.Int("shards", 0, "simnet delivery lanes (with -simnet; 0 = one per core)")
		latency     = flag.Duration("latency", 2*time.Millisecond, "simnet one-way link latency (with -simnet)")
	)
	flag.Parse()

	opts := []core.Option{
		core.WithAreas(*areas),
		core.WithRSABits(*rsaBits),
		core.WithOpTimeout(time.Minute),
		core.WithJournal(*jdir, *fsync),
		core.WithSegmentBytes(*segBytes),
		core.WithReplicas(*replicas),
		core.WithAreaWatermarks(*splitAt, *mergeAt),
		core.WithCipherSuite(*suite),
	}
	if *useSimnet {
		opts = append(opts, core.WithNet(simnet.New(simnet.Config{
			DefaultLatency: *latency,
			Shards:         *shards,
		})))
	} else {
		opts = append(opts, core.WithTransportFactory(func(string) (transport.Transport, error) {
			return transport.NewTCP("127.0.0.1:0")
		}))
	}
	if *tracePath != "" {
		f, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open trace file: %w", err)
		}
		defer f.Close()
		sink := obs.NewJSONL(f)
		defer func() {
			if err := sink.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "mykilnet: trace:", err)
			}
		}()
		opts = append(opts, core.WithObserver(sink))
		fmt.Printf("tracing protocol events to %s (JSON lines)\n", *tracePath)
	}

	transportName := "TCP"
	if *useSimnet {
		transportName = "simnet"
	}
	fmt.Printf("starting Mykil over %s: %d areas, %d members, RSA-%d\n",
		transportName, *areas, *nMember, *rsaBits)
	g, err := core.New(opts...)
	if err != nil {
		return err
	}
	defer g.Close()

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_ = g.WriteMetrics(w)
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "mykilnet: metrics server:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics, profiles on /debug/pprof/\n", *metricsAddr)
	}

	if *jdir != "" {
		if recovered := g.RecoverySummary(); len(recovered) == 0 {
			fmt.Printf("journaling to %s (fsync=%s); no prior state on disk\n", *jdir, *fsync)
		} else {
			fmt.Printf("journaling to %s (fsync=%s); recovered state:\n", *jdir, *fsync)
			for _, line := range recovered {
				fmt.Printf("  %s\n", line)
			}
		}
	}
	for _, e := range g.Directory() {
		fmt.Printf("  controller %s listening on %s\n", e.ID, e.Addr)
	}
	if err := g.WarmMemberKeys(*nMember); err != nil {
		return err
	}

	var delivered atomic.Int64
	members := make([]*member.Member, 0, *nMember)
	for i := 0; i < *nMember; i++ {
		// IDs are per-process: on a journaled restart the recovered
		// controller still knows the previous run's members (and would
		// deny a duplicate join); those entries age out via the §IV-A
		// silence eviction.
		id := fmt.Sprintf("tcp-member-%d-%d", os.Getpid(), i)
		start := time.Now()
		m, err := g.AddMember(id, core.MemberConfig{
			OnData: func([]byte, string) { delivered.Add(1) },
		})
		if err != nil {
			return fmt.Errorf("join %s: %w", id, err)
		}
		fmt.Printf("  %s joined %s in %v (7-step protocol over TCP)\n",
			id, m.ControllerID(), time.Since(start).Round(time.Microsecond))
		members = append(members, m)
	}

	want := int64(*messages) * int64(*nMember-1)
	for i := 0; i < *messages; i++ {
		sender := members[i%len(members)]
		if err := sender.Send([]byte(fmt.Sprintf("tcp multicast %d", i))); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for delivered.Load() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("delivered %d of %d", delivered.Load(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("delivered %d encrypted multicasts across %d %s-connected areas\n",
		delivered.Load(), *areas, transportName)

	// Churn: every member leaves and ticket-rejoins (to another area
	// when one exists), exercising the 6-step rejoin and filling the
	// rejoin latency histogram.
	for c := 0; c < *churn; c++ {
		for i, m := range members {
			// A rejoin target must be a controller the member learned —
			// at registration or via a reassignment — and still alive:
			// under dynamic watermarks the group view gains siblings the
			// member never met and loses ones it still remembers.
			live := make(map[string]bool)
			for _, e := range g.Directory() {
				live[e.ID] = true
			}
			target := m.ControllerID()
			for _, e := range m.Directory() {
				if e.ID != target && live[e.ID] {
					target = e.ID
					break
				}
			}
			// Under dynamic topology a watermark split or merge can have
			// this member mid-auto-rejoin (AreaReassign); wait the
			// operation out rather than treating the collision as fatal.
			if err := retryBusy(func() error { return m.Leave() }); err != nil {
				return fmt.Errorf("churn leave #%d: %w", i, err)
			}
			if err := retryBusy(func() error { return m.Rejoin(target) }); err != nil {
				if m.Connected() {
					continue // a topology reassignment re-attached it first
				}
				return fmt.Errorf("churn rejoin #%d: %w", i, err)
			}
		}
		fmt.Printf("churn cycle %d/%d: %d members rejoined\n", c+1, *churn, len(members))
	}

	if *linger > 0 {
		fmt.Printf("lingering %v (metrics stay live)\n", *linger)
		time.Sleep(*linger)
	}

	// Shutdown summary: the member-side protocol latency histograms and
	// every component's drop counters.
	registered := make(map[string]bool)
	for _, n := range g.Metrics().Names() {
		registered[n] = true
	}
	for _, name := range []string{obs.MetricJoinSeconds, obs.MetricRejoinSeconds} {
		if !registered[name] { // no member ever constructed (-members 0)
			continue
		}
		h := g.Metrics().GetHistogram(name)
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("%s: n=%d mean=%.4fs p50=%.4fs p95=%.4fs p99=%.4fs\n",
			name, h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
	}
	fmt.Println("drop summary:")
	for _, line := range g.DropSummary() {
		fmt.Printf("  %s\n", line)
	}
	return nil
}

// retryBusy runs op, waiting out member.ErrBusy: a watermark split or
// merge may hold the member's operation slot with an automatic
// reassignment rejoin for a moment.
func retryBusy(op func() error) error {
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		if err = op(); !errors.Is(err, member.ErrBusy) {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
	return err
}
