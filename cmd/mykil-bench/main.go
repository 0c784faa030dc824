// Command mykil-bench regenerates every table and figure of the paper's
// evaluation (§V) at paper scale and prints the results, together with a
// verdict on whether each result's qualitative shape matches the paper.
//
// Usage:
//
//	mykil-bench                  # run everything
//	mykil-bench -exp fig8        # one experiment
//	mykil-bench -n 10000         # smaller group
//	mykil-bench -exp joinlat -rsabits 2048 -latency 2ms -iters 5
//
// Experiments: storage cpu fig8 fig9 fig10 joinlat protocost rc4 batching
// arity prune flush model fanout journal groupcommit election megasim all
// (megasim only runs when named). An unknown name exits 2 with the list.
// Add -csv for machine-readable output.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"mykil/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp     = flag.String("exp", "all", "experiment to run: storage|cpu|fig8|fig9|fig10|joinlat|protocost|rc4|batching|arity|prune|flush|model|fanout|journal|groupcommit|election|megasim|all (megasim only runs when named)")
		n       = flag.Int("n", bench.PaperGroupSize, "group size")
		arity   = flag.Int("arity", bench.PaperArity, "auxiliary-key-tree arity (paper's byte arithmetic: 2)")
		rsaBits = flag.Int("rsabits", 2048, "RSA modulus bits for the latency experiment")
		latency = flag.Duration("latency", 2*time.Millisecond, "injected one-way link latency for the latency experiment")
		iters   = flag.Int("iters", 5, "iterations for the latency experiment")
		rc4MB   = flag.Int("rc4mb", 16, "buffer size (MB) for the RC4 experiment")
		csv     = flag.Bool("csv", false, "emit tables as CSV instead of aligned text")

		// Mega-sim (-exp megasim only; excluded from "all").
		msAreas  = flag.Int("msareas", 0, "megasim: area count (0 = n/5000)")
		msShards = flag.Int("msshards", 0, "megasim: simnet delivery lanes (0 = auto)")
		msBits   = flag.Int("msbits", 512, "megasim: shared-keypool RSA bits")
		msPool   = flag.Int("mspool", 32, "megasim: distinct shared key pairs")
		msDet    = flag.Bool("msdet", false, "megasim: deterministic single-lane virtual scheduler")
		msJoin   = flag.Int("msjoiners", 0, "megasim: concurrent joining workers (0 = n/200, clamped)")
		msSeed   = flag.Int64("msseed", 1, "megasim: key pool / jitter RNG seed")
		msQuiet  = flag.Bool("msquiet", false, "megasim: suppress progress lines")
	)
	flag.Parse()

	printTable := func(t *bench.Table) {
		if *csv {
			fmt.Printf("# %s\n%s", t.Title, t.CSV())
			return
		}
		fmt.Print(t)
	}

	ok := true
	known := []string{"all", "megasim"}
	runExp := func(name string, fn func() error) {
		known = append(known, name)
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", name, err)
			ok = false
		}
	}

	verdict := func(holds bool, what string) {
		status := "HOLDS"
		if !holds {
			status = "DEVIATES"
			ok = false
		}
		fmt.Printf("  shape vs paper: %s (%s)\n\n", status, what)
	}

	runExp("storage", func() error {
		r, err := bench.Storage(*n, *n/bench.PaperAreaSize, *arity)
		if err != nil {
			return err
		}
		for _, t := range r.Tables() {
			printTable(t)
		}
		verdict(r.OrderingHolds(), "member: Iolus < Mykil < LKH; controller: LKH largest")
		return nil
	})

	runExp("cpu", func() error {
		r, err := bench.CPULeave(*n, bench.PaperAreaSize, *arity)
		if err != nil {
			return err
		}
		printTable(r.Table())
		verdict(r.GeometricShapeHolds(), "≈50%/25%/12.5%... geometric update distribution")
		return nil
	})

	fig8rows := func() ([]bench.LeaveBandwidthRow, error) {
		return bench.LeaveBandwidth(*n, bench.PaperAreaCounts, *arity)
	}
	runExp("fig8", func() error {
		rows, err := fig8rows()
		if err != nil {
			return err
		}
		printTable(bench.Fig8Table(rows))
		verdict(bench.Fig8ShapeHolds(rows), "Iolus linear in area size; Mykil ≤ LKH, decreasing")
		return nil
	})
	runExp("fig9", func() error {
		rows, err := fig8rows()
		if err != nil {
			return err
		}
		printTable(bench.Fig9Table(rows))
		verdict(bench.Fig8ShapeHolds(rows), "Mykil under flat LKH curve")
		return nil
	})

	runExp("fig10", func() error {
		rows, err := bench.LeaveAggregation(*n, bench.PaperAreaCounts, 10, *arity)
		if err != nil {
			return err
		}
		printTable(bench.Fig10Table(rows, 10))
		verdict(bench.Fig10ShapeHolds(rows), "best ≤ worst < unaggregated LKH")
		return nil
	})

	runExp("joinlat", func() error {
		r, err := bench.JoinRejoinLatency(bench.LatencyConfig{
			RSABits:     *rsaBits,
			LinkLatency: *latency,
			Iterations:  *iters,
		})
		if err != nil {
			return err
		}
		printTable(r.Table())
		verdict(r.ShapeHolds(), "rejoin ≤ join; no-verify rejoin fastest")
		return nil
	})

	runExp("rc4", func() error {
		r := bench.RC4Throughput(*rc4MB)
		printTable(r.Table())
		verdict(r.Feasible(), "throughput ≫ multimedia bit-rate")
		return nil
	})

	runExp("batching", func() error {
		rows, err := bench.BatchingSavings(bench.PaperAreaSize, 2000, []int{2, 3, 4}, *arity, 1)
		if err != nil {
			return err
		}
		printTable(bench.BatchingTable(rows))
		verdict(bench.BatchingClaimHolds(rows), "40-60% multicast savings reachable")
		return nil
	})

	runExp("arity", func() error {
		rows, err := bench.AblationArity(bench.PaperAreaSize, []int{2, 4, 8, 16})
		if err != nil {
			return err
		}
		printTable(bench.ArityTable(rows, bench.PaperAreaSize))
		fmt.Println()
		return nil
	})

	runExp("protocost", func() error {
		rows, err := bench.ProtocolCosts(*rsaBits)
		if err != nil {
			return err
		}
		printTable(bench.ProtocolCostTable(rows, *rsaBits))
		verdict(bench.RejoinShedsRSLoad(rows), "rejoin bypasses the registration server")
		return nil
	})

	runExp("flush", func() error {
		rows, err := bench.FlushPolicies(bench.PaperAreaSize, 2000, 10, 0.8, 0.3, *arity, 5)
		if err != nil {
			return err
		}
		printTable(bench.FlushPolicyTable(rows))
		verdict(bench.HybridDominates(rows), "hybrid trigger bounds staleness at bounded traffic")
		return nil
	})

	runExp("model", func() error {
		rows, err := bench.ModelCheck(*n, *n/bench.PaperAreaSize, *arity)
		if err != nil {
			return err
		}
		printTable(bench.ModelTable(rows, *n, *n/bench.PaperAreaSize, *arity))
		verdict(bench.ModelMatches(rows), "closed-form §V arithmetic = measured structures")
		return nil
	})

	runExp("fanout", func() error {
		r, err := bench.CryptoFanout(0, 0, 0, 0, nil)
		if err != nil {
			return err
		}
		printTable(r.Table())
		fmt.Println()
		return nil
	})

	runExp("journal", func() error {
		rows, err := bench.JournalThroughput(0, 0)
		if err != nil {
			return err
		}
		printTable(bench.JournalThroughputTable(rows, 0))
		verdict(bench.FsyncOrderingHolds(rows), "relaxing fsync never slows appends")
		r, err := bench.RecoveryVsRejoin(0, *rsaBits)
		if err != nil {
			return err
		}
		printTable(r.Table())
		verdict(r.RecoveryBeatsRejoin(), "journal restart cheaper than whole-area rejoin")
		return nil
	})

	runExp("groupcommit", func() error {
		srows, err := bench.SuiteRekey(0, 0, 0)
		if err != nil {
			return err
		}
		printTable(bench.SuiteRekeyTable(srows))
		verdict(bench.SuiteRekeyPoolingHolds(srows), "pooled rekey construction leaner than allocating, for every suite")
		grows, err := bench.GroupCommitThroughput(0, 0)
		if err != nil {
			return err
		}
		printTable(bench.GroupCommitTable(grows, 0))
		verdict(bench.GroupCommitSpeedupHolds(grows, 10), "group commit ≥10x the fsync=always single-writer baseline at equal durability")
		return nil
	})

	runExp("election", func() error {
		r, err := bench.ElectionFailover(bench.ElectionConfig{})
		if err != nil {
			return err
		}
		printTable(r.Table())
		verdict(r.GuaranteesHold(), "replicas caught up before every kill; one winner at the primary's epoch and member set; zero rejoins")
		return nil
	})

	runExp("prune", func() error {
		r, err := bench.AblationPrune(bench.PaperAreaSize, 1000, *arity)
		if err != nil {
			return err
		}
		printTable(r.Table())
		verdict(r.NoPruneCheaperJoins(), "no-prune joins avoid splits")
		return nil
	})

	// The mega-sim runs only when asked for by name: at its default
	// 100k-member scale it is a minutes-long measurement run, not part
	// of the "all" regression sweep.
	if *exp == "megasim" {
		logf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "megasim: "+format+"\n", args...)
		}
		if *msQuiet {
			logf = nil
		}
		r, err := bench.MegaSim(bench.MegaSimConfig{
			Members:       *n,
			Areas:         *msAreas,
			Shards:        *msShards,
			RSABits:       *msBits,
			PoolSize:      *msPool,
			Arity:         4,
			Joiners:       *msJoin,
			Deterministic: *msDet,
			Seed:          *msSeed,
			Logf:          logf,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment megasim failed: %v\n", err)
			ok = false
		} else {
			for _, t := range r.Tables() {
				printTable(t)
			}
			verdict(r.ShapeHolds(), "measured structures, alive load, and fan-out match the §V model")
		}
	}

	if !slices.Contains(known, *exp) {
		slices.Sort(known)
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid names: %s\n", *exp, strings.Join(known, " "))
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}
