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
// arity prune flush model fanout journal suites all. An unknown name
// exits 2 with the list. Add -csv for machine-readable output.
//
// Whole-deployment measurements (join storms at scale, controller
// failover) live in benchmark/: bash benchmark/run.sh --workload W.
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
		exp     = flag.String("exp", "all", "experiment to run: storage|cpu|fig8|fig9|fig10|joinlat|protocost|rc4|batching|arity|prune|flush|model|fanout|journal|suites|all")
		n       = flag.Int("n", bench.PaperGroupSize, "group size")
		arity   = flag.Int("arity", bench.PaperArity, "auxiliary-key-tree arity (paper's byte arithmetic: 2)")
		rsaBits = flag.Int("rsabits", 2048, "RSA modulus bits for the latency experiment")
		latency = flag.Duration("latency", 2*time.Millisecond, "injected one-way link latency for the latency experiment")
		iters   = flag.Int("iters", 5, "iterations for the latency experiment")
		rc4MB   = flag.Int("rc4mb", 16, "buffer size (MB) for the RC4 experiment")
		csv     = flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
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
	known := []string{"all"}
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

	runExp("suites", func() error {
		rows, err := bench.SuiteRekey(0, 0, 0)
		if err != nil {
			return err
		}
		printTable(bench.SuiteRekeyTable(rows))
		verdict(bench.SuiteRekeyPoolingHolds(rows), "pooled rekey construction leaner than allocating, for every suite")
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
