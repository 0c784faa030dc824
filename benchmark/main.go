// Command benchmark is the Mykil benchmark BENCHMARK.json describes: five
// workloads driven through the program's public surfaces, seven end-to-end
// metrics measured with tracing off, and a traced pass plus layer walk for
// the per-layer metrics. See README.md.
//
//	bash benchmark/run.sh --workload mobility_churn --seed 7 --seconds 10 --trace 0
//	bash benchmark/run.sh -list
//
// The last line of standard output is the run's result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workloadFuncs maps the workload names of BENCHMARK.json to their code.
var workloadFuncs = map[string]func(runConfig) (*runResult, error){
	"join_storm":        runJoinStorm,
	"mobility_churn":    runMobilityChurn,
	"handshake_latency": runHandshakeLatency,
	"data_relay":        runDataRelay,
	"failover":          runFailover,
}

// Run shape. An untraced run builds its set-up several times and reports
// the median set-up time; a traced run makes two shorter passes, one
// without and one with the instruments, so their ratio is the tracing
// overhead.
const (
	refSeconds  = 10 // operation counts in the workloads are sized for this
	tracedScale = 0.35
)

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent
// (the benchmark's own directory is one level down) and returns it with
// the repository root.
func loadSpec() (*spec, string, error) {
	for _, root := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, root, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what each run leaves in benchmark/out.
type resultFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Traced     bool               `json:"traced"`
	GitRev     string             `json:"git_rev"`
	GoVersion  string             `json:"go_version"`
	NProc      int                `json:"nproc"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Violations []string           `json:"violations"`
	Aliases    map[string]float64 `json:"aliases,omitempty"`
	resultLine
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: all five)")
	seed := fs.Int64("seed", 1, "seed for the key pool, the network, mover/sender choice and payload bytes")
	seconds := fs.Int("seconds", 0, "target length of the measured phase; operation counts scale with it (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: traced pass and layer walk, per-layer metrics; -1: both")
	list := fs.Bool("list", false, "print the workloads and metrics of BENCHMARK.json and exit")
	only := fs.String("metric", "", "comma-separated metric names to print (the result line always carries all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, root, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *list {
		printSpec(sp)
		return 0
	}
	if *seconds == 0 {
		*seconds = sp.RunSeconds
	}
	if *seconds < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace one of -1, 0, 1")
		return 2
	}
	var names []string
	for _, w := range sp.Workloads {
		if workloadFuncs[w.Name] == nil {
			fmt.Fprintf(os.Stderr, "benchmark: BENCHMARK.json names workload %q, which this program does not have\n", w.Name)
			return 2
		}
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (try -list)\n", *workload)
		return 2
	}
	show := map[string]bool{}
	if *only != "" {
		known := map[string]bool{}
		for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
			known[m.Name] = true
		}
		for _, n := range strings.Split(*only, ",") {
			if !known[n] {
				fmt.Fprintf(os.Stderr, "benchmark: unknown metric %q (try -list)\n", n)
				return 2
			}
			show[n] = true
		}
	}

	// The reference host has two cores; pinning keeps a run comparable
	// on a bigger one. The host's own count is recorded beside it.
	runtime.GOMAXPROCS(2)
	out := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			if (*trace == 0 && traced) || (*trace == 1 && !traced) {
				continue
			}
			if err := runOne(sp, root, out, name, *seed, *seconds, traced, show); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				code = 1
			}
		}
	}
	return code
}

// runOne runs one workload in one mode, prints its metrics and result
// line, and writes its result file (and span file, when traced). It
// returns an error when the run failed or its outputs did not verify.
func runOne(sp *spec, root, out, name string, seed int64, seconds int, traced bool, show map[string]bool) error {
	tmp, err := os.MkdirTemp(out, "tmp-"+name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	fn := workloadFuncs[name]
	scale := float64(seconds) / refSeconds

	var res *runResult
	var specs []metricSpec
	values := map[string]float64{}
	if !traced {
		res, err = fn(runConfig{seed: seed, scale: scale, repeatSetup: true, tmp: tmp})
		if err != nil {
			return err
		}
		specs, values = sp.EndToEnd, res.e2e
	} else {
		plain, err := fn(runConfig{seed: seed, scale: scale * tracedScale, tmp: tmp})
		if err != nil {
			return fmt.Errorf("untraced pass: %w", err)
		}
		tc := newTraceCollector(seed)
		res, err = fn(runConfig{seed: seed, scale: scale * tracedScale, tc: tc, tmp: tmp})
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		res.finishLayers()
		walk, err := layerWalk(tc, res.shape, walkIters, tmp)
		if err != nil {
			return err
		}
		traceLayers(tc, res, walk)
		res.layer["obs.trace_overhead_ratio"] = res.wallS / plain.wallS
		res.layer["core.cpu_ms_per_op"] = plain.cpuMsPerOp
		res.violations = append(plain.violations, res.violations...)
		if err := tc.writeSpans(filepath.Join(out, "trace-"+name+".json"), name, seed); err != nil {
			return err
		}
		specs, values = sp.PerLayer, res.layer
	}

	line := resultLine{
		Correct: len(res.violations) == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{},
	}
	declared := map[string]bool{}
	for _, m := range specs {
		declared[m.Name] = true
		line.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	for n := range values {
		if !declared[n] {
			return fmt.Errorf("metric %q is measured but not declared in BENCHMARK.json", n)
		}
	}

	mode := "tracing off"
	if traced {
		mode = "traced pass + layer walk"
	}
	fmt.Printf("== %s  seed %d  %ds  %s ==\n", name, seed, seconds, mode)
	for _, m := range specs {
		if len(show) == 0 || show[m.Name] {
			fmt.Printf("%-36s %16.4f %s\n", m.Name, values[m.Name], m.Unit)
		}
	}
	aliases := make([]string, 0, len(res.alias))
	for n := range res.alias {
		aliases = append(aliases, n)
	}
	sort.Strings(aliases)
	for _, n := range aliases {
		fmt.Printf("  alias %-28s %16.4f\n", n, res.alias[n])
	}
	fmt.Printf("attempted %d  failed %d\n", res.attempted, res.failed)
	for _, v := range res.violations {
		fmt.Printf("VIOLATION: %s\n", v)
	}

	file := resultFile{
		Workload: name, Seed: seed, Seconds: seconds, Traced: traced,
		GitRev: gitRev(root), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Violations: res.violations, Aliases: res.alias,
		resultLine: line,
	}
	suffix := ""
	if traced {
		suffix = "-traced"
	}
	fb, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "result-"+name+suffix+".json"), fb, 0o644); err != nil {
		return err
	}
	lb, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(lb))
	if !line.Correct {
		return fmt.Errorf("%d output checks failed", len(res.violations))
	}
	return nil
}

func printSpec(sp *spec) {
	fmt.Println("workloads:")
	for _, w := range sp.Workloads {
		fmt.Printf("  %-20s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (tracing off):")
	for _, m := range sp.EndToEnd {
		fmt.Printf("  %-36s %-8s better %-6s may worsen %.0f%%\n", m.Name, m.Unit, m.Better, m.Bound*100)
	}
	fmt.Println("per-layer metrics (traced pass + layer walk):")
	for _, m := range sp.PerLayer {
		fmt.Printf("  %-36s %-8s better %s\n", m.Name, m.Unit, m.Better)
	}
}

// gitRev reads the checked-out commit without running git; a checkout
// that is not a repository reports "unknown".
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(l, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
