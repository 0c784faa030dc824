package main

import (
	"sort"
	"testing"
)

func toyConfig(t *testing.T, tc *traceCollector) runConfig {
	return runConfig{seed: 1, scale: 0.01, toy: true, tc: tc, tmp: t.TempDir()}
}

func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(ms []metricSpec) []string {
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsToy runs every workload at toy scale with tracing off: no
// operation fails, every output check holds, and the end-to-end metrics
// produced are exactly those BENCHMARK.json declares.
func TestWorkloadsToy(t *testing.T) {
	sp, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range sp.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if have := keysOf(workloadFuncs); !equal(have, declared) {
		t.Fatalf("workloads: program has %v, BENCHMARK.json declares %v", have, declared)
	}
	for _, name := range declared {
		t.Run(name, func(t *testing.T) {
			res, err := workloadFuncs[name](toyConfig(t, nil))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.violations) != 0 || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("attempted %d, failed %d, violations %v", res.attempted, res.failed, res.violations)
			}
			if have, want := keysOf(res.e2e), names(sp.EndToEnd); !equal(have, want) {
				t.Fatalf("end-to-end metrics %v, BENCHMARK.json declares %v", have, want)
			}
			for k, v := range res.e2e {
				if !(v > 0) {
					t.Errorf("%s = %v, want a positive figure", k, v)
				}
			}
		})
	}
}

// TestTracedToy runs the traced pass and the layer walk on the two
// workloads that between them touch every layer, and checks that the
// per-layer metrics produced are exactly those BENCHMARK.json declares.
func TestTracedToy(t *testing.T) {
	sp, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	produced := map[string]bool{}
	for _, name := range []string{"mobility_churn", "failover"} {
		tc := newTraceCollector(1)
		cfg := toyConfig(t, tc)
		res, err := workloadFuncs[name](cfg)
		if err != nil {
			t.Fatal(name, err)
		}
		if len(res.violations) != 0 {
			t.Fatalf("%s: violations %v", name, res.violations)
		}
		res.finishLayers()
		walk, err := layerWalk(tc, res.shape, 20, cfg.tmp)
		if err != nil {
			t.Fatal(name, err)
		}
		traceLayers(tc, res, walk)
		res.layer["obs.trace_overhead_ratio"] = 1 // runOne's figures from its two passes
		res.layer["core.cpu_ms_per_op"] = res.cpuMsPerOp
		if len(tc.spans) == 0 {
			t.Fatalf("%s: the layer walk recorded no spans", name)
		}
		for k := range res.layer {
			produced[k] = true
		}
	}
	if have, want := keysOf(produced), names(sp.PerLayer); !equal(have, want) {
		t.Fatalf("per-layer metrics produced:\n%v\nBENCHMARK.json declares:\n%v", have, want)
	}
}
