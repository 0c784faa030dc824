package bench

import (
	"strings"
	"testing"
	"time"
)

// Reduced scales keep the test suite fast; the cmd/mykil-bench binary and
// the root bench_test.go run paper scale.
const (
	testN        = 8192
	testAreaSize = 1024
)

func TestFastKeyGenDeterministicAndDistinct(t *testing.T) {
	g1, g2 := FastKeyGen(7), FastKeyGen(7)
	seen := make(map[[16]byte]bool)
	for i := 0; i < 1000; i++ {
		k1, k2 := g1(), g2()
		if !k1.Equal(k2) {
			t.Fatal("same seed produced different sequences")
		}
		if seen[k1] {
			t.Fatal("duplicate key from FastKeyGen")
		}
		seen[k1] = true
	}
}

func TestStorageOrdering(t *testing.T) {
	r, err := Storage(testN, 8, PaperArity)
	if err != nil {
		t.Fatalf("Storage: %v", err)
	}
	if !r.OrderingHolds() {
		t.Errorf("paper ordering violated: member %d/%d/%d, ctrl %d/%d/%d",
			r.MemberKeysIolus, r.MemberKeysMykil, r.MemberKeysLKH,
			r.CtrlKeysIolus, r.CtrlKeysMykil, r.CtrlKeysLKH)
	}
	if r.MemberKeysIolus != 2 {
		t.Errorf("Iolus member keys = %d, want 2", r.MemberKeysIolus)
	}
	// 8192 = 2^13 -> complete binary tree, depth 13, 14 path keys.
	if r.MemberKeysLKH != 14 {
		t.Errorf("LKH member keys = %d, want 14", r.MemberKeysLKH)
	}
	// Area of 1024 -> depth 10, 11 path keys.
	if r.MemberKeysMykil != 11 {
		t.Errorf("Mykil member keys = %d, want 11", r.MemberKeysMykil)
	}
	for _, tbl := range r.Tables() {
		if !strings.Contains(tbl.String(), "Mykil") {
			t.Error("table missing Mykil row")
		}
	}
}

func TestCPULeaveDistribution(t *testing.T) {
	r, err := CPULeave(testN, testAreaSize, PaperArity)
	if err != nil {
		t.Fatalf("CPULeave: %v", err)
	}
	if !r.GeometricShapeHolds() {
		t.Errorf("geometric shape violated: LKH=%v Mykil=%v", r.LKHCounts, r.MykilCounts)
	}
	// §V-B ordering: Iolus < Mykil ≪ LKH in total updates.
	if !(r.IolusTotal < r.MykilTotal && r.MykilTotal < r.LKHTotal) {
		t.Errorf("totals ordering violated: %d / %d / %d", r.IolusTotal, r.MykilTotal, r.LKHTotal)
	}
	// §V-B join side: a join touches every LKH member but only one area
	// in Iolus/Mykil.
	if r.JoinAffectedLKH != testN {
		t.Errorf("LKH join affects %d members, want all %d", r.JoinAffectedLKH, testN)
	}
	if r.JoinAffectedMykil > testAreaSize+1 || r.JoinAffectedMykil < testAreaSize-1 {
		t.Errorf("Mykil join affects %d members, want ~%d", r.JoinAffectedMykil, testAreaSize)
	}
	if r.JoinAffectedIolus != testAreaSize {
		t.Errorf("Iolus join affects %d members, want %d", r.JoinAffectedIolus, testAreaSize)
	}
	if r.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestCPULeaveExactHalving(t *testing.T) {
	// Complete binary tree of 8192: exactly half the members update one
	// key, a quarter two, and so on — the paper's 50%/25%/12.5% row.
	r, err := CPULeave(testN, testAreaSize, 2)
	if err != nil {
		t.Fatalf("CPULeave: %v", err)
	}
	if got := r.LKHCounts[1]; got != testN/2 {
		t.Errorf("LKH members updating 1 key = %d, want %d", got, testN/2)
	}
	if got := r.LKHCounts[2]; got != testN/4 {
		t.Errorf("LKH members updating 2 keys = %d, want %d", got, testN/4)
	}
	if got := r.MykilCounts[1]; got != testAreaSize/2 {
		t.Errorf("Mykil members updating 1 key = %d, want %d", got, testAreaSize/2)
	}
}

func TestLeaveBandwidthShape(t *testing.T) {
	rows, err := LeaveBandwidth(testN, []int{1, 2, 4, 8}, PaperArity)
	if err != nil {
		t.Fatalf("LeaveBandwidth: %v", err)
	}
	if !Fig8ShapeHolds(rows) {
		t.Errorf("Fig. 8 shape violated: %+v", rows)
	}
	// Iolus at one area: (n-1) keys of 16 bytes.
	if got, want := rows[0].IolusBytes, (testN-1)*16; got != want {
		t.Errorf("Iolus bytes at 1 area = %d, want %d", got, want)
	}
	// LKH on a complete binary tree of depth 13: (2*13-1)*16 bytes.
	if got, want := rows[0].LKHBytes, (2*13-1)*16; got != want {
		t.Errorf("LKH bytes = %d, want %d", got, want)
	}
	if Fig8Table(rows).String() == "" || Fig9Table(rows).String() == "" {
		t.Error("empty figure table")
	}
}

func TestLeaveAggregationShape(t *testing.T) {
	rows, err := LeaveAggregation(testN, []int{1, 2, 4}, 10, PaperArity)
	if err != nil {
		t.Fatalf("LeaveAggregation: %v", err)
	}
	if !Fig10ShapeHolds(rows) {
		t.Errorf("Fig. 10 shape violated: %+v", rows)
	}
	if Fig10Table(rows, 10).String() == "" {
		t.Error("empty table")
	}
}

func TestBatchingSavings(t *testing.T) {
	rows, err := BatchingSavings(1024, 300, []int{2, 3, 4}, PaperArity, 99)
	if err != nil {
		t.Fatalf("BatchingSavings: %v", err)
	}
	if !BatchingClaimHolds(rows) {
		t.Errorf("no configuration hit the paper's 40-60%% band: %+v", rows)
	}
	for _, r := range rows {
		if r.BatchedMsgs >= r.UnbatchedMsgs {
			t.Errorf("epf=%d: batching did not reduce messages (%d vs %d)",
				r.EventsPerFlush, r.BatchedMsgs, r.UnbatchedMsgs)
		}
		if r.BatchedBytes >= r.UnbatchedBytes {
			t.Errorf("epf=%d: batching did not reduce bytes (%d vs %d)",
				r.EventsPerFlush, r.BatchedBytes, r.UnbatchedBytes)
		}
	}
	if BatchingTable(rows).String() == "" {
		t.Error("empty table")
	}
}

func TestFlushPolicies(t *testing.T) {
	rows, err := FlushPolicies(512, 400, 10, 0.8, 0.3, PaperArity, 5)
	if err != nil {
		t.Fatalf("FlushPolicies: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !HybridDominates(rows) {
		t.Errorf("hybrid policy does not dominate: %+v", rows)
	}
	for _, r := range rows {
		if r.RekeyMsgs == 0 {
			t.Errorf("%s: no rekeys at all", r.Policy)
		}
	}
	// Timer-only with a long interval must batch more (fewer messages)
	// but wait longer than the hybrid.
	if rows[1].MeanStaleness < rows[2].MeanStaleness {
		t.Errorf("timer-only staleness %.2f below hybrid %.2f",
			rows[1].MeanStaleness, rows[2].MeanStaleness)
	}
	if FlushPolicyTable(rows).String() == "" {
		t.Error("empty table")
	}
}

func TestAblationArity(t *testing.T) {
	rows, err := AblationArity(1024, []int{2, 4, 8})
	if err != nil {
		t.Fatalf("AblationArity: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Higher arity means shallower trees and fewer member keys.
	if !(rows[0].Depth > rows[1].Depth && rows[1].Depth > rows[2].Depth) {
		t.Errorf("depth not decreasing with arity: %+v", rows)
	}
	if ArityTable(rows, 1024).String() == "" {
		t.Error("empty table")
	}
}

func TestAblationPrune(t *testing.T) {
	r, err := AblationPrune(256, 100, PaperArity)
	if err != nil {
		t.Fatalf("AblationPrune: %v", err)
	}
	if !r.NoPruneCheaperJoins() {
		t.Errorf("no-prune joins not cheaper: %+v", r)
	}
	if r.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestRC4Throughput(t *testing.T) {
	r := RC4Throughput(1)
	if !r.Feasible() {
		t.Errorf("RC4 throughput infeasible: %+v", r)
	}
	if r.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestProtocolCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol costs in -short mode")
	}
	rows, err := ProtocolCosts(512)
	if err != nil {
		t.Fatalf("ProtocolCosts: %v", err)
	}
	if !RejoinShedsRSLoad(rows) {
		t.Errorf("§V-D claim violated: %+v", rows)
	}
	// Join spans 7 protocol steps plus the controller's unicasts; the
	// rejoin with verification spans 6 steps; both must be small frame
	// counts, not floods.
	for _, r := range rows {
		if r.Messages < 4 || r.Messages > 20 {
			t.Errorf("%s: %d frames, outside plausible envelope", r.Protocol, r.Messages)
		}
	}
	if ProtocolCostTable(rows, 512).String() == "" {
		t.Error("empty table")
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{
		Title:   "t",
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"1", "x,y"}, {"2", `quo"te`}},
	}
	want := "a,b\n1,\"x,y\"\n2,\"quo\"\"te\"\n"
	if got := tbl.CSV(); got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestJoinRejoinLatencySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol latency in -short mode")
	}
	// The link latency is the signal: the two skipped hops must outweigh
	// scheduler noise when other packages' tests share the CPU.
	r, err := JoinRejoinLatency(LatencyConfig{
		RSABits:     512,
		LinkLatency: 5 * time.Millisecond,
		Iterations:  2,
	})
	if err != nil {
		t.Fatalf("JoinRejoinLatency: %v", err)
	}
	if r.Join.Mean() <= 0 || r.Rejoin.Mean() <= 0 || r.RejoinNoVerify.Mean() <= 0 {
		t.Errorf("zero latency measured: %+v", r)
	}
	// The no-verify variant skips a controller-to-controller round trip;
	// with injected link latency it must be faster than the full rejoin.
	if r.RejoinNoVerify.Mean() >= r.Rejoin.Mean() {
		t.Errorf("no-verify rejoin (%.4fs) not faster than full rejoin (%.4fs)",
			r.RejoinNoVerify.Mean(), r.Rejoin.Mean())
	}
	if r.Table().String() == "" {
		t.Error("empty table")
	}
}
