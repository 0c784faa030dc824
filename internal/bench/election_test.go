package bench

import "testing"

// TestElectionFailoverSmoke runs E15 small: every round the replicas
// must hold the primary's whole log before the kill, the quorum must
// elect exactly one winner within the harness deadline, and that winner
// must serve the primary's member set at its epoch with nobody rejoining.
func TestElectionFailoverSmoke(t *testing.T) {
	r, err := ElectionFailover(ElectionConfig{Rounds: 2, Members: 24, Churn: 6})
	if err != nil {
		t.Fatalf("ElectionFailover: %v", err)
	}
	if len(r.Latencies) != 2 {
		t.Fatalf("got %d rounds, want 2", len(r.Latencies))
	}
	for i, l := range r.Latencies {
		if l <= 0 {
			t.Errorf("round %d latency %v, want > 0", i, l)
		}
	}
	if !r.GuaranteesHold() {
		t.Errorf("replication guarantees violated: %q", r.Violations)
	}
	if r.SegmentBytes <= 0 {
		t.Errorf("segment bytes %d, want > 0", r.SegmentBytes)
	}
	if got := r.Table(); len(got.Rows) < 5 {
		t.Errorf("table has %d rows, want >= 5", len(got.Rows))
	}
}
