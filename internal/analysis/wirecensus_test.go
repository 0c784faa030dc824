package analysis_test

import (
	"testing"

	"mykil/internal/analysis"
	"mykil/internal/wire"
)

// kindInventory is the pinned census of wire kinds, in wire-value order:
// entry i names wire value i+1. Adding a kind to internal/wire means
// extending this list in the same change — the analyzer, the runtime
// registry, and this test must agree. The empty entry is value 26, left
// unassigned when the full-state snapshot push was retired so that no
// later kind was renumbered.
var kindInventory = []string{
	"JoinRequest", "JoinChallenge", "JoinResponse", "JoinRefer",
	"JoinGrant", "JoinToAC", "JoinWelcome", "JoinDenied",
	"RejoinRequest", "RejoinChallenge", "RejoinResponse",
	"RejoinVerifyReq", "RejoinVerifyResp", "RejoinWelcome", "RejoinDenied",
	"Data", "KeyUpdate", "PathUpdate",
	"ACAlive", "MemberAlive", "LeaveNotice", "PathRequest",
	"AreaJoinReq", "AreaJoinAck", "AreaJoinDenied",
	"", "ReplicaHeartbeat", "ACFailover",
	"Election", "ElectionOK", "Coordinator", "SegmentPull", "SegmentPush",
	"AreaReassign",
}

// TestWireKindCensus pins the analyzer's view of the wire package to the
// runtime registry: every Kind constant wireexhaustive counts must have a
// body factory, a protocol name, and its pinned wire value; values run
// from 1 with no gap but the retired slot, which must stay unknown.
func TestWireKindCensus(t *testing.T) {
	pkg, err := getLoader(t).Load(wireDir)
	if err != nil {
		t.Fatalf("loading internal/wire: %v", err)
	}
	census := analysis.WireKindCensus(pkg)

	byValue := make(map[uint64]analysis.KindConst, len(census))
	for _, k := range census {
		byValue[k.Value] = k
	}
	live := 0
	for i, want := range kindInventory {
		v := uint64(i + 1)
		k, ok := byValue[v]
		rt := wire.Kind(v)
		if want == "" {
			if ok {
				t.Errorf("retired wire value %d is assigned to %s", v, k.Name)
			}
			if _, ok := wire.NewBody(rt); ok {
				t.Errorf("wire.NewBody has a factory for retired value %d", v)
			}
			continue
		}
		live++
		if !ok {
			t.Errorf("no Kind constant has value %d (want %q)", v, want)
			continue
		}
		if k.WireName != want {
			t.Errorf("value %d = %s (%q), want %q", v, k.Name, k.WireName, want)
		}
		if got := rt.String(); got != k.WireName {
			t.Errorf("%s: runtime String() = %q, analyzer census = %q", k.Name, got, k.WireName)
		}
		if _, ok := wire.NewBody(rt); !ok {
			t.Errorf("%s: wire.NewBody has no factory for value %d", k.Name, k.Value)
		}
	}
	if len(census) != live {
		t.Errorf("census found %d Kind constants, inventory pins %d", len(census), live)
	}
	// The registry must be exactly the census: one past the end decodes
	// as unknown.
	if _, ok := wire.NewBody(wire.Kind(len(kindInventory) + 1)); ok {
		t.Errorf("wire.NewBody accepts kind %d beyond the census", len(kindInventory)+1)
	}
}

// wireDir locates the real wire package relative to this test.
const wireDir = "../wire"
