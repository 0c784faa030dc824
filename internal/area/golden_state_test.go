package area

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mykil/internal/crypt"
	"mykil/internal/keytree"
)

// The golden-state test extends wire-format pinning to the State blob:
// the same bytes rest in journal snapshots and travel as the baseline
// of segment pushes, so a silent encoding change would make old journals
// unreadable and mixed-version primary/replica pairs diverge. After an
// INTENTIONAL format change (bump stateFormatV1), regenerate with:
//
//	go test ./internal/area -run TestGoldenState -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_state.txt from the current codec")

const goldenStateFile = "testdata/golden_state.txt"

func goldenSymKey(seed byte) crypt.SymKey {
	var k crypt.SymKey
	for i := range k {
		k[i] = seed + byte(i)
	}
	return k
}

// goldenStates returns deterministic fixtures: every field populated so a
// dropped field cannot hide behind a zero encoding, plus minimal
// variants exercising the optional parent and empty member list.
func goldenStates() map[string]*State {
	tree := &keytree.Snapshot{
		Arity: 4,
		Epoch: 9,
		Nodes: []keytree.SnapshotNode{
			{ID: 0, Parent: -1, Key: goldenSymKey(0x01)},
			{ID: 1, Parent: 0, Key: goldenSymKey(0x11), Member: "m1"},
			{ID: 2, Parent: 0, Key: goldenSymKey(0x21), Member: "m2"},
		},
	}
	full := &State{
		AreaID: "area-0",
		Tree:   tree,
		Members: []MemberState{
			{ID: "m1", Addr: "10.0.0.9:1", PubDER: []byte{1, 2, 3}, TicketBlob: []byte{0x54, 0x4B}, IsChildAC: false},
			{ID: "m2", Addr: "10.0.0.9:2", PubDER: []byte{4, 5}, TicketBlob: []byte{0x54}, IsChildAC: true},
		},
		Parent: &ParentStateExport{
			ID: "ac-p", Addr: "10.0.0.1:7000", PubDER: []byte{0xA1, 0xA2},
			AreaID: "area-p",
			Path: []keytree.PathKey{
				{Node: 7, Key: goldenSymKey(0x31)},
				{Node: 0, Key: goldenSymKey(0x41)},
			},
			Epoch: 18,
		},
		Seq: 42,
	}
	rootOnly := &State{
		AreaID: "area-empty",
		Tree:   &keytree.Snapshot{Arity: 4, Epoch: 1, Nodes: []keytree.SnapshotNode{{ID: 0, Parent: -1, Key: goldenSymKey(0x51)}}},
		Seq:    1,
	}
	return map[string]*State{"full": full, "root-only": rootOnly}
}

func TestGoldenState(t *testing.T) {
	states := goldenStates()
	names := []string{"full", "root-only"}

	if *updateGolden {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "# Golden State encodings: <name> <hex(EncodeState)>.\n")
		fmt.Fprintf(&buf, "# The same bytes rest in journal snapshots and travel as segment-push baselines.\n")
		fmt.Fprintf(&buf, "# Regenerate ONLY on an intentional format change:\n")
		fmt.Fprintf(&buf, "#   go test ./internal/area -run TestGoldenState -update-golden\n")
		for _, name := range names {
			enc, err := EncodeState(states[name])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fmt.Fprintf(&buf, "%s %s\n", name, hex.EncodeToString(enc))
		}
		if err := os.MkdirAll(filepath.Dir(goldenStateFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStateFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenStateFile)
		return
	}

	raw, err := os.ReadFile(goldenStateFile)
	if err != nil {
		t.Fatalf("reading goldens (run with -update-golden to generate): %v", err)
	}
	goldens := make(map[string]string)
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexBytes, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line: %q", line)
		}
		goldens[name] = hexBytes
	}

	for _, name := range names {
		st := states[name]
		enc, err := EncodeState(st)
		if err != nil {
			t.Fatalf("%s: EncodeState: %v", name, err)
		}
		want, ok := goldens[name]
		if !ok {
			t.Errorf("%s: missing from %s (regenerate with -update-golden)", name, goldenStateFile)
			continue
		}
		if got := hex.EncodeToString(enc); got != want {
			t.Errorf("%s: state bytes changed\n got: %s\nwant: %s\n(an intentional format change must regenerate the goldens)", name, got, want)
		}

		// Round trip: the decode must reproduce the full structure and
		// re-encode to the identical bytes — the codec is canonical.
		dec, err := DecodeState(enc)
		if err != nil {
			t.Errorf("%s: DecodeState: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(dec, st) {
			t.Errorf("%s: decoded state differs:\n got: %+v\nwant: %+v", name, dec, st)
		}
		re, err := EncodeState(dec)
		if err != nil {
			t.Errorf("%s: re-encode: %v", name, err)
			continue
		}
		if !bytes.Equal(re, enc) {
			t.Errorf("%s: re-encoded state differs from original", name)
		}
	}
}

// TestDecodeStateRejects hardens the state decoder the same way the frame
// fuzzers harden the wire codec: hostile or truncated input must error,
// never panic or over-allocate.
func TestDecodeStateRejects(t *testing.T) {
	enc, err := EncodeState(goldenStates()["full"])
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation of a valid encoding must be rejected.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeState(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage must be rejected (canonical framing).
	if _, err := DecodeState(append(append([]byte{}, enc...), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Unknown version byte.
	bad := append([]byte{}, enc...)
	bad[0] = 99
	if _, err := DecodeState(bad); err == nil {
		t.Fatal("unknown version accepted")
	}
	// A member count far exceeding the input must not allocate.
	if _, err := DecodeState([]byte{stateFormatV1, 0x01, 'a', 0x00, 0x04, 0x01, 0x00, 0xFF, 0xFF, 0xFF, 0x7F}); err == nil {
		t.Fatal("hostile member count accepted")
	}
}
