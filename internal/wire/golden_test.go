package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mykil/internal/crypt"
	"mykil/internal/keytree"
)

// The golden-bytes test pins the wire format: one deterministic fixture
// frame per Kind, hex-encoded and checked into testdata/golden_frames.txt.
// Any codec edit that silently changes the bytes on the wire — reordered
// fields, a different integer encoding, a new length prefix — fails here
// before it fails in a mixed-version deployment. After an INTENTIONAL
// format change, regenerate with:
//
//	go test ./internal/wire -run TestGoldenFrames -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_frames.txt from the current codec")

// goldenTime is a fixed instant; fixtures must not read the clock.
var goldenTime = time.Unix(1754300000, 123456789).UTC()

// goldenKey returns a deterministic symmetric key.
func goldenKey(seed byte) crypt.SymKey {
	var k crypt.SymKey
	for i := range k {
		k[i] = seed + byte(i)
	}
	return k
}

// goldenTag returns a deterministic MAC-tag-sized value.
func goldenTag(seed byte) (d [crypt.MACTagLen]byte) {
	for i := range d {
		d[i] = seed + byte(i)
	}
	return d
}

func goldenPath() []keytree.PathKey {
	return []keytree.PathKey{
		{Node: 7, Key: goldenKey(0x10)},
		{Node: 3, Key: goldenKey(0x20)},
		{Node: 0, Key: goldenKey(0x30)},
	}
}

// goldenBodies holds one fully populated fixture per kind. Every field
// is set to a non-zero value so a dropped field cannot hide behind a
// zero encoding.
func goldenBodies() map[Kind]Marshaler {
	acA := ACInfo{ID: "ac-a", Addr: "10.0.0.1:7000", PubDER: []byte{0xA1, 0xA2, 0xA3}}
	acB := ACInfo{ID: "ac-b", Addr: "10.0.0.2:7000", PubDER: []byte{0xB1, 0xB2}}
	return map[Kind]Marshaler{
		KindJoinRequest: JoinRequest{AuthInfo: "secret", ClientID: "c1",
			ClientAddr: "10.0.0.9:1", ClientPub: []byte{1, 2, 3}, NonceCW: 0x1122334455667788},
		KindJoinChallenge: JoinChallenge{NonceCWPlus1: 0x1122334455667789, NonceWC: 42},
		KindJoinResponse:  JoinResponse{ClientID: "c1", NonceWCPlus1: 43},
		KindJoinRefer: JoinRefer{NonceAC: 99, ClientID: "c1", ClientAddr: "10.0.0.9:1",
			Timestamp: goldenTime, ClientPub: []byte{1, 2, 3}, Duration: 90 * time.Minute},
		KindJoinGrant: JoinGrant{NonceACPlus1: 100, AC: acA, Directory: []ACInfo{acA, acB}},
		KindJoinToAC: JoinToAC{ClientID: "c1", ClientAddr: "10.0.0.9:1", NonceACPlus2: 101, NonceCA: 7,
			SuiteMask: 0x7},
		KindJoinWelcome: JoinWelcome{NonceCAPlus1: 8, TicketBlob: []byte{0x54, 0x4B},
			Path: goldenPath(), Epoch: 12, AreaID: "area-0",
			BackupAddr: "10.0.0.3:7000", BackupPub: []byte{0xC1}, Suite: crypt.SuiteAESGCM},
		KindJoinDenied: JoinDenied{ClientID: "c1", Reason: "no"},
		KindRejoinRequest: RejoinRequest{ClientID: "c1", ClientAddr: "10.0.0.9:2",
			NonceCB: 200, TicketBlob: []byte{0x54, 0x4B}, SuiteMask: 0x7},
		KindRejoinChallenge: RejoinChallenge{NonceCBPlus1: 201, NonceBC: 77},
		KindRejoinResponse:  RejoinResponse{ClientID: "c1", NonceBCPlus1: 78},
		KindRejoinVerifyReq: RejoinVerifyReq{ClientID: "c1", Timestamp: goldenTime},
		KindRejoinVerifyResp: RejoinVerifyResp{ClientID: "c1", StillMember: true,
			TicketBlob: []byte{0x54}, Timestamp: goldenTime},
		KindRejoinWelcome: RejoinWelcome{TicketBlob: []byte{0x54, 0x4B}, Path: goldenPath(),
			Epoch: 13, AreaID: "area-1", BackupAddr: "10.0.0.4:7000", BackupPub: []byte{0xC2},
			Suite: crypt.SuiteChaCha20Poly1305},
		KindRejoinDenied: RejoinDenied{ClientID: "c1", Reason: "cohort"},
		KindData: Data{Origin: "m1", OriginArea: "area-0", Seq: 5, FromArea: "area-1",
			Cipher: CipherAES, EncKey: []byte{9, 9, 9}, Payload: []byte("payload")},
		KindKeyUpdate: KeyUpdate{AreaID: "area-0", Epoch: 14,
			Entries: []keytree.Entry{
				{Node: 7, Under: 9, Ciphertext: []byte{0xE1, 0xE2}},
				{Node: 3, Under: 3, Ciphertext: []byte{0xE3}},
			},
			Tag: goldenTag(0x40)},
		KindPathUpdate:  PathUpdate{AreaID: "area-0", Epoch: 15, Path: goldenPath()},
		KindACAlive:     ACAlive{AreaID: "area-0", Epoch: 16},
		KindMemberAlive: MemberAlive{MemberID: "m1"},
		KindLeaveNotice: LeaveNotice{MemberID: "m1", Tag: goldenTag(0x60)},
		KindPathRequest: PathRequest{MemberID: "m1", Epoch: 17},
		KindAreaJoinReq: AreaJoinReq{ACID: "ac-b", ACAddr: "10.0.0.2:7000",
			AreaID: "area-1", Timestamp: goldenTime, SuiteMask: 0x7},
		KindAreaJoinAck: AreaJoinAck{ParentID: "ac-a", ParentAreaID: "area-0",
			Path: goldenPath(), Epoch: 18, Timestamp: goldenTime, Suite: crypt.SuiteAESGCM},
		KindAreaJoinDenied:   AreaJoinDenied{ACID: "ac-b", Reason: "full"},
		KindReplicaHeartbeat: ReplicaHeartbeat{AreaID: "area-0", Seq: 20},
		KindACFailover: ACFailover{AreaID: "area-0", NewAddr: "10.0.0.5:7000",
			NewPub: []byte{0xC3, 0xC4}, Epoch: 21},
		KindElection:   Election{AreaID: "area-0", CandidateID: "backup-0-1", LSN: 22},
		KindElectionOK: ElectionOK{AreaID: "area-0", VoterID: "backup-0-2", LSN: 23},
		KindCoordinator: Coordinator{AreaID: "area-0", LeaderID: "backup-0-1",
			Addr: "10.0.0.6:7000", PubDER: []byte{0xC5, 0xC6}, Epoch: 24,
			MemberAddrs: []string{"10.0.0.9:1", "10.0.0.9:2"}},
		KindSegmentPull: SegmentPull{AreaID: "area-0", FromLSN: 25},
		KindSegmentPush: SegmentPush{AreaID: "area-0", FromLSN: 26, NextLSN: 29,
			SnapshotLSN: 25, Snapshot: []byte{0x5D, 0x5E},
			Records:        [][]byte{{0x01, 0x02}, {0x03}},
			HeartbeatEvery: 250 * time.Millisecond},
		KindAreaReassign: AreaReassign{AreaID: "area-0", TargetID: "ac-1s",
			TargetAddr: "10.0.0.7:7000", TargetPub: []byte{0xC7}, Reason: "split"},
	}
}

// retiredKind is wire value 26: the full-state snapshot push, deleted when
// replication collapsed onto journal segments. The value stays unassigned
// so every later kind keeps its golden bytes.
const retiredKind Kind = 26

// liveKinds lists every assigned kind in wire order.
func liveKinds() []Kind {
	var out []Kind
	for k := KindJoinRequest; k <= KindAreaReassign; k++ {
		if k != retiredKind {
			out = append(out, k)
		}
	}
	return out
}

// TestRetiredKindStaysUnassigned: a frame with the retired value must
// decode as unknown, not as whatever kind is declared next.
func TestRetiredKindStaysUnassigned(t *testing.T) {
	if KindAreaJoinDenied != retiredKind-1 || KindReplicaHeartbeat != retiredKind+1 {
		t.Fatalf("retired slot moved: neighbours are %d and %d", KindAreaJoinDenied, KindReplicaHeartbeat)
	}
	if _, ok := NewBody(retiredKind); ok {
		t.Error("retired kind has a body factory")
	}
	if _, ok := kindNames[retiredKind]; ok {
		t.Error("retired kind has a protocol name")
	}
}

// goldenFrame wraps a fixture body in a frame with fixed envelope fields.
func goldenFrame(k Kind, body Marshaler) (*Frame, error) {
	b, err := PlainBody(body)
	if err != nil {
		return nil, err
	}
	return &Frame{Kind: k, From: "10.0.0.1:7000", Body: b, Sig: []byte{0xF0, 0xF1, 0xF2}}, nil
}

const goldenFile = "testdata/golden_frames.txt"

func readGoldens(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("reading goldens (run with -update-golden to generate): %v", err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexBytes, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line: %q", line)
		}
		out[name] = hexBytes
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning goldens: %v", err)
	}
	return out
}

func TestGoldenFrames(t *testing.T) {
	bodies := goldenBodies()
	// Every kind must have a fixture; a new kind without one fails here.
	for _, k := range liveKinds() {
		if _, ok := bodies[k]; !ok {
			t.Errorf("kind %v has no golden fixture", k)
		}
	}

	if *updateGolden {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "# Golden wire encodings, one frame per kind: <KindName> <hex(Frame.Encode)>.\n")
		fmt.Fprintf(&buf, "# Regenerate ONLY on an intentional format change:\n")
		fmt.Fprintf(&buf, "#   go test ./internal/wire -run TestGoldenFrames -update-golden\n")
		for _, k := range liveKinds() {
			f, err := goldenFrame(k, bodies[k])
			if err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			enc, err := f.Encode()
			if err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			fmt.Fprintf(&buf, "%s %s\n", k, hex.EncodeToString(enc))
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenFile)
		return
	}

	goldens := readGoldens(t)
	for _, k := range liveKinds() {
		body := bodies[k]
		f, err := goldenFrame(k, body)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		enc, err := f.Encode()
		if err != nil {
			t.Fatalf("%v: Encode: %v", k, err)
		}
		want, ok := goldens[k.String()]
		if !ok {
			t.Errorf("%v: missing from %s (regenerate with -update-golden)", k, goldenFile)
			continue
		}
		if got := hex.EncodeToString(enc); got != want {
			t.Errorf("%v: wire bytes changed\n got: %s\nwant: %s\n(an intentional format change must regenerate the goldens)", k, got, want)
		}

		// Round trip through the registry: decode the envelope, decode the
		// body by kind, and require re-encoding to reproduce the identical
		// bytes — the codec is canonical.
		df, err := DecodeFrame(enc)
		if err != nil {
			t.Errorf("%v: DecodeFrame: %v", k, err)
			continue
		}
		decoded, ok := NewBody(df.Kind)
		if !ok {
			t.Errorf("%v: no registry entry", k)
			continue
		}
		if err := DecodePlain(df.Body, decoded); err != nil {
			t.Errorf("%v: DecodePlain: %v", k, err)
			continue
		}
		re, err := PlainBody(decoded)
		if err != nil {
			t.Errorf("%v: re-encode: %v", k, err)
			continue
		}
		if !bytes.Equal(re, df.Body) {
			t.Errorf("%v: re-encoded body differs from original", k)
		}
	}
}
