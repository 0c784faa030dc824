package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"mykil/internal/crypt"
	"mykil/internal/keytree"
)

var (
	testKP     *crypt.KeyPair
	testKPErr  error
	testKPInit bool
)

func keyPair(t *testing.T) *crypt.KeyPair {
	t.Helper()
	if !testKPInit {
		testKP, testKPErr = crypt.GenerateKeyPair(1024)
		testKPInit = true
	}
	if testKPErr != nil {
		t.Fatalf("generating key pair: %v", testKPErr)
	}
	return testKP
}

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{
		Kind: KindKeyUpdate,
		From: "ac-1",
		Body: []byte{1, 2, 3},
		Sig:  []byte{9, 8},
	}
	enc, err := f.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeFrame(enc)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if got.Kind != f.Kind || got.From != f.From ||
		!bytes.Equal(got.Body, f.Body) || !bytes.Equal(got.Sig, f.Sig) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestDecodeFrameRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {}, []byte("garbage"), make([]byte, 100)} {
		if _, err := DecodeFrame(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("DecodeFrame(%d bytes): err=%v, want ErrBadFrame", len(b), err)
		}
	}
}

func TestDecodeFrameRejectsZeroKind(t *testing.T) {
	f := &Frame{Kind: 0, From: "x"}
	enc, err := f.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := DecodeFrame(enc); !errors.Is(err, ErrBadFrame) {
		t.Errorf("zero kind: err=%v, want ErrBadFrame", err)
	}
}

func TestPlainBodyRoundTrip(t *testing.T) {
	want := ACAlive{AreaID: "area-3", Epoch: 17}
	b, err := PlainBody(want)
	if err != nil {
		t.Fatalf("PlainBody: %v", err)
	}
	var got ACAlive
	if err := DecodePlain(b, &got); err != nil {
		t.Fatalf("DecodePlain: %v", err)
	}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestDecodePlainRejectsGarbage(t *testing.T) {
	var v ACAlive
	if err := DecodePlain([]byte("junk"), &v); !errors.Is(err, ErrBadBody) {
		t.Errorf("err=%v, want ErrBadBody", err)
	}
}

func TestSealOpenBodySmall(t *testing.T) {
	kp := keyPair(t)
	want := JoinChallenge{NonceCWPlus1: 41, NonceWC: 77}
	blob, err := SealBody(kp.Public(), want)
	if err != nil {
		t.Fatalf("SealBody: %v", err)
	}
	var got JoinChallenge
	if err := OpenBody(kp, blob, &got); err != nil {
		t.Fatalf("OpenBody: %v", err)
	}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestSealOpenBodyLargePath(t *testing.T) {
	// A JoinWelcome with a deep path exceeds one OAEP block, exercising
	// the paper's §V-D hybrid workaround end to end.
	kp := keyPair(t)
	want := JoinWelcome{
		NonceCAPlus1: 5,
		TicketBlob:   bytes.Repeat([]byte{0x54}, 200),
		Epoch:        12,
		AreaID:       "area-1",
	}
	for i := 0; i < 17; i++ {
		want.Path = append(want.Path, keytree.PathKey{
			Node: keytree.NodeID(i),
			Key:  crypt.NewSymKey(),
		})
	}
	blob, err := SealBody(kp.Public(), want)
	if err != nil {
		t.Fatalf("SealBody: %v", err)
	}
	var got JoinWelcome
	if err := OpenBody(kp, blob, &got); err != nil {
		t.Fatalf("OpenBody: %v", err)
	}
	if got.AreaID != want.AreaID || got.Epoch != want.Epoch || len(got.Path) != len(want.Path) {
		t.Errorf("got %+v", got)
	}
	for i := range want.Path {
		if got.Path[i] != want.Path[i] {
			t.Errorf("path entry %d differs", i)
		}
	}
}

func TestOpenBodyRejectsWrongRecipient(t *testing.T) {
	kp := keyPair(t)
	other, err := crypt.GenerateKeyPair(1024)
	if err != nil {
		t.Fatalf("GenerateKeyPair: %v", err)
	}
	blob, err := SealBody(kp.Public(), MemberAlive{MemberID: "m1"})
	if err != nil {
		t.Fatalf("SealBody: %v", err)
	}
	var got MemberAlive
	if err := OpenBody(other, blob, &got); err == nil {
		t.Error("OpenBody succeeded with the wrong private key")
	}
}

func TestOpenBodyDetectsTamper(t *testing.T) {
	kp := keyPair(t)
	// Large body: the symmetric layer carries the payload, so flipping
	// late bytes tests the digest/auth path rather than RSA.
	msg := PathUpdate{AreaID: "a", Epoch: 3}
	for i := 0; i < 20; i++ {
		msg.Path = append(msg.Path, keytree.PathKey{Node: keytree.NodeID(i), Key: crypt.NewSymKey()})
	}
	blob, err := SealBody(kp.Public(), msg)
	if err != nil {
		t.Fatalf("SealBody: %v", err)
	}
	for _, idx := range []int{len(blob) - 1, len(blob) / 2, 5} {
		mut := bytes.Clone(blob)
		mut[idx] ^= 0x01
		var got PathUpdate
		if err := OpenBody(kp, mut, &got); err == nil {
			t.Errorf("tamper at byte %d accepted", idx)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range kindNames {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestAllKindsNamed(t *testing.T) {
	for _, k := range liveKinds() {
		if _, ok := kindNames[k]; !ok {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestSignedFrameFlow(t *testing.T) {
	// The KeyUpdate path: body signed by the AC, verified by members.
	kp := keyPair(t)
	body, err := PlainBody(KeyUpdate{AreaID: "a1", Epoch: 4})
	if err != nil {
		t.Fatalf("PlainBody: %v", err)
	}
	f := &Frame{Kind: KindKeyUpdate, From: "ac-1", Body: body, Sig: kp.Sign(body)}
	enc, err := f.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeFrame(enc)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if err := kp.Public().Verify(got.Body, got.Sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	got.Body[0] ^= 1
	if err := kp.Public().Verify(got.Body, got.Sig); err == nil {
		t.Error("signature verified over altered body")
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(kind uint8, from string, body, sig []byte) bool {
		if kind == 0 {
			kind = 1
		}
		orig := &Frame{Kind: Kind(kind), From: from, Body: body, Sig: sig}
		enc, err := orig.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeFrame(enc)
		if err != nil {
			return false
		}
		return got.Kind == orig.Kind && got.From == orig.From &&
			bytes.Equal(got.Body, orig.Body) && bytes.Equal(got.Sig, orig.Sig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSealedBodyProperty(t *testing.T) {
	kp := keyPair(t)
	f := func(areaID string, epoch uint64, entries []byte) bool {
		want := PathUpdate{AreaID: areaID, Epoch: epoch}
		// Derive a pseudo-random path length from the generated bytes.
		for i := 0; i < len(entries)%20; i++ {
			want.Path = append(want.Path, keytree.PathKey{
				Node: keytree.NodeID(i),
				Key:  crypt.NewSymKey(),
			})
		}
		blob, err := SealBody(kp.Public(), want)
		if err != nil {
			return false
		}
		var got PathUpdate
		if err := OpenBody(kp, blob, &got); err != nil {
			return false
		}
		if got.AreaID != want.AreaID || got.Epoch != want.Epoch || len(got.Path) != len(want.Path) {
			return false
		}
		for i := range want.Path {
			if got.Path[i] != want.Path[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20} // RSA ops per case
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTimestampSurvivesGob(t *testing.T) {
	now := time.Date(2026, 7, 6, 10, 30, 0, 123456789, time.UTC)
	b, err := PlainBody(RejoinVerifyReq{ClientID: "c1", Timestamp: now})
	if err != nil {
		t.Fatalf("PlainBody: %v", err)
	}
	var got RejoinVerifyReq
	if err := DecodePlain(b, &got); err != nil {
		t.Fatalf("DecodePlain: %v", err)
	}
	if !got.Timestamp.Equal(now) {
		t.Errorf("timestamp %v, want %v", got.Timestamp, now)
	}
}
