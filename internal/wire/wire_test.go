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

func keyPair(t testing.TB) *crypt.KeyPair {
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

// TestEncodeOnceAndStaleGuard pins the frame's encoding cache: repeated
// Encodes return the one buffer (so a multicast shares it), and changing
// any exported field afterwards — the late `f.Sig = …` — re-encodes
// instead of sending the stale bytes.
func TestEncodeOnceAndStaleGuard(t *testing.T) {
	f := &Frame{Kind: KindKeyUpdate, From: "ac-1", Body: []byte{1, 2, 3}}
	first, _ := f.Encode()
	again, _ := f.Encode()
	if &first[0] != &again[0] {
		t.Fatal("second Encode built a second buffer")
	}
	unsigned := append([]byte(nil), first...)

	for name, mutate := range map[string]func(){
		"Sig":  func() { f.Sig = []byte{9, 8} },
		"Body": func() { f.Body = []byte{1, 2, 3} }, // equal bytes, another array
		"From": func() { f.From = "ac-2" },
		"Kind": func() { f.Kind = KindACAlive },
	} {
		before, _ := f.Encode()
		mutate()
		after, _ := f.Encode()
		if &before[0] == &after[0] {
			t.Errorf("%s changed after Encode, yet Encode returned the stale buffer", name)
		}
		want := &Frame{Kind: f.Kind, From: f.From, Body: f.Body, Sig: f.Sig}
		fresh, _ := want.Encode()
		if !bytes.Equal(after, fresh) {
			t.Errorf("%s changed: re-encode = %x, want %x", name, after, fresh)
		}
		if cached, _ := f.Encode(); &cached[0] != &after[0] {
			t.Errorf("%s changed: the re-encoding was not cached in turn", name)
		}
	}
	if !bytes.Equal(first, unsigned) {
		t.Error("re-encoding wrote into the earlier, possibly already sent, buffer")
	}
}

// TestDecodeFrameBorrowsInput documents the receive-side aliasing: a
// decoded frame's Body and Sig are windows onto the buffer it was
// decoded from — as are a KeyUpdate's entry ciphertexts and a Data's
// EncKey and Payload decoded from that Body — so a write to the buffer
// shows through all of them, while From is a copy. It also pins that the decoded frame does not answer Encode from its input.
func TestDecodeFrameBorrowsInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		body Marshaler
		// decode returns the fields that borrow body.
		decode func(body []byte) (borrowed [][]byte, err error)
	}{
		{"KeyUpdate",
			KeyUpdate{AreaID: "a1", Epoch: 4, Entries: []keytree.Entry{{Node: 7, Under: 3, Ciphertext: []byte{0xC0, 0xC1}}}},
			func(body []byte) ([][]byte, error) {
				var u KeyUpdate
				if err := DecodePlain(body, &u); err != nil {
					return nil, err
				}
				return [][]byte{u.Entries[0].Ciphertext}, nil
			}},
		{"Data",
			Data{Origin: "m1", FromArea: "a1", Seq: 1, Cipher: CipherAES, EncKey: []byte{0xE0, 0xE1}, Payload: []byte{0xD0, 0xD1}},
			func(body []byte) ([][]byte, error) {
				var d Data
				if err := DecodePlain(body, &d); err != nil {
					return nil, err
				}
				return [][]byte{d.EncKey, d.Payload}, nil
			}},
		{"DataRef",
			Data{Origin: "m1", OriginArea: "a0", FromArea: "a1", Seq: 1, Cipher: CipherAES, EncKey: []byte{0xE0, 0xE1}, Payload: []byte{0xD0, 0xD1}},
			func(body []byte) ([][]byte, error) {
				var d DataRef
				if err := ReadDataRef(body, &d); err != nil {
					return nil, err
				}
				return [][]byte{d.Origin, d.OriginArea, d.FromArea, d.EncKey, d.Payload}, nil
			}},
	} {
		body, _ := PlainBody(tc.body)
		buf, _ := (&Frame{Kind: KindKeyUpdate, From: "ac-1", Body: body, Sig: []byte{5, 5}}).Encode()
		f, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		re, _ := f.Encode()
		if &re[0] == &buf[0] || !bytes.Equal(re, buf) {
			t.Errorf("%s: a decoded frame must re-encode to equal bytes in a buffer of its own", tc.name)
		}
		borrowed, err := tc.decode(f.Body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		borrowed = append(borrowed, f.Body, f.Sig)
		before := make([][]byte, len(borrowed))
		for i, p := range borrowed {
			before[i] = append([]byte(nil), p...)
		}

		for i := range buf {
			buf[i] ^= 0xFF
		}
		for i, p := range borrowed {
			for j := range p {
				if p[j] != before[i][j]^0xFF {
					t.Fatalf("%s: borrowed field %d does not alias the delivery buffer", tc.name, i)
				}
			}
		}
		if f.From != "ac-1" {
			t.Errorf("%s: From = %q: strings must be copies, unaffected by the buffer", tc.name, f.From)
		}
	}
}

// TestDataEncodeAndReadDataRef: Data.Encode is PlainBody's encoding, and
// ReadDataRef reads back what DecodePlain does, refusing a body with a byte
// missing or a byte to spare.
func TestDataEncodeAndReadDataRef(t *testing.T) {
	for _, want := range []Data{
		{},
		{Origin: "m1", OriginArea: "area-0", Seq: 1 << 40, FromArea: "area-1", Cipher: CipherGCM,
			EncKey: bytes.Repeat([]byte{1}, 45), Payload: bytes.Repeat([]byte{2}, 1100)},
	} {
		body := want.Encode()
		if plain, _ := PlainBody(want); !bytes.Equal(body, plain) {
			t.Fatalf("Encode and PlainBody disagree on %+v", want)
		}
		var ref DataRef
		if err := ReadDataRef(body, &ref); err != nil {
			t.Fatal(err)
		}
		var got Data
		if err := DecodePlain(body, &got); err != nil {
			t.Fatal(err)
		}
		if string(ref.Origin) != got.Origin || string(ref.OriginArea) != got.OriginArea ||
			string(ref.FromArea) != got.FromArea || ref.Seq != got.Seq || ref.Cipher != got.Cipher ||
			!bytes.Equal(ref.EncKey, got.EncKey) || !bytes.Equal(ref.Payload, got.Payload) {
			t.Fatalf("ReadDataRef read %+v, DecodePlain %+v", ref, got)
		}
		if got.Origin != want.Origin || got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		for _, bad := range [][]byte{body[:len(body)-1], append(append([]byte(nil), body...), 0)} {
			if err := ReadDataRef(bad, &ref); !errors.Is(err, ErrBadBody) {
				t.Errorf("ReadDataRef(%d of %d bytes): err=%v, want ErrBadBody", len(bad), len(body), err)
			}
		}
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
	// A signed kind (an AC→AC area-join denial): body signed by the
	// sender, verified by the receiver.
	kp := keyPair(t)
	body, err := PlainBody(AreaJoinDenied{ACID: "ac-1", Reason: "full"})
	if err != nil {
		t.Fatalf("PlainBody: %v", err)
	}
	f := &Frame{Kind: KindAreaJoinDenied, From: "ac-1", Body: body, Sig: kp.Sign(body)}
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

// TestCipherTagsCoverEveryRegisteredSuite pins the Data.Cipher numbering:
// every registered suite owns one distinct tag that resolves back to it
// (so a suite added to crypt without a tag fails here, not in a member),
// the deployed values do not move, and nothing else resolves — in
// particular the retired value 2.
func TestCipherTagsCoverEveryRegisteredSuite(t *testing.T) {
	if CipherAES != 1 || CipherGCM != 3 || CipherChaCha != 4 {
		t.Fatalf("tags moved: aes=%d gcm=%d chacha=%d, want 1/3/4", CipherAES, CipherGCM, CipherChaCha)
	}
	if CipherOf(crypt.SuiteLegacy) != CipherAES || CipherOf(crypt.SuiteAESGCM) != CipherGCM ||
		CipherOf(crypt.SuiteChaCha20Poly1305) != CipherChaCha {
		t.Fatal("a suite's tag is no longer the constant named after it")
	}
	owner := map[DataCipher]string{}
	for _, s := range crypt.Suites() {
		tag := CipherOf(s.ID())
		if tag == 0 || owner[tag] != "" {
			t.Fatalf("suite %s has tag %d (zero, or shared with %q)", s.Name(), tag, owner[tag])
		}
		owner[tag] = s.Name()
		if got, ok := tag.Suite(); !ok || got.ID() != s.ID() {
			t.Errorf("tag %d of suite %s resolves to %v, %v", tag, s.Name(), got, ok)
		}
	}
	for c := 0; c < 256; c++ {
		if s, ok := DataCipher(c).Suite(); ok && owner[DataCipher(c)] == "" {
			t.Errorf("tag %d resolves to %s but no registered suite owns it", c, s.Name())
		}
	}
}
