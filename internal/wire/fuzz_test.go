package wire

import (
	"bytes"
	"testing"

	"mykil/internal/crypt"
	"mykil/internal/keytree"
	"mykil/internal/wire/codec"
)

// FuzzDecodeFrame hardens the transport-facing decoder: arbitrary bytes
// must produce an error or a valid frame, never a panic and never an
// allocation larger than the input (length prefixes are capped against
// the bytes actually present). A successful decode must also re-encode
// to the identical bytes — the codec is canonical, so there is exactly
// one encoding per frame.
func FuzzDecodeFrame(f *testing.F) {
	valid, err := (&Frame{Kind: KindData, From: "x", Body: []byte("b"), Sig: []byte("s")}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// A KeyUpdate frame: entries, then a tag, and no signature.
	ku, err := PlainBody(fuzzKeyUpdate)
	if err != nil {
		f.Fatal(err)
	}
	part, err := (&Frame{Kind: KindKeyUpdate, From: "ac", Body: ku}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(part)
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(make([]byte, 1024))
	// A frame claiming a body far larger than the input.
	f.Add([]byte{byte(KindData), 0x01, 'x', 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if frame.Kind == 0 {
			t.Error("decoded frame with zero kind")
		}
		if len(frame.From)+len(frame.Body)+len(frame.Sig) > len(data) {
			t.Errorf("decoded fields exceed input: %d bytes from %d", len(frame.From)+len(frame.Body)+len(frame.Sig), len(data))
		}
		re, err := frame.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Errorf("decode/encode not canonical:\n in: %x\nout: %x", data, re)
		}
		// The check above is only worth something if re was built from the
		// decoded fields: a frame that answered Encode from the buffer it
		// was decoded from would pass it for any input.
		if &re[0] == &data[0] {
			t.Error("decoded frame returned its input as its encoding")
		}
		// The body must be independently decodable or rejected, never a
		// panic, for every registered kind.
		if body, ok := NewBody(frame.Kind); ok {
			_ = DecodePlain(frame.Body, body)
		}
	})
}

// fuzzKeyUpdate seeds both fuzzers with the KeyUpdate layout: two
// entries, then the tag.
var fuzzKeyUpdate = KeyUpdate{AreaID: "a", Epoch: 3,
	Entries: []keytree.Entry{
		{Node: 5, Under: 9, Ciphertext: []byte{0xE1}},
		{Node: 0, Under: 0, Ciphertext: []byte{0xE2, 0xE3}},
	},
	Tag: [crypt.MACTagLen]byte{7}}

// FuzzDecodePlain hardens every registered body decoder against hostile
// payloads: arbitrary bytes must return an error or a value that
// re-encodes without panicking, and claimed element counts must never
// out-allocate the input.
func FuzzDecodePlain(f *testing.F) {
	for _, m := range []Marshaler{
		KeyUpdate{AreaID: "a", Epoch: 3},
		fuzzKeyUpdate,
		ACAlive{AreaID: "a", Epoch: 1},
		JoinWelcome{AreaID: "a", TicketBlob: []byte{1}},
		Data{Origin: "m", FromArea: "a", Seq: 2, Cipher: CipherGCM, EncKey: []byte{1}, Payload: []byte{2}},
	} {
		b, err := PlainBody(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte("x"))
	// KeyUpdate-shaped bodies claiming a 2^32-byte area, 2^32 entries,
	// and an entry with a 2^32-byte ciphertext.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	front := codec.AppendUvarint(codec.AppendString(nil, "a"), 1)
	f.Add(bytes.Clone(huge))
	f.Add(append(bytes.Clone(front), huge...))
	f.Add(append(append(bytes.Clone(front), 1, 2, 4), huge...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range liveKinds() {
			body, ok := NewBody(k)
			if !ok {
				t.Fatalf("no registry entry for %v", k)
			}
			if err := DecodePlain(data, body); err != nil {
				continue
			}
			// Accepted payloads must re-encode to the same canonical bytes.
			re, err := PlainBody(body)
			if err != nil {
				t.Fatalf("%v: re-encode: %v", k, err)
			}
			if !bytes.Equal(re, data) {
				t.Errorf("%v: decode/encode not canonical:\n in: %x\nout: %x", k, data, re)
			}
		}
		// The member's in-place read accepts exactly what the copying one does.
		var ref DataRef
		var d Data
		if refErr, err := ReadDataRef(data, &ref), DecodePlain(data, &d); (refErr == nil) != (err == nil) {
			t.Errorf("ReadDataRef (%v) and DecodePlain (%v) disagree on %x", refErr, err, data)
		}
	})
}
