package keytree

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"mykil/internal/crypt"
	"mykil/internal/wire/codec"
)

// wireFixture is one resident's view just before a real rekey, plus that
// rekey in its AppendEntries encoding.
type wireFixture struct {
	name  string
	enc   Encryptor
	base  PathKeys // the resident's keys before the update
	epoch uint64   // the resident's epoch before the update
	body  []byte   // AppendEntries(update.Entries)
}

func (fx *wireFixture) view() *MemberView { return NewMemberView(fx.base, fx.epoch, fx.enc) }

// wireFixtures returns a join-mode and a leave-mode update for every
// encryptor. Tree keys come from a counter so a fuzz input found against
// one process's fixtures means the same in the next.
var wireFixtures = sync.OnceValue(func() []*wireFixture {
	encs := []Encryptor{AccountingEncryptor{}}
	for _, s := range crypt.Suites() {
		encs = append(encs, NewSuiteEncryptor(s))
	}
	var out []*wireFixture
	for _, enc := range encs {
		for _, leave := range []bool{false, true} {
			tr := New(Config{Encryptor: enc, KeyGen: benchKeyGen()})
			ids := make([]MemberID, 64)
			for i := range ids {
				ids[i] = MemberID(fmt.Sprintf("m%02d", i))
			}
			if err := tr.Preload(ids); err != nil {
				panic(err)
			}
			base, err := tr.PathKeys("m07")
			if err != nil {
				panic(err)
			}
			fx := &wireFixture{name: fmt.Sprintf("%T/leave=%v", enc, leave), enc: enc, base: base, epoch: tr.Epoch()}
			var res *BatchResult
			if leave {
				res, err = tr.BatchLeave([]MemberID{"m06", "m40"}) // m06 is m07's sibling: every key above m07 changes
			} else {
				res, err = tr.Join("newcomer")
			}
			if err != nil {
				panic(err)
			}
			fx.body = AppendEntries(nil, res.Update.Entries)
			out = append(out, fx)
		}
	}
	return out
})

// errClass reduces an apply error to the sentinel callers switch on.
func errClass(err error) error {
	for _, c := range []error{ErrStale, ErrEpochGap, codec.ErrTruncated, codec.ErrLength, codec.ErrTrailing, codec.ErrValue} {
		if errors.Is(err, c) {
			return c
		}
	}
	return err
}

// FuzzApplyWire holds ApplyWire to the materialising path it replaces on
// the receive side: for any bytes and any epoch, ApplyWire and
// ReadEntries+Finish+Apply agree on the error class, the updated count,
// the resulting keys and the epoch; an error leaves keys and epoch
// exactly as they were (a list that is malformed only at its end must not
// have applied its beginning); and the input is never written.
func FuzzApplyWire(f *testing.F) {
	for i, fx := range wireFixtures() {
		next := fx.epoch + 1
		add := func(body []byte) { f.Add(uint8(i), next, body) }
		add(fx.body)
		f.Add(uint8(i), fx.epoch, fx.body)   // stale
		f.Add(uint8(i), next+1, fx.body)     // gap
		f.Add(uint8(i), next+1, fx.body[1:]) // gap and malformed: decode error wins
		for n := 0; n < len(fx.body); n++ {
			add(fx.body[:n])
		}
		add(append(bytes.Clone(fx.body), 0))
		count, rest := fx.body[0], fx.body[1:] // < 0x80: a one-byte uvarint
		add(append([]byte{count + 1}, rest...))
		add(append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}, rest...))
		add(append([]byte{count | 0x80, 0x00}, rest...))              // non-canonical count
		add(append([]byte{count, rest[0] | 0x80, 0x00}, rest[1:]...)) // non-canonical node ID
	}
	f.Fuzz(func(t *testing.T, which uint8, epoch uint64, body []byte) {
		fxs := wireFixtures()
		fx := fxs[int(which)%len(fxs)]
		orig := bytes.Clone(body)

		ref := fx.view()
		r := codec.NewReader(body)
		entries, refErr := ReadEntries(r)
		if refErr == nil {
			refErr = r.Finish()
		}
		var refUpdated int
		if refErr == nil {
			refUpdated, refErr = ref.Apply(&KeyUpdate{Epoch: epoch, Entries: entries})
		}

		v := fx.view()
		updated, err := v.ApplyWire(epoch, codec.NewReader(body))

		if !bytes.Equal(body, orig) {
			t.Fatalf("%s: input modified", fx.name)
		}
		if errClass(err) != errClass(refErr) {
			t.Fatalf("%s: ApplyWire error %v, ReadEntries+Apply error %v", fx.name, err, refErr)
		}
		if updated != refUpdated || v.Epoch() != ref.Epoch() || !slices.Equal(v.PathKeys(), ref.PathKeys()) {
			t.Fatalf("%s: ApplyWire updated %d to epoch %d, ReadEntries+Apply updated %d to epoch %d (or keys differ)",
				fx.name, updated, v.Epoch(), refUpdated, ref.Epoch())
		}
		if err != nil && (updated != 0 || v.Epoch() != fx.epoch || !slices.Equal(v.PathKeys(), fx.base)) {
			t.Fatalf("%s: %v, yet the view moved (updated %d, epoch %d → %d)", fx.name, err, updated, fx.epoch, v.Epoch())
		}
	})
}

// TestApplyWireFixturesChangeKeys keeps the fuzz seeds honest: each real
// update, applied whole, changes at least the resident's area key, so the
// truncated seeds do cut a list whose beginning would have applied.
func TestApplyWireFixturesChangeKeys(t *testing.T) {
	for _, fx := range wireFixtures() {
		v := fx.view()
		updated, err := v.ApplyWire(fx.epoch+1, codec.NewReader(fx.body))
		if err != nil || updated == 0 || v.AreaKey() == fx.base.Root().Key {
			t.Errorf("%s: updated %d, err %v, area key changed %v", fx.name, updated, err, v.AreaKey() != fx.base.Root().Key)
		}
	}
}
