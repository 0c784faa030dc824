package keytree

import (
	"encoding/binary"
	"fmt"
	"testing"

	"mykil/internal/crypt"
	"mykil/internal/wire/codec"
)

// benchKeyGen avoids crypto/rand syscalls in structural benchmarks.
func benchKeyGen() func() crypt.SymKey {
	var ctr uint64
	return func() crypt.SymKey {
		ctr++
		var k crypt.SymKey
		binary.LittleEndian.PutUint64(k[:], ctr)
		return k
	}
}

func benchTree(b *testing.B, n, arity int, enc Encryptor) *Tree {
	b.Helper()
	t := New(Config{Arity: arity, Encryptor: enc, KeyGen: benchKeyGen()})
	ms := make([]MemberID, n)
	for i := range ms {
		ms[i] = MemberID(fmt.Sprintf("m%d", i))
	}
	if err := t.Preload(ms); err != nil {
		b.Fatal(err)
	}
	return t
}

func BenchmarkJoinAccounting(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := benchTree(b, n, DefaultArity, AccountingEncryptor{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := t.Join(MemberID(fmt.Sprintf("j%d", i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLeaveJoinCycleSealed(b *testing.B) {
	// Real AES-wrapped rekeying: the controller's hot path.
	t := benchTree(b, 5000, DefaultArity, NewSuiteEncryptor(nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := MemberID(fmt.Sprintf("m%d", i%5000))
		if _, err := t.Leave(id); err != nil {
			b.Fatal(err)
		}
		if _, err := t.Join(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchLeave10(b *testing.B) {
	t := benchTree(b, 100000, DefaultArity, AccountingEncryptor{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ms []MemberID
		for j := 0; j < 10; j++ {
			ms = append(ms, MemberID(fmt.Sprintf("m%d", (i*10+j)%100000)))
		}
		if _, err := t.BatchLeave(ms); err != nil {
			b.Fatal(err)
		}
		if _, err := t.BatchJoin(ms); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemberViewApply measures one resident consuming one leave
// rekey of a 1,024-member binary tree: "entries" applies the materialised
// update (the send side's and the benchmark walk's form), "wire/<suite>"
// is the receive path — the AppendEntries encoding streamed into the view.
func BenchmarkMemberViewApply(b *testing.B) {
	run := func(b *testing.B, enc Encryptor, apply func(*MemberView, *KeyUpdate, []byte) error) {
		t := New(Config{Arity: 2, Encryptor: enc})
		var ms []MemberID
		for i := 0; i < 1024; i++ {
			ms = append(ms, MemberID(fmt.Sprintf("m%d", i)))
		}
		res, err := t.BatchJoin(ms)
		if err != nil {
			b.Fatal(err)
		}
		view := NewMemberView(res.Joined["m7"], res.Epoch, enc)
		// Pre-generating b.N leave updates is too costly; apply one update
		// repeatedly against rewound copies instead.
		leaveRes, err := t.Leave("m900")
		if err != nil {
			b.Fatal(err)
		}
		body := AppendEntries(nil, leaveRes.Update.Entries)
		base := view.PathKeys()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			view.Rebase(base, res.Epoch)
			if err := apply(view, leaveRes.Update, body); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("entries", func(b *testing.B) {
		run(b, NewSuiteEncryptor(nil), func(v *MemberView, u *KeyUpdate, _ []byte) error {
			_, err := v.Apply(u)
			return err
		})
	})
	for _, s := range crypt.Suites() {
		b.Run("wire/"+s.Name(), func(b *testing.B) {
			run(b, NewSuiteEncryptor(s), func(v *MemberView, u *KeyUpdate, body []byte) error {
				_, err := v.ApplyWire(u.Epoch, codec.NewReader(body))
				return err
			})
		})
	}
}

func BenchmarkPreload100k(b *testing.B) {
	ms := make([]MemberID, 100000)
	for i := range ms {
		ms[i] = MemberID(fmt.Sprintf("m%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := New(Config{Arity: 2, Encryptor: AccountingEncryptor{}, KeyGen: benchKeyGen()})
		if err := t.Preload(ms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotExportImport(b *testing.B) {
	t := benchTree(b, 5000, DefaultArity, AccountingEncryptor{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := t.Export()
		if _, err := Import(snap, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
