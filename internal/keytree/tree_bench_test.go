package keytree

import (
	"encoding/binary"
	"fmt"
	"testing"

	"mykil/internal/crypt"
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

func BenchmarkMemberViewApply(b *testing.B) {
	t := New(Config{Arity: 2})
	var ms []MemberID
	for i := 0; i < 1024; i++ {
		ms = append(ms, MemberID(fmt.Sprintf("m%d", i)))
	}
	res, err := t.BatchJoin(ms)
	if err != nil {
		b.Fatal(err)
	}
	view := NewMemberView(res.Joined["m7"], res.Epoch, NewSuiteEncryptor(nil))
	// Pre-generate b.N leave updates is too costly; apply one update
	// repeatedly against rewound copies instead.
	leaveRes, err := t.Leave("m900")
	if err != nil {
		b.Fatal(err)
	}
	base := view.PathKeys()
	baseEpoch := res.Epoch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view.Rebase(base, baseEpoch)
		if _, err := view.Apply(leaveRes.Update); err != nil {
			b.Fatal(err)
		}
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
