package keytree

import (
	"fmt"
	"testing"

	"mykil/internal/wire/codec"
)

// TestCutSiblingScopesShareAPart: one join into a full 64-member, arity-4
// area rekeys the joiner's root path in join mode, one entry per level.
// Off that path nothing changed, so at each level the three siblings of
// the path's node are scopes with the same list — the entries above
// them — and share one part: three parts of three scopes, carrying 3, 2
// and 1 entries, where a per-member cut would have sent 62 bodies.
func TestCutSiblingScopesShareAPart(t *testing.T) {
	tr := New(Config{Encryptor: AccountingEncryptor{}})
	ids := make([]MemberID, 64)
	for i := range ids {
		ids[i] = MemberID(fmt.Sprintf("m%02d", i))
	}
	if err := tr.Preload(ids); err != nil {
		t.Fatal(err)
	}
	res, err := tr.Join("joiner")
	if err != nil {
		t.Fatal(err)
	}
	var receivers []MemberID
	for _, m := range ids {
		if _, moved := res.Displaced[m]; !moved {
			receivers = append(receivers, m)
		}
	}
	var c Cut
	tr.Cut(res.Update, receivers, &c)
	if c.Parts() != 3 {
		t.Fatalf("cut %d entries into %d parts, want 3", len(res.Update.Entries), c.Parts())
	}
	for p := 0; p < c.Parts(); p++ {
		r := codec.NewReader(c.AppendLeaf(nil, p))
		scopes, err := ReadScopes(r)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := ReadEntries(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(scopes) != 3 || len(entries) != 3-p {
			t.Errorf("part %d: %d scopes, %d entries; want 3 scopes, %d entries", p, len(scopes), len(entries), 3-p)
		}
	}
	for i := range receivers {
		if c.Part(i) < 0 {
			t.Fatalf("%s has no part", receivers[i])
		}
	}
	tr.Cut(res.Update, []MemberID{"stranger"}, &c)
	if c.Parts() != 0 || c.Part(0) != -1 {
		t.Fatalf("a receiver outside the tree got part %d of %d", c.Part(0), c.Parts())
	}
}
