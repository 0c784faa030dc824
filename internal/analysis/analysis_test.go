package analysis_test

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mykil/internal/analysis"
)

// sharedLoader caches one Loader across every test in the package, so the
// standard library is type-checked from source once, not per fixture.
var (
	loaderOnce sync.Once
	loader     *analysis.Loader
	loaderErr  error
)

func getLoader(t *testing.T) *analysis.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = analysis.NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

func loadFixture(t *testing.T, rel string) *analysis.Package {
	t.Helper()
	pkg, err := getLoader(t).Load(filepath.Join("testdata", "src", rel))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", rel, err)
	}
	return pkg
}

// expectation is one `// want "substring"` comment from a fixture.
type expectation struct {
	file    string
	line    int
	substr  string
	matched bool
}

var (
	wantRE   = regexp.MustCompile(`//\s*want\s+(".*)$`)
	quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

// collectWants extracts expectations from a fixture package's comments.
func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
					s, err := strconv.Unquote(`"` + q[1] + `"`)
					if err != nil {
						t.Fatalf("%s:%d: bad want string %q: %v", pos.Filename, pos.Line, q[1], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, substr: s})
				}
			}
		}
	}
	return wants
}

// checkFixture runs every registered check over the fixture and compares
// the surviving diagnostics against its want comments, both directions.
func checkFixture(t *testing.T, rel string) {
	t.Helper()
	pkg := loadFixture(t, rel)
	wants := collectWants(t, pkg)
	diags := analysis.Run([]*analysis.Package{pkg}, analysis.Checks())

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %q, got no matching diagnostic", w.file, w.line, w.substr)
		}
	}
}

// TestFixtures drives the want-comment harness over one fixture package
// per check, plus the suppression fixtures.
func TestFixtures(t *testing.T) {
	fixtures := []string{
		"clockfix",
		"keyleakfix",
		"obsfix",
		"cryptfix",
		"wireswitch",
		"regress/internal/wire",
		"journalorderfix",
		"errcheckiofix",
		"lockorderfix",
		"sendlockedfix",
		"guardedbyfix",
		"keyflowfix",
		"jfsyncfix",
		"suppressfix",
		"fileignorefix",
		"strictpaths/internal/member",
		"strictpaths/internal/replica",
	}
	for _, rel := range fixtures {
		t.Run(strings.ReplaceAll(rel, "/", "_"), func(t *testing.T) {
			checkFixture(t, rel)
		})
	}
}

// TestMalformedDirectives asserts the lint-directive pseudo-check: a
// directive missing its reason, naming an unknown check, or naming no
// check at all is reported, and none of them suppress anything. The
// expectations live here rather than in want comments because a trailing
// comment on a directive line would parse as its reason.
func TestMalformedDirectives(t *testing.T) {
	pkg := loadFixture(t, "baddirectives")
	diags := analysis.Run([]*analysis.Package{pkg}, analysis.Checks())

	wantSubstrs := []string{
		`missing a reason`,
		`unknown check "nosuchcheck"`,
		`names no check`,
		`direct time.Now`, // the malformed directives suppress nothing
	}
	for _, substr := range wantSubstrs {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q; got %d diagnostics:\n%s", substr, len(diags), diagList(diags))
		}
	}
	if len(diags) != len(wantSubstrs) {
		t.Errorf("got %d diagnostics, want %d:\n%s", len(diags), len(wantSubstrs), diagList(diags))
	}
	for _, d := range diags {
		if d.Check == "lint-directive" || d.Check == "clockdiscipline" {
			continue
		}
		t.Errorf("diagnostic under unexpected check %q: %s", d.Check, d)
	}
}

// TestLookup covers the -checks flag resolution.
func TestLookup(t *testing.T) {
	all, err := analysis.Lookup("")
	if err != nil {
		t.Fatalf("Lookup(\"\"): %v", err)
	}
	if len(all) != 9 {
		t.Fatalf("Lookup(\"\") returned %d checks, want 9", len(all))
	}
	two, err := analysis.Lookup("keyflow, clockdiscipline")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if len(two) != 2 || two[0].Name != "clockdiscipline" || two[1].Name != "keyflow" {
		t.Fatalf("Lookup returned %v, want [clockdiscipline keyflow]", checkNames(two))
	}
	if _, err := analysis.Lookup("bogus"); err == nil {
		t.Fatal("Lookup(\"bogus\") did not fail")
	}
}

// TestSelectedChecksOnly verifies Run honors the check subset: with only
// errcheck-io selected, clockfix's violations go unreported.
func TestSelectedChecksOnly(t *testing.T) {
	pkg := loadFixture(t, "clockfix")
	only, err := analysis.Lookup("errcheck-io")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if diags := analysis.Run([]*analysis.Package{pkg}, only); len(diags) != 0 {
		t.Errorf("errcheck-io reported %d diagnostics on clockfix:\n%s", len(diags), diagList(diags))
	}
}

func checkNames(cs []*analysis.Check) []string {
	var out []string
	for _, c := range cs {
		out = append(out, c.Name)
	}
	return out
}

func diagList(diags []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
