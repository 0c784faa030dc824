// Package analysis is mykil-vet's pass framework: a registry of named
// invariant checks that run over type-checked packages and report
// file:line diagnostics. It is built purely on the standard library
// (go/parser, go/ast, go/types with the source importer) so the repo
// needs no external analysis dependencies.
//
// The checks encode invariants the compiler cannot see but the paper's
// guarantees depend on:
//
//	keyflow         key material and copies of it must not reach logs or error strings (§III)
//	clockdiscipline timers must go through the injected clock.Clock (§IV)
//	wireexhaustive  every wire.Kind is registered, pinned, and dispatched
//	journalorder    mutate → journal → send ordering (§IV crash recovery)
//	errcheck-io     fsync/close/write errors on durability paths are checked
//	obsdiscipline   metrics/tracing follow the repo's observability rules
//	lockorder       no inconsistent mutex acquisition order in the call graph
//	sendlocked      no sends, fsyncs, or blocking channel ops under a mutex
//	guardedby       fields mostly written under a struct's mutex never bare
//
// The last three and keyflow run on a shared module-wide dataflow
// substrate (call graph + per-function lock sets; see program.go).
//
// Diagnostics are suppressed with staticcheck-style directives:
//
//	//lint:ignore <check>[,<check>...] <reason>       (that line or the next)
//	//lint:file-ignore <check>[,<check>...] <reason>  (whole file)
//
// A directive without a reason, or naming an unknown check, is itself a
// diagnostic: suppressions must stay auditable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Check)
}

// Package is one loaded, type-checked package as seen by every check.
type Package struct {
	Fset  *token.FileSet
	Dir   string // absolute directory the package was loaded from
	Path  string // import path within the module
	Name  string // package name
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// TypeOf returns the static type of an expression, or nil.
func (p *Package) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// PkgNameOf resolves an identifier to the import path of the package it
// names, or "" when the identifier is not a package name.
func (p *Package) PkgNameOf(id *ast.Ident) string {
	if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// Pass is the per-(check, package) reporting context handed to Check.Run.
type Pass struct {
	*Package
	// Prog is the module-wide dataflow substrate (call graph, lock sets,
	// taint summaries). It is non-nil only when Run built one — i.e. when
	// an interprocedural check is in the selected set.
	Prog  *Program
	check *Check
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.check.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Check is one registered invariant checker.
type Check struct {
	// Name is the check's registry key, used in -checks and //lint:ignore.
	Name string
	// Doc is a one-paragraph description, shown by mykil-vet -list.
	Doc string
	// Run inspects one package and reports diagnostics through the pass.
	Run func(*Pass)
	// NoSuppressPaths lists import-path suffixes where //lint directives
	// cannot silence this check. Use it for packages where the invariant
	// is load-bearing enough that an inline escape hatch would defeat
	// the point — the diagnostic is reported anyway, annotated with the
	// refusal.
	NoSuppressPaths []string
}

// noSuppressAt reports whether suppressions of this check are refused in
// the package at the given import path.
func (c *Check) noSuppressAt(path string) bool {
	for _, p := range c.NoSuppressPaths {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

var (
	regMu    sync.Mutex
	registry = map[string]*Check{}
)

// Register adds a check to the registry. Duplicate names panic: they are
// programmer error, not input error.
func Register(c *Check) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[c.Name]; dup {
		panic("analysis: duplicate check " + c.Name)
	}
	registry[c.Name] = c
}

// Checks returns every registered check sorted by name.
func Checks() []*Check {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]*Check, 0, len(registry))
	for _, c := range registry {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup resolves a comma-separated check list ("" means all).
func Lookup(names string) ([]*Check, error) {
	if strings.TrimSpace(names) == "" {
		return Checks(), nil
	}
	regMu.Lock()
	defer regMu.Unlock()
	var out []*Check
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		c, ok := registry[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown check %q", n)
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// knownCheck reports whether name is registered; used to validate
// //lint directives.
func knownCheck(name string) bool {
	regMu.Lock()
	defer regMu.Unlock()
	_, ok := registry[name]
	return ok
}

// Run executes the checks over the packages, applies //lint suppressions,
// and returns the surviving diagnostics sorted by position. A directive
// that suppresses nothing is itself reported — suppressions must stay
// live, not fossilize — provided every check it names was in this run's
// set (a narrowed -checks run cannot judge a directive it didn't
// exercise). A directive that matched a diagnostic counts as used even
// when the suppression was refused on a no-suppress path.
func Run(pkgs []*Package, checks []*Check) []Diagnostic {
	byName := make(map[string]*Check, len(checks))
	for _, c := range checks {
		byName[c.Name] = c
	}
	var prog *Program
	if needsProgram(checks) {
		prog = buildProgram(pkgs)
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		dirs, dirDiags := collectDirectives(pkg)
		all = append(all, dirDiags...)
		var pkgDiags []Diagnostic
		for _, c := range checks {
			pass := &Pass{Package: pkg, Prog: prog, check: c, diags: &pkgDiags}
			c.Run(pass)
		}
		for _, d := range pkgDiags {
			if dirs.suppressed(d) {
				c := byName[d.Check]
				if c == nil || !c.noSuppressAt(pkg.Path) {
					continue
				}
				d.Message += fmt.Sprintf(" (//lint suppression refused: %s is a no-suppress path for %s)", pkg.Path, d.Check)
			}
			all = append(all, d)
		}
		all = append(all, dirs.unusedDiags(pkg, byName)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return all
}
