package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// What keyflow (keyflow.go) treats as key material and as a sink; the
// obsdiscipline check shares the same definition of a bearer.
//
// The paper's join and rejoin secrecy (§III) collapses if an area key, an
// auxiliary-tree key, a rekey seed, or K_shared ever reaches a log line
// or an error message: logs outlive the rekey epoch and travel to places
// the group key must never go (LKH and Iolus both inherit this — one
// leaked node key opens every descendant key).
//
// A value "carries key material" when
//   - its static type is a secret type from a package named crypt
//     (SymKey, KeyPair — PublicKey is public by definition), or
//   - it is an identifier or field whose name matches
//     Key|Seed|KShared|Nonce and whose type can actually hold the bytes
//     (string, []byte, [N]byte, or an integer for Nonce counters).
//
// Sinks are the fmt print/error family, the log package (functions and
// Logger methods), errors.New, and any Logf callee — the repo's injected
// logger convention. len() and cap() of a key are allowed: a length
// reveals nothing.

var keyNameRE = regexp.MustCompile(`Key|Seed|KShared|Nonce`)

// fmtSinks are the fmt functions whose arguments end up in human-readable
// output.
var fmtSinks = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Sprint": true, "Sprintf": true, "Sprintln": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Errorf": true, "Appendf": true, "Append": true, "Appendln": true,
}

// leakSink classifies a call as a logging/error sink, returning a
// human-readable sink name or "".
func leakSink(p *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if id, ok := sel.X.(*ast.Ident); ok {
		switch p.PkgNameOf(id) {
		case "fmt":
			if fmtSinks[name] {
				return "fmt." + name
			}
			return ""
		case "log":
			return "log." + name
		case "errors":
			if name == "New" {
				return "errors.New"
			}
			return ""
		}
	}
	// The repo's injected-logger convention: any Logf field or method.
	if name == "Logf" || name == "logf" {
		return name
	}
	// Methods on a *log.Logger value.
	if t := p.TypeOf(sel.X); t != nil {
		if named, ok := deref(t).(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "log" && obj.Name() == "Logger" {
				return "log.Logger." + name
			}
		}
	}
	return ""
}

// keyBearer walks an argument expression looking for a sub-expression
// that carries key material. It does not descend into len/cap (lengths
// are safe) or into non-conversion calls (only the call's result can
// reach the sink).
func keyBearer(p *Pass, arg ast.Expr) (found ast.Expr, name string) {
	ast.Inspect(arg, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				return false
			}
			// Conversions like string(key) still carry the bytes; real
			// calls contribute only their result, checked as a node below.
			if tv, ok := p.Info.Types[call.Fun]; ok && !tv.IsType() {
				if isSecretType(p.TypeOf(call)) {
					found, name = call, exprString(call.Fun)+"(...)"
				}
				return false
			}
		}
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if isSecretType(p.TypeOf(expr)) {
			found, name = expr, exprString(expr)
			return false
		}
		if id := bearerName(expr); id != "" && keyNameRE.MatchString(id) {
			t := p.TypeOf(expr)
			if bytesLike(t) || (strings.Contains(id, "Nonce") && integerLike(t)) {
				found, name = expr, id
				return false
			}
		}
		return true
	})
	return found, name
}

// isSecretType reports whether t is (a pointer to) a secret crypt type.
func isSecretType(t types.Type) bool {
	named, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Name() != "crypt" {
		return false
	}
	switch obj.Name() {
	case "SymKey", "KeyPair":
		return true
	}
	return false
}

// bearerName extracts the name of an identifier or field selector.
func bearerName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// bytesLike reports whether t can hold raw key bytes: string, []byte, or
// [N]byte, through named types.
func bytesLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Slice:
		return isByte(u.Elem())
	case *types.Array:
		return isByte(u.Elem())
	}
	return false
}

func isByte(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func integerLike(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func deref(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// exprString renders a short source form of simple expressions for
// diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.SliceExpr:
		return exprString(e.X) + "[:]"
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	}
	return "expression"
}
