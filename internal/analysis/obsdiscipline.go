package analysis

import (
	"go/ast"
	"go/types"
)

// obsdiscipline guards the observability layer's two invariants. First,
// span timestamps and durations must come from the injected clock.Clock:
// clockdiscipline already bans time.Now in protocol components, but it
// exempts package main, and a daemon hand-rolling a trace attribute from
// time.Since would silently produce spans on a different timeline than
// the clock-driven ones around it. Second, trace attributes must carry
// key *identifiers* — IDs, epochs, LSNs — never key material: trace
// files outlive the rekey epoch and travel further than logs (§III join
// secrecy, same rationale as keyflow, but the sink here is the obs
// package rather than fmt/log).
//
// A call is "into obs" when its callee is a function or method declared
// in a package named obs (the trace attr constructors, Tracer.Step and
// .Event, sink Emits). Unlike clockdiscipline, package main is NOT
// exempt — daemons build spans too.

// obsTimeFuncs are the wall-clock reads that must not appear in span
// construction arguments.
var obsTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
}

func init() {
	Register(&Check{
		Name: "obsdiscipline",
		Doc: "trace/span construction must not read the wall clock (time.Now/time.Since in\n" +
			"arguments to the obs package — use the injected clock.Clock, package main\n" +
			"included) and must not pass key material to trace attributes (record a key ID\n" +
			"or epoch instead; trace files outlive the rekey epoch)",
		Run: runObsDiscipline,
	})
}

func runObsDiscipline(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := obsCallee(p, call)
			if callee == "" {
				return true
			}
			for _, arg := range call.Args {
				checkObsArg(p, callee, arg)
			}
			return true
		})
	}
}

// obsCallee names the callee when the call targets the obs package —
// a package-level function (attr constructors, NewTracer) or a method on
// an obs-declared type (Tracer.Step, Ring.Emit) — and returns "" for
// every other call.
func obsCallee(p *Pass, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		// Unqualified call: only possible inside the obs package itself.
		if obj, ok := p.Info.Uses[fun].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Name() == "obs" {
			return fun.Name
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
				if pn.Imported().Name() == "obs" {
					return "obs." + fun.Sel.Name
				}
				return ""
			}
		}
		if t := p.TypeOf(fun.X); t != nil {
			if named, ok := deref(t).(*types.Named); ok {
				obj := named.Obj()
				if obj.Pkg() != nil && obj.Pkg().Name() == "obs" {
					return obj.Name() + "." + fun.Sel.Name
				}
			}
		}
	}
	return ""
}

// checkObsArg reports wall-clock reads and key material inside one
// argument to an obs call. Nested obs calls (an attr constructor inside
// Tracer.Step's variadic list) are skipped here — the outer Inspect
// visits them on their own, so each violation is reported exactly once,
// against the innermost callee.
func checkObsArg(p *Pass, callee string, arg ast.Expr) {
	ast.Inspect(arg, func(n ast.Node) bool {
		if inner, ok := n.(*ast.CallExpr); ok && obsCallee(p, inner) != "" {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && p.PkgNameOf(id) == "time" && obsTimeFuncs[sel.Sel.Name] {
				p.Reportf(sel.Pos(), "time.%s in an argument to %s: span timestamps must come from the injected clock.Clock", sel.Sel.Name, callee)
			}
		}
		return true
	})
	if isObsCall(p, arg) {
		return
	}
	if expr, name := keyBearer(p, arg); expr != nil {
		p.Reportf(expr.Pos(), "%s carries key material into trace attribute via %s; record a key ID or epoch instead (trace files outlive the rekey epoch)", name, callee)
	}
}

// isObsCall reports whether the expression is itself a call into obs.
func isObsCall(p *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	return ok && obsCallee(p, call) != ""
}
