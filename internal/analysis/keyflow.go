package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// keyflow finds key material reaching a logging or error-string sink
// (keymaterial.go defines both). The zero-step case is a bearer written
// straight into the sink call — `log(key)`. Beyond it the check taints
// values *derived* from key material — a key copied into a plain []byte,
// converted to string, sliced, appended, concatenated, or passed through
// one level of calls — so it also sees `k := string(key[:]); log(k)` and
// `logBuf(key[:])` where logBuf prints its argument.
//
// Mechanics: a flow-insensitive-across-branches, source-order walk per
// function keeps a taint map from objects to origins. Sources are the
// bearers (secret crypt types, Key/Seed/KShared/Nonce names);
// assignment, conversion, slicing, indexing, append, copy, and string
// concatenation propagate; len/cap and non-bytes results kill. Each
// function also gets a call summary — which byte-like parameters reach a
// sink inside it, which parameters flow to its results, and whether it
// returns secret-derived bytes — consulted exactly one call level deep
// at reporting time (summaries themselves are purely intraprocedural,
// so their content cannot depend on computation order).
//
// Known holes, accepted for precision: struct-field stores, channel
// transport, and chains deeper than one call are not tracked. A function
// literal is walked as its own timeline: bearers and values derived
// inside it are seen, taint on a captured variable is not.

func init() {
	Register(&Check{
		Name: "keyflow",
		Doc: "key material (crypt.SymKey/KeyPair values, fields named Key/Seed/KShared/Nonce)\n" +
			"and values derived from it (copies, conversions, slices, one call level of\n" +
			"returns and parameters) must not reach fmt print functions, the log package,\n" +
			"errors.New, or Logf callees — logs outlive the rekey epoch (§III join secrecy)",
		Run: runKeyFlow,
	})
}

func runKeyFlow(p *Pass) {
	prog := p.Prog
	if prog == nil {
		return
	}
	sums := prog.taintSummaries()
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					computeTaint(p, prog, d.Type.Params, d.Body, sums, p.Reportf)
				}
			case *ast.GenDecl: // package-level initializers
				newTaintWalker(p, prog, sums, p.Reportf).checkCalls(d)
			}
		}
	}
}

// taintSummaries computes every function's intraprocedural summary once
// per Program.
func (prog *Program) taintSummaries() map[string]*taintSummary {
	if prog.taint != nil {
		return prog.taint
	}
	prog.taint = map[string]*taintSummary{}
	for key, pf := range prog.funcs {
		fd, ok := pf.decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		prog.taint[key] = computeTaint(&Pass{Package: pf.pkg}, prog, fd.Type.Params, fd.Body, nil, nil)
	}
	return prog.taint
}

// taintOrigin says where a tainted value's key material came from.
type taintOrigin struct {
	desc  string
	pos   token.Pos
	param int // -1 for a real source; else the parameter index coloring
}

// taintSummary is one function's interprocedural interface.
type taintSummary struct {
	sinkParams    map[int]string // parameter index -> sink it reaches inside
	returnTaint   map[int]bool   // parameter index -> flows to a result
	returnsSecret bool           // some result derives from a real source
	secretDesc    string
}

// taintWalker threads the per-function taint state.
type taintWalker struct {
	p    *Pass
	prog *Program
	sums map[string]*taintSummary // nil while summaries are being built
	tt   map[types.Object]taintOrigin
	sum  *taintSummary
	rep  func(pos token.Pos, format string, args ...any) // nil when summarizing
}

func newTaintWalker(p *Pass, prog *Program, sums map[string]*taintSummary, rep func(token.Pos, string, ...any)) *taintWalker {
	return &taintWalker{
		p:    p,
		prog: prog,
		sums: sums,
		tt:   map[types.Object]taintOrigin{},
		sum: &taintSummary{
			sinkParams:  map[int]string{},
			returnTaint: map[int]bool{},
		},
		rep: rep,
	}
}

// computeTaint walks one function body. With sums/rep nil it only builds
// the summary; with both set it also consults callee summaries and
// reports leaks.
func computeTaint(p *Pass, prog *Program, params *ast.FieldList, body *ast.BlockStmt, sums map[string]*taintSummary, rep func(token.Pos, string, ...any)) *taintSummary {
	tw := newTaintWalker(p, prog, sums, rep)
	idx := 0
	if params != nil {
		for _, field := range params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil && bytesLike(obj.Type()) {
					tw.tt[obj] = taintOrigin{desc: "parameter " + name.Name, pos: name.Pos(), param: idx}
				}
				idx++
			}
		}
	}
	tw.stmts(body.List)
	return tw.sum
}

// stmts walks statements in source order. Branch bodies share one taint
// map (a taint set in any branch survives; a strong untaint in one
// branch is optimistic — documented in DESIGN §14).
func (tw *taintWalker) stmts(list []ast.Stmt) {
	for _, stmt := range list {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			tw.checkCalls(s)
			tw.assign(s)
		case *ast.DeclStmt:
			tw.checkCalls(s)
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						tw.valueSpec(vs)
					}
				}
			}
		case *ast.ReturnStmt:
			tw.checkCalls(s)
			tw.returns(s)
		case *ast.IfStmt:
			if s.Init != nil {
				tw.stmts([]ast.Stmt{s.Init})
			}
			tw.checkCalls(s.Cond)
			tw.stmts(s.Body.List)
			if s.Else != nil {
				tw.stmts([]ast.Stmt{s.Else})
			}
		case *ast.ForStmt:
			if s.Init != nil {
				tw.stmts([]ast.Stmt{s.Init})
			}
			tw.checkCalls(s.Cond)
			tw.stmts(s.Body.List)
			if s.Post != nil {
				tw.stmts([]ast.Stmt{s.Post})
			}
		case *ast.RangeStmt:
			tw.checkCalls(s.X)
			if o, ok := tw.exprTaint(s.X); ok {
				tw.setLHS(s.Key, o, true, true)
				tw.setLHS(s.Value, o, true, true)
			}
			tw.stmts(s.Body.List)
		case *ast.SwitchStmt:
			if s.Init != nil {
				tw.stmts([]ast.Stmt{s.Init})
			}
			tw.checkCalls(s.Tag)
			for _, cs := range s.Body.List {
				if cc, ok := cs.(*ast.CaseClause); ok {
					tw.stmts(cc.Body)
				}
			}
		case *ast.TypeSwitchStmt:
			if s.Init != nil {
				tw.stmts([]ast.Stmt{s.Init})
			}
			for _, cs := range s.Body.List {
				if cc, ok := cs.(*ast.CaseClause); ok {
					tw.stmts(cc.Body)
				}
			}
		case *ast.SelectStmt:
			for _, cs := range s.Body.List {
				if cc, ok := cs.(*ast.CommClause); ok {
					if cc.Comm != nil {
						tw.stmts([]ast.Stmt{cc.Comm})
					}
					tw.stmts(cc.Body)
				}
			}
		case *ast.BlockStmt:
			tw.stmts(s.List)
		case *ast.LabeledStmt:
			tw.stmts([]ast.Stmt{s.Stmt})
		case *ast.ExprStmt:
			tw.checkCalls(s)
			tw.builtinCopy(s)
		default:
			tw.checkCalls(stmt)
		}
	}
}

// assign propagates through `lhs = rhs` with strong updates for plain
// assignment and additive updates for op-assign (s += derived).
func (tw *taintWalker) assign(s *ast.AssignStmt) {
	strong := s.Tok == token.ASSIGN || s.Tok == token.DEFINE
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			o, ok := tw.exprTaint(s.Rhs[i])
			tw.setLHS(s.Lhs[i], o, ok, strong)
		}
		return
	}
	if len(s.Rhs) == 1 {
		o, ok := tw.exprTaint(s.Rhs[0])
		for _, l := range s.Lhs {
			tw.setLHS(l, o, ok, strong)
		}
	}
}

func (tw *taintWalker) valueSpec(vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		var rhs ast.Expr
		switch {
		case len(vs.Values) == len(vs.Names):
			rhs = vs.Values[i]
		case len(vs.Values) == 1:
			rhs = vs.Values[0]
		}
		if rhs == nil {
			continue
		}
		o, ok := tw.exprTaint(rhs)
		tw.setLHS(name, o, ok, true)
	}
}

// setLHS applies one assignment target: taint on a tainted source,
// untaint on a clean strong update. Only plain identifiers are tracked,
// and only values whose type can actually hold the bytes (the bytesLike
// rule) ever carry taint — an integer fingerprint or a length
// derived from a key is the recommended remedy, not a leak.
func (tw *taintWalker) setLHS(l ast.Expr, o taintOrigin, tainted, strong bool) {
	id, isID := l.(*ast.Ident)
	if !isID || id.Name == "_" {
		return
	}
	obj := tw.objOf(id)
	if obj == nil {
		return
	}
	switch {
	case tainted && (bytesLike(obj.Type()) || isSecretType(obj.Type())):
		tw.tt[obj] = o
	case strong:
		delete(tw.tt, obj)
	}
}

// builtinCopy handles `copy(dst, src)` as an assignment edge.
func (tw *taintWalker) builtinCopy(s *ast.ExprStmt) {
	call, ok := s.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "copy" {
		return
	}
	if o, ok := tw.exprTaint(call.Args[1]); ok {
		tw.setLHS(call.Args[0], o, true, false)
	}
}

// returns records summary facts at a return statement; derived (taint
// map) origins win over name-based bearers so `return key` on a
// parameter records a parameter flow, not a fresh secret.
func (tw *taintWalker) returns(s *ast.ReturnStmt) {
	for _, res := range s.Results {
		o, ok := tw.derivedTaint(res)
		if !ok {
			if b, name := keyBearer(tw.p, res); b != nil {
				o, ok = taintOrigin{desc: name, pos: b.Pos(), param: -1}, true
			}
		}
		if !ok {
			continue
		}
		if o.param >= 0 {
			tw.sum.returnTaint[o.param] = true
		} else if !tw.sum.returnsSecret {
			tw.sum.returnsSecret = true
			tw.sum.secretDesc = o.desc
		}
	}
}

// checkCalls inspects a subtree for sink calls and summary-known callees.
func (tw *taintWalker) checkCalls(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok {
			if tw.rep != nil { // a literal has no symbol, so no summary to build
				computeTaint(tw.p, tw.prog, lit.Type.Params, lit.Body, tw.sums, tw.rep)
			}
			return false
		}
		if call, ok := node.(*ast.CallExpr); ok {
			tw.checkCall(call)
		}
		return true
	})
}

// checkCall reports a bearer or derived taint reaching a direct sink,
// records parameter-colored taint on the summary, and applies callee
// summaries one level deep.
func (tw *taintWalker) checkCall(call *ast.CallExpr) {
	if sink := leakSink(tw.p, call); sink != "" {
		for _, arg := range call.Args {
			if b, name := keyBearer(tw.p, arg); b != nil {
				if tw.rep != nil {
					tw.rep(b.Pos(), "%s carries key material into %s; log a length or fingerprint instead (§III join/rejoin secrecy)", name, sink)
				}
				continue
			}
			o, ok := tw.derivedTaint(arg)
			if !ok {
				continue
			}
			if o.param >= 0 {
				if _, dup := tw.sum.sinkParams[o.param]; !dup {
					tw.sum.sinkParams[o.param] = sink
				}
				continue
			}
			if tw.rep != nil {
				tw.rep(arg.Pos(), "%s carries key material copied from %s into %s; log a length or fingerprint instead (§III join/rejoin secrecy)",
					exprString(arg), o.desc, sink)
			}
		}
		return
	}
	if tw.sums == nil || tw.rep == nil {
		return
	}
	key := calleeKey(tw.p, call)
	if key == "" {
		return
	}
	cs := tw.sums[key]
	if cs == nil || len(cs.sinkParams) == 0 {
		return
	}
	callee := tw.prog.funcs[key]
	if callee == nil {
		return
	}
	for i, arg := range call.Args {
		sink, hot := cs.sinkParams[i]
		if !hot {
			continue
		}
		if b, name := keyBearer(tw.p, arg); b != nil {
			tw.rep(arg.Pos(), "%s flows into %s, whose parameter reaches %s; log a length or fingerprint instead (§III join/rejoin secrecy)",
				name, callee.display, sink)
			continue
		}
		if o, ok := tw.derivedTaint(arg); ok && o.param < 0 {
			tw.rep(arg.Pos(), "value derived from %s flows into %s, whose parameter reaches %s; log a length or fingerprint instead (§III join/rejoin secrecy)",
				o.desc, callee.display, sink)
		}
	}
}

// exprTaint reports whether e carries key material: a direct bearer or
// a derived value from the taint map.
func (tw *taintWalker) exprTaint(e ast.Expr) (taintOrigin, bool) {
	if b, name := keyBearer(tw.p, e); b != nil {
		return taintOrigin{desc: name, pos: b.Pos(), param: -1}, true
	}
	return tw.derivedTaint(e)
}

// derivedTaint finds taint through the propagation grammar only.
func (tw *taintWalker) derivedTaint(e ast.Expr) (taintOrigin, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := tw.objOf(x); obj != nil {
			if o, ok := tw.tt[obj]; ok {
				return o, true
			}
		}
	case *ast.ParenExpr:
		return tw.derivedTaint(x.X)
	case *ast.StarExpr:
		return tw.derivedTaint(x.X)
	case *ast.UnaryExpr:
		return tw.derivedTaint(x.X)
	case *ast.SliceExpr:
		return tw.derivedTaint(x.X)
	case *ast.IndexExpr:
		return tw.derivedTaint(x.X)
	case *ast.BinaryExpr:
		// Only byte-carrying results (string concatenation) propagate;
		// comparisons and arithmetic reveal no key bytes.
		if !bytesLike(tw.p.TypeOf(e)) {
			return taintOrigin{}, false
		}
		if o, ok := tw.derivedTaint(x.X); ok {
			return o, true
		}
		return tw.derivedTaint(x.Y)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if o, ok := tw.derivedTaint(el); ok {
				return o, true
			}
		}
	case *ast.CallExpr:
		return tw.callTaint(x)
	}
	return taintOrigin{}, false
}

// callTaint handles conversions, append, and one level of callee return
// summaries.
func (tw *taintWalker) callTaint(call *ast.CallExpr) (taintOrigin, bool) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "len", "cap", "make", "new":
			return taintOrigin{}, false
		case "append":
			for _, a := range call.Args {
				if o, ok := tw.exprTaint(a); ok {
					return o, true
				}
			}
			return taintOrigin{}, false
		}
	}
	if tv, ok := tw.p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return tw.exprTaint(call.Args[0])
		}
		return taintOrigin{}, false
	}
	// The crypt.Suite datapath (calleeKey sees only "" for its interface
	// calls, so the summary machinery is blind here): Open and OpenTo
	// return the decrypted plaintext — in this codebase a key-tree node
	// key or a data key, so the result is a fresh source. Seal returns
	// ciphertext, public by construction, so its result kills taint even
	// when the plaintext argument was a key. SealTo appends ciphertext
	// to dst, so its result carries exactly dst's prior taint.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isSuiteValue(tw.p.TypeOf(sel.X)) {
		switch sel.Sel.Name {
		case "Open", "OpenTo":
			return taintOrigin{desc: exprString(call.Fun) + " (suite-decrypted bytes)", pos: call.Pos(), param: -1}, true
		case "Seal":
			return taintOrigin{}, false
		case "SealTo":
			if len(call.Args) > 0 {
				return tw.exprTaint(call.Args[0])
			}
			return taintOrigin{}, false
		}
	}
	if tw.sums == nil {
		return taintOrigin{}, false
	}
	key := calleeKey(tw.p, call)
	if key == "" {
		return taintOrigin{}, false
	}
	cs := tw.sums[key]
	if cs == nil {
		return taintOrigin{}, false
	}
	if cs.returnsSecret {
		callee := tw.prog.funcs[key]
		disp := key
		if callee != nil {
			disp = callee.display
		}
		return taintOrigin{desc: disp + " (returns bytes of " + cs.secretDesc + ")", pos: call.Pos(), param: -1}, true
	}
	for i, a := range call.Args {
		if i < len(call.Args) && cs.returnTaint[i] {
			if o, ok := tw.exprTaint(a); ok {
				return o, true
			}
		}
	}
	return taintOrigin{}, false
}

func (tw *taintWalker) objOf(id *ast.Ident) types.Object {
	if obj := tw.p.Info.Uses[id]; obj != nil {
		return obj
	}
	return tw.p.Info.Defs[id]
}

// isSuiteValue reports whether t is the crypt.Suite cipher-suite
// interface, or any type whose method set carries the suite triple
// (Seal, SealTo, Open). The shape test lets the check recognize the
// concrete suites and fixture stand-ins without importing crypt;
// requiring all three names keeps cipher.AEAD (Seal/Open, no SealTo)
// out.
func isSuiteValue(t types.Type) bool {
	if t == nil {
		return false
	}
	d := deref(t)
	if named, ok := d.(*types.Named); ok {
		if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Name() == "crypt" && obj.Name() == "Suite" {
			return true
		}
	}
	mt := t
	if _, isIface := d.Underlying().(*types.Interface); !isIface {
		if _, isPtr := t.(*types.Pointer); !isPtr {
			mt = types.NewPointer(t) // include pointer-receiver methods
		}
	}
	found := 0
	ms := types.NewMethodSet(mt)
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Seal", "SealTo", "Open":
			found++
		}
	}
	return found == 3
}
