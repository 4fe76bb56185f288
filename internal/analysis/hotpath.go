package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAnalyzer polices the per-cycle call trees of the engine.
// Roots are the in-scope functions named Run, Tick, or Cycle plus any
// function marked //spawnvet:hotpath <justification> (an entry point
// reached only through an interface). The analyzer walks the shared
// module call graph (callgraph.go) from them — across packages and
// through method values handed to dispatchers — and, in every in-scope
// function it reaches, flags:
//
//   - fmt formatting calls (Sprintf and friends allocate and reflect);
//   - closure (func literal) allocations;
//   - map allocations (make(map...), map literals) and new(...);
//   - implicit interface conversions (boxing) at call argument
//     positions — the classic container/heap tax;
//   - calls through func-typed struct fields (observability and fault
//     hooks) without a dominating `field != nil` guard;
//   - calls into internal/profile that are not one of its nil-safe,
//     allocation-free accumulators (profileHotCalls): report assembly
//     and serialization belong after the run, never in the tick loop.
//
// Code on cold sub-paths — arguments to panic, expressions inside
// return statements — is exempt: abort and invariant reporting may
// format freely. Everything else needs a //spawnvet:allow hotpath
// directive with a justification. Out-of-scope packages are trusted
// leaves: the walk neither reports nor descends there.
func HotPathAnalyzer() *Analyzer {
	return &Analyzer{
		Name:      "hotpath",
		Doc:       "flag allocations, formatting, boxing, and unguarded hook calls in per-cycle call trees",
		AppliesTo: pathWithin("internal/sim", "internal/profile"),
		Finish:    finishHotPath,
	}
}

// hotRootNames are implicit hot-path roots.
var hotRootNames = map[string]bool{"Run": true, "Tick": true, "Cycle": true}

// profilePkgSuffix identifies the cycle-attribution package in import
// paths (matched by suffix so the rule is module-name agnostic).
const profilePkgSuffix = "internal/profile"

// profileHotCalls are the internal/profile methods sanctioned on the
// per-cycle path: each is nil-receiver-safe and allocation-free (EndTick
// amortizes timeline growth). Everything else in the package — Report,
// New, the writers — is finalization-time API.
var profileHotCalls = map[string]bool{
	"Note": true, "EndTick": true, "SkipTo": true, "SampleDue": true,
	"KernelSite": true, "Finish": true, "Record": true,
}

// fmtFormatting lists the fmt functions that allocate on every call.
var fmtFormatting = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Errorf": true, "Fprintf": true, "Fprint": true, "Fprintln": true,
	"Printf": true, "Print": true, "Println": true, "Appendf": true,
}

// walkHot walks the hot set: every function reachable from the hot-path
// roots of the packages inScope admits (nil admits every package).
func walkHot(g *callGraph, inScope func(string) bool,
	visit func(sum *funcSummary, chain []string),
	deep func(sum *funcSummary, calleePos token.Pos, chain []string)) {

	outOfScope := func(sum *funcSummary) bool { return inScope != nil && !inScope(sum.pkg.Path) }
	roots := g.roots(func(sum *funcSummary) bool {
		return !outOfScope(sum) && (hotRootNames[sum.obj.Name()] || sum.pkg.marked(sum.decl, DirectiveHotPath))
	})
	g.walkFrom(roots, outOfScope, visit, deep)
}

// finishHotPath checks every function of the hot set against its own
// package.
func finishHotPath(pass *Pass) {
	walkHot(pass.callGraph(), pass.Analyzer.AppliesTo,
		func(sum *funcSummary, chain []string) {
			if sum.overflow {
				pass.Reportf(sum.decl.Name.Pos(),
					"%s has more than %d static callees; its hot path is unverifiable (call chain: %s) — split it",
					sum.displayName(), callGraphFanCap, chainText(chain))
			}
			checkHotFunc(pass.on(sum.pkg), sum.decl)
		},
		func(sum *funcSummary, pos token.Pos, chain []string) {
			pass.Reportf(pos,
				"call chain from the hot-path roots exceeds the depth cap (%d) inside %s; deeper callees are unverified (chain: %s)",
				callGraphDepthCap, sum.displayName(), chainText(chain))
		})
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	name := fn.Name.Name
	walkStack(fn.Body, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.FuncLit:
			if !inColdContext(info, stack) {
				pass.Reportf(n.Pos(), "closure allocated in hot path (%s call tree)", name)
			}
		case *ast.CompositeLit:
			if inColdContext(info, stack) {
				return
			}
			if tv, ok := info.Types[n]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map literal allocated in hot path (%s call tree)", name)
				}
			}
		case *ast.CallExpr:
			if inColdContext(info, stack) {
				return
			}
			checkHotCall(pass, name, n, stack)
		}
	})
}

func checkHotCall(pass *Pass, fnName string, call *ast.CallExpr, stack []ast.Node) {
	info := pass.Pkg.Info

	if isBuiltin(info, call, "panic") {
		return // a taken panic is the cold path by definition
	}
	if isBuiltin(info, call, "new") {
		pass.Reportf(call.Pos(), "new(...) allocation in hot path (%s call tree)", fnName)
		return
	}
	if isBuiltin(info, call, "make") && len(call.Args) > 0 {
		if tv, ok := info.Types[call.Args[0]]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				pass.Reportf(call.Pos(), "make(map) allocation in hot path (%s call tree)", fnName)
			}
		}
		return
	}
	if obj := calleeObject(info, call); obj != nil {
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
			if fn.Pkg().Path() == "fmt" && fmtFormatting[fn.Name()] {
				pass.Reportf(call.Pos(), "fmt.%s in hot path (%s call tree); format on abort/error paths only", fn.Name(), fnName)
				return
			}
			// Profile accounting: only the nil-safe accumulators may
			// appear in tick loops. Calls inside internal/profile itself
			// are exempt — its internal helpers are vetted as part of
			// this package's own hot set.
			if fn.Pkg().Path() != pass.Pkg.Types.Path() &&
				pathWithin(profilePkgSuffix)(fn.Pkg().Path()) && !profileHotCalls[fn.Name()] {
				pass.Reportf(call.Pos(),
					"profile.%s in hot path (%s call tree); only nil-safe accumulators (Note, EndTick, SkipTo, SampleDue, KernelSite, Finish, Record) may run per cycle",
					fn.Name(), fnName)
				return
			}
		}
	}

	// Boxing: a concrete argument passed to an interface parameter.
	if tv, ok := info.Types[call.Fun]; ok && !tv.IsType() {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			checkBoxing(pass, fnName, call, sig)
		}
	}

	// Unguarded hook: a call through a func-typed struct field.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if _, isFunc := s.Type().Underlying().(*types.Signature); isFunc {
				selText := exprText(sel)
				if !nilGuarded(call, selText, stack) {
					pass.Reportf(call.Pos(),
						"hook call %s(...) without a %s != nil guard in hot path (%s call tree)",
						selText, selText, fnName)
				}
			}
		}
	}
}

// checkBoxing flags concrete values converted to interface parameters.
func checkBoxing(pass *Pass, fnName string, call *ast.CallExpr, sig *types.Signature) {
	info := pass.Pkg.Info
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || types.IsInterface(at) ||
			types.Identical(at, types.Typ[types.UntypedNil]) || at == types.Typ[types.Invalid] {
			continue
		}
		pass.Reportf(arg.Pos(),
			"implicit conversion of %s to interface %s allocates (boxing) in hot path (%s call tree)",
			types.TypeString(at, types.RelativeTo(pass.Pkg.Types)),
			types.TypeString(pt, types.RelativeTo(pass.Pkg.Types)),
			fnName)
	}
}

// nilGuarded reports whether the hook call is dominated by a nil check
// of the same selector: either an enclosing if-condition, or an earlier
// conjunct of the boolean expression containing the call
// (`f.hook != nil && f.hook(x)`).
func nilGuarded(call *ast.CallExpr, selText string, stack []ast.Node) bool {
	var child ast.Node = call
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.BinaryExpr:
			if anc.Op.String() == "&&" && anc.Y == child && containsNilCheck(anc.X, selText) {
				return true
			}
		case *ast.IfStmt:
			if anc.Body == child || containsBody(anc.Body, call) {
				if containsNilCheck(anc.Cond, selText) {
					return true
				}
			}
		case *ast.FuncLit:
			// A guard outside the closure does not dominate calls inside
			// it at a later time.
			return false
		}
		child = stack[i]
	}
	return false
}

// containsBody reports whether node n lies within block b.
func containsBody(b *ast.BlockStmt, n ast.Node) bool {
	return b.Pos() <= n.Pos() && n.End() <= b.End()
}
