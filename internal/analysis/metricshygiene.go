package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
)

// MetricsHygieneAnalyzer audits every internal/metrics registration in
// the module:
//
//   - instrument names are compile-time constant snake_case strings
//     (exporters key on them; a typo'd or dynamic name silently forks a
//     series);
//   - the same name is registered from at most one call site, unless
//     every site labels its series (a labeled family like
//     smx_ctas_placed{smx=N} may fan out);
//   - every Counter/Gauge/Histogram handle is actually written (or at
//     least read) somewhere — an instrument that is registered but
//     never touched is a dashboard lie.
//
// CounterFunc/GaugeFunc registrations are snapshot-time collectors and
// exempt from the write check.
func MetricsHygieneAnalyzer() *Analyzer {
	return &Analyzer{
		Name:   "metrics",
		Doc:    "metrics registrations use unique constant snake_case names and every instrument is written",
		Finish: finishMetricsHygiene,
	}
}

// regSite is one registration call site.
type regSite struct {
	pos     token.Pos
	posStr  string
	labeled bool
}

// registryMethods maps registration method name to the index of its
// first label argument.
var registryMethods = map[string]int{
	"Counter": 1, "Gauge": 1, "Histogram": 1,
	"CounterFunc": 2, "GaugeFunc": 2,
}

var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// checkPackage audits one package's registrations and handles, adding
// each constant-named registration site to regs.
func checkPackage(pass *Pass, regs map[string][]regSite) {
	info := pass.Pkg.Info
	// instrument handle object -> first registration position
	handles := map[types.Object]token.Pos{}
	// objects appearing as registration-assignment targets (these uses
	// do not count as "written").
	assignUses := map[*ast.Ident]bool{}

	for _, f := range pass.Pkg.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			method, firstLabel := registryCall(info, call)
			if method == "" {
				return
			}
			name, isConst := constString(info, call.Args[0])
			if !isConst {
				pass.Reportf(call.Args[0].Pos(),
					"metric name passed to Registry.%s must be a compile-time constant string", method)
			} else {
				if !snakeCase.MatchString(name) {
					pass.Reportf(call.Args[0].Pos(),
						"metric name %q is not snake_case ([a-z0-9_], starting with a letter)", name)
				}
				p := pass.Pkg.Fset.Position(call.Pos())
				regs[name] = append(regs[name], regSite{
					pos: call.Pos(),
					// Basename only: this string lands in cross-package
					// duplicate messages and must not vary by checkout path.
					posStr:  fmt.Sprintf("%s:%d:%d", filepath.Base(p.Filename), p.Line, p.Column),
					labeled: len(call.Args) > firstLabel,
				})
			}
			if registryReturnsHandle(method) {
				trackHandle(pass, call, stack, handles, assignUses)
			}
		})
	}

	checkHandlesWritten(pass, handles, assignUses)
}

// registryCall reports the registration method name and first-label
// argument index when call is a method call on *metrics.Registry.
func registryCall(info *types.Info, call *ast.CallExpr) (string, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	firstLabel, ok := registryMethods[sel.Sel.Name]
	if !ok || len(call.Args) < 1 {
		return "", 0
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return "", 0
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Registry" || named.Obj().Pkg() == nil {
		return "", 0
	}
	if !pathWithin("internal/metrics")(named.Obj().Pkg().Path()) {
		return "", 0
	}
	return sel.Sel.Name, firstLabel
}

func registryReturnsHandle(method string) bool {
	return method == "Counter" || method == "Gauge" || method == "Histogram"
}

// constString evaluates an expression to a constant string.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return "", false
	}
	s, err := strconv.Unquote(tv.Value.ExactString())
	if err != nil {
		return tv.Value.String(), true
	}
	return s, true
}

// trackHandle records where the registration's returned handle lands.
// A discarded handle is reported immediately; a handle stored in a
// variable or field is checked for later writes.
func trackHandle(pass *Pass, call *ast.CallExpr, stack []ast.Node, handles map[types.Object]token.Pos, assignUses map[*ast.Ident]bool) {
	info := pass.Pkg.Info
	if len(stack) == 0 {
		return
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(),
			"registered instrument's handle is discarded; it can never be written (assign it, or use the Func variant)")
	case *ast.AssignStmt:
		for i, rhs := range parent.Rhs {
			if ast.Unparen(rhs) != call || i >= len(parent.Lhs) {
				continue
			}
			if obj, id := assignTarget(info, parent.Lhs[i]); obj != nil {
				if _, seen := handles[obj]; !seen {
					handles[obj] = call.Pos()
				}
				if id != nil {
					assignUses[id] = true
				}
			}
		}
	}
}

// assignTarget resolves the object an assignment LHS stores into:
// a plain identifier, a field selector, or the base of an index
// expression (e.g. g.mEnqueues[i]). Returns the ident node whose use
// represents the assignment itself, when there is one.
func assignTarget(info *types.Info, lhs ast.Expr) (types.Object, *ast.Ident) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := info.Defs[l]; obj != nil {
			return obj, nil // := definition; not in Uses
		}
		return info.Uses[l], l
	case *ast.SelectorExpr:
		return info.Uses[l.Sel], l.Sel
	case *ast.IndexExpr:
		return assignTarget(info, l.X)
	}
	return nil, nil
}

// checkHandlesWritten reports instruments whose handle object is never
// referenced outside its registration assignments.
func checkHandlesWritten(pass *Pass, handles map[types.Object]token.Pos, assignUses map[*ast.Ident]bool) {
	if len(handles) == 0 {
		return
	}
	used := map[types.Object]int{}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || assignUses[id] {
				return true
			}
			if obj := pass.Pkg.Info.Uses[id]; obj != nil {
				if _, tracked := handles[obj]; tracked {
					used[obj]++
				}
			}
			return true
		})
	}
	// Deterministic reporting order: sort by registration position.
	var objs []types.Object
	for obj := range handles {
		if used[obj] == 0 {
			objs = append(objs, obj)
		}
	}
	slices.SortFunc(objs, func(a, b types.Object) int { return cmp.Compare(handles[a], handles[b]) })
	for _, obj := range objs {
		pass.Reportf(handles[obj],
			"instrument %s is registered but never written (no Inc/Add/Set/Observe anywhere in the package)",
			obj.Name())
	}
}

// finishMetricsHygiene audits every package of the Run, then detects
// duplicate names across all of them. The name table lives only for
// this call, so one Analyzer value serves any number of Runs.
func finishMetricsHygiene(pass *Pass) {
	regs := map[string][]regSite{}
	for _, pkg := range pass.pkgs {
		checkPackage(pass.on(pkg), regs)
	}
	names := make([]string, 0, len(regs))
	for name := range regs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		sites := regs[name]
		if len(sites) < 2 {
			continue
		}
		allLabeled := true
		for _, s := range sites {
			if !s.labeled {
				allLabeled = false
			}
		}
		if allLabeled {
			continue // labeled family fanned out over several sites
		}
		for _, s := range sites[1:] {
			pass.Reportf(s.pos,
				"metric %q already registered at %s; unlabeled duplicate registrations shadow each other",
				name, sites[0].posStr)
		}
	}
}
