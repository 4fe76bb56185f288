package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the interprocedural layer the purity, skipsafe,
// clockstep, and hotpath analyzers share: one module-wide call graph
// per Run invocation (Pass.callGraph), built from one bottom-up
// funcSummary per function declaration. A summary records every direct
// effect the contracts care about plus the static callee edges; each
// analyzer then picks its roots, its trusted leaves, and what it
// reports, and walks the graph from there, attributing each function's
// findings to the call chain that first reaches it.
//
// The engine mirrors the intraprocedural dataflow engine's design
// choices (dataflow.go): it is deliberately over-approximate in the
// safe direction, capped so pathological graphs stay cheap, and opaque
// at boundaries it cannot see through. Concretely:
//
//   - a named function or method referenced as a value (a method value
//     handed to a dispatcher) is an edge, like a call;
//   - dynamic dispatch (interface methods, closures held in variables,
//     func-typed fields) is an opaque boundary assumed to honor the
//     contract of its declaration site — the callee cannot be resolved
//     statically;
//   - out-of-module callees carry no summary; they are classified by
//     the external-call tables (ambient I/O packages, PureFuncs)
//     instead of traversed;
//   - exceeding the caps degrades to an explicit "unverifiable"
//     diagnostic, never to silent trust.
const (
	// callGraphDepthCap bounds root-to-leaf chain length during
	// traversal; deeper chains report as unverifiable.
	callGraphDepthCap = 64
	// callGraphFanCap bounds the static callee edges recorded per
	// function; a function exceeding it is summarized as unverifiable.
	callGraphFanCap = 128
)

// effectKind classifies one direct effect recorded in a summary.
type effectKind uint8

const (
	// effectGlobalWrite: an assignment whose target is a package-level
	// variable, or a local the dataflow engine traces back to one.
	effectGlobalWrite effectKind = iota
	// effectAmbientIO: a call into the ambient-I/O surface of the
	// standard library (os, net, wall clock, global rand, console fmt).
	effectAmbientIO
	// effectStateWrite: a write through a pointer-shaped parameter or
	// receiver — caller-visible mutation (skipsafe is stricter than
	// purity: even receiver state must stay frozen while the engine
	// fast-forwards).
	effectStateWrite
	// effectSpawn / effectSend: goroutine launch and channel send —
	// externally observable scheduling effects (skipsafe).
	effectSpawn
	effectSend
)

// effect is one direct contract violation found in a function body.
type effect struct {
	kind effectKind
	pos  token.Pos
	// what names the offender: the written variable, the ambient callee.
	what string
	// leak names the pointer-shaped parameter whose memory a direct
	// package-level write retains — caller memory escaping into state
	// that outlives the call ("" when none).
	leak string
}

// funcSummary is the bottom-up summary of one function declaration.
type funcSummary struct {
	obj  *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	// flows is the dataflow cache of pkg, shared by every summary of the
	// package and by the analyzers' own origin queries.
	flows *flowCache

	// effects are the function's direct effects, in source order.
	// Effects inside nested function literals are attributed to the
	// declaration (over-approximation: the literal may run whenever the
	// function does).
	effects []effect
	// callees are the module-resolvable static edges (calls and function
	// references), deduplicated in first-reference order; calleePos holds
	// the first reference site of each.
	callees   []*types.Func
	calleePos map[*types.Func]token.Pos
	// overflow marks callee fan-cap exhaustion: the summary is
	// incomplete and the function must report as unverifiable.
	overflow bool
}

// addCallee records one static call edge, deduplicated, fan-capped.
func (s *funcSummary) addCallee(fn *types.Func, pos token.Pos) {
	if s.overflow {
		return
	}
	if _, seen := s.calleePos[fn]; seen {
		return
	}
	if len(s.callees) >= callGraphFanCap {
		s.overflow = true
		return
	}
	s.calleePos[fn] = pos
	s.callees = append(s.callees, fn)
}

// displayName renders a function for call-chain diagnostics:
// pkg.Name for functions, pkg.(Recv).Name for methods.
func (s *funcSummary) displayName() string {
	name := s.obj.Name()
	pkg := ""
	if s.obj.Pkg() != nil {
		pkg = s.obj.Pkg().Name() + "."
	}
	if s.decl.Recv != nil && len(s.decl.Recv.List) > 0 {
		if rt := recvTypeName(s.decl); rt != "" {
			return pkg + "(" + rt + ")." + name
		}
	}
	return pkg + name
}

// recvTypeName unwraps a method receiver to its named type.
func recvTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// callGraph holds the summaries of every function declaration in one
// Run invocation.
type callGraph struct {
	sums map[*types.Func]*funcSummary
	// order preserves collection order (package load order, then file
	// and declaration order) so traversal and reporting stay
	// deterministic without sorting on synthesized names.
	order []*types.Func
}

// newCallGraph is the collector: one summary per function declaration
// with a body, across every package.
func newCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{sums: map[*types.Func]*funcSummary{}}
	for _, pkg := range pkgs {
		flows := newFlowCache(pkg.Info)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || g.sums[obj] != nil {
					continue
				}
				sum := &funcSummary{obj: obj, decl: fd, pkg: pkg, flows: flows,
					calleePos: map[*types.Func]token.Pos{}}
				sum.scan()
				g.sums[obj] = sum
				g.order = append(g.order, obj)
			}
		}
	}
	return g
}

// scan records the summary's direct effects and static call edges.
// Every identifier that resolves to a function is an edge, whether it
// is called or passed as a value (g.gmu.Dispatch(now, g.place) reaches
// place); a call's edge is recorded at the call, before its operands.
// Ambient effects are recorded only for real calls, at the call.
// Builtins, conversions, func-typed values, and interface methods are
// opaque.
func (s *funcSummary) scan() {
	walkStack(s.decl, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn, ok := calleeObject(s.pkg.Info, n).(*types.Func); ok {
				s.reference(fn, n.Pos(), true)
			}
		case *ast.Ident:
			if fn, ok := s.pkg.Info.Uses[n].(*types.Func); ok {
				s.reference(fn, n.Pos(), false)
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Lhs) == len(n.Rhs) {
					rhs = n.Rhs[i]
				}
				s.recordWrite(stack, lhs, rhs)
			}
		case *ast.IncDecStmt:
			s.recordWrite(stack, n.X, nil)
		case *ast.GoStmt:
			s.effects = append(s.effects, effect{kind: effectSpawn, pos: n.Pos()})
		case *ast.SendStmt:
			s.effects = append(s.effects, effect{kind: effectSend, pos: n.Pos()})
		}
	})
}

// reference classifies one reference to fn: pure-registry skip, ambient
// effect (calls only), or call-graph edge.
func (s *funcSummary) reference(fn *types.Func, pos token.Pos, call bool) {
	switch {
	case fn.Pkg() == nil || PureFuncs[fn.FullName()]:
	case ambientCall(fn):
		if call {
			s.effects = append(s.effects, effect{kind: effectAmbientIO, pos: pos, what: fn.FullName()})
		}
	default:
		s.addCallee(fn, pos)
	}
}

// recordWrite classifies one assignment target. A package-level target
// is a global write outright (retaining rhs's pointer-shaped parameter
// memory, when it does). An indirect write through a reference-shaped
// local is a global write when the local's origins include
// package-level state, and a state write when they include a
// pointer-shaped parameter or receiver. Frame-local scratch is no
// effect.
func (s *funcSummary) recordWrite(stack []ast.Node, lhs, rhs ast.Expr) {
	base, hadStar, wrapped := writeBase(lhs)
	if base == nil || base.Name == "_" {
		return
	}
	v, ok := objOf(s.pkg.Info, base).(*types.Var)
	if !ok || v.IsField() {
		return
	}
	flow := s.flows.at(stack)
	if isPackageLevel(v) {
		eff := effect{kind: effectGlobalWrite, pos: lhs.Pos(), what: "package-level variable " + v.Name()}
		if p := leakedParam(flow, rhs); p != nil {
			eff.leak = p.Name()
		}
		s.effects = append(s.effects, eff)
		return
	}
	if !wrapped || (!hadStar && !refShaped(v.Type())) || flow == nil {
		// Writing a local itself, or an element of a local value copy,
		// stays inside the frame.
		return
	}
	global, state := false, false
	for _, o := range flow.originsOf(base) {
		switch {
		case o.Kind == OriginGlobal && !global:
			global = true
			alias := exprText(o.Expr)
			if o.Obj != nil {
				alias = o.Obj.Name()
			}
			s.effects = append(s.effects, effect{kind: effectGlobalWrite, pos: lhs.Pos(),
				what: "package-level state through " + base.Name + " (aliasing " + alias + ")"})
		case o.Kind == OriginParam && !state:
			if p, ok := o.Obj.(*types.Var); ok && refShaped(p.Type()) {
				state = true
				s.effects = append(s.effects, effect{kind: effectStateWrite, pos: lhs.Pos(),
					what: exprText(lhs) + " (caller-visible through " + p.Name() + ")"})
			}
		}
	}
}

// leakedParam returns the pointer-shaped parameter whose memory rhs
// retains, or nil.
func leakedParam(flow *funcFlow, rhs ast.Expr) *types.Var {
	if flow == nil || rhs == nil {
		return nil
	}
	for _, o := range flow.originsOf(rhs) {
		if o.Kind != OriginParam || o.Obj == nil {
			continue
		}
		if p, ok := o.Obj.(*types.Var); ok && refShaped(p.Type()) {
			return p
		}
	}
	return nil
}

// roots returns the summaries matching isRoot, in collection order.
func (g *callGraph) roots(isRoot func(*funcSummary) bool) []*types.Func {
	var out []*types.Func
	for _, fn := range g.order {
		if isRoot(g.sums[fn]) {
			out = append(out, fn)
		}
	}
	return out
}

// lookup resolves a callee to its summary, normalizing instantiated
// generics back to their declared origin. Nil means out-of-module (or
// otherwise body-less): the caller applies its opaque-call fallback.
func (g *callGraph) lookup(fn *types.Func) *funcSummary {
	if fn == nil {
		return nil
	}
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return g.sums[fn]
}

// chainVisit is one step of a traversal from a root.
type chainVisit struct {
	fn     *types.Func
	parent *types.Func
	depth  int
}

// walkFrom breadth-first-traverses the graph from the roots, invoking
// visit exactly once per reachable summarized function with the chain
// that first reached it. Functions the analyzer trusts stop the walk:
// visit is not called for them and their callees are not enqueued.
// When a chain would exceed callGraphDepthCap, deep is called with the
// truncation point and the walk stops descending there.
func (g *callGraph) walkFrom(roots []*types.Func, trusted func(*funcSummary) bool,
	visit func(sum *funcSummary, chain []string),
	deep func(sum *funcSummary, calleePos token.Pos, chain []string)) {

	parent := map[*types.Func]*types.Func{}
	seen := map[*types.Func]bool{}
	var queue []chainVisit
	for _, r := range roots {
		if !seen[r] {
			seen[r] = true
			queue = append(queue, chainVisit{fn: r, depth: 0})
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		sum := g.lookup(v.fn)
		if sum == nil {
			continue
		}
		parent[v.fn] = v.parent
		if trusted(sum) {
			continue
		}
		visit(sum, g.chain(parent, v.fn))
		if v.depth >= callGraphDepthCap {
			if len(sum.callees) > 0 {
				deep(sum, sum.calleePos[sum.callees[0]], g.chain(parent, v.fn))
			}
			continue
		}
		for _, c := range sum.callees {
			cc := c
			if o := cc.Origin(); o != nil {
				cc = o
			}
			if seen[cc] {
				continue
			}
			seen[cc] = true
			queue = append(queue, chainVisit{fn: cc, parent: v.fn, depth: v.depth + 1})
		}
	}
}

// chain renders the root-to-fn call chain of the first discovery.
func (g *callGraph) chain(parent map[*types.Func]*types.Func, fn *types.Func) []string {
	var rev []string
	for cur := fn; cur != nil; cur = parent[cur] {
		if s := g.lookup(cur); s != nil {
			rev = append(rev, s.displayName())
		} else {
			rev = append(rev, cur.Name())
		}
		if _, ok := parent[cur]; !ok {
			break
		}
	}
	out := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// chainText joins a chain for diagnostics.
func chainText(chain []string) string {
	return strings.Join(chain, " → ")
}
