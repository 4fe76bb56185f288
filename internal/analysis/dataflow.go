package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the intraprocedural dataflow engine every provenance
// analyzer builds on (seedtaint, units, purity, clockstep, skipsafe):
// value-origin tracking over go/types. For an expression inside one
// function it answers "which leaf sources can flow into this value?"
// by chasing the local definitions that reach the expression's program
// point backwards (the reaching-definitions fixpoint lives in cfg.go),
// looking through parentheses, arithmetic, and type conversions. The
// engine is intraprocedural (calls are opaque leaves) and
// over-approximates the true origin set, which is the safe direction
// for taint-style checks.

// OriginKind classifies the leaf sources a value can flow from.
type OriginKind uint8

const (
	// OriginLiteral: a basic literal or a named constant.
	OriginLiteral OriginKind = iota
	// OriginParam: a parameter (or receiver) of the enclosing function.
	OriginParam
	// OriginField: a struct field read (x.F).
	OriginField
	// OriginCall: the result of a function or method call. Calls are
	// leaves: the engine does not look through bodies.
	OriginCall
	// OriginGlobal: a package-level variable.
	OriginGlobal
	// OriginUnknown: anything the tracker cannot resolve (closure
	// captures, channel receives, map/slice elements of opaque shape).
	OriginUnknown
)

func (k OriginKind) String() string {
	switch k {
	case OriginLiteral:
		return "literal"
	case OriginParam:
		return "parameter"
	case OriginField:
		return "field"
	case OriginCall:
		return "call"
	case OriginGlobal:
		return "package-level variable"
	default:
		return "unknown value"
	}
}

// Origin is one leaf source of a value.
type Origin struct {
	Kind OriginKind
	// Expr is the leaf expression at the source (the literal, the
	// selector, the call).
	Expr ast.Expr
	// Obj is the named object behind the leaf when one exists: the
	// parameter or field or global *types.Var, the constant, or the
	// callee. Nil for unresolved leaves.
	Obj types.Object
}

// originDepthCap bounds assignment-chain recursion; originFanCap bounds
// the total origin set so pathological functions stay cheap.
const (
	originDepthCap = 32
	originFanCap   = 64
)

// funcFlow is the dataflow scope of one function body: its entry
// definitions and the reaching-definition environments cfg.go solves
// over its control-flow graph.
type funcFlow struct {
	info *types.Info
	// fn is the *ast.FuncDecl or *ast.FuncLit, nil for the package-level
	// pseudo-scope (var initializers).
	fn ast.Node
	// params marks parameters and receivers.
	params map[*types.Var]bool
	// entry defines every variable live on entry (see entryEnv).
	entry originEnv

	// cfg and envIn are the flow-sensitive solution: the graph and each
	// block's in-environment. cfg is nil after a bailout (goto, exhausted
	// fixpoint budget) and at package level; every use then sees union.
	cfg   *funcCFG
	envIn []originEnv
	union originEnv
}

// newFuncFlow builds the dataflow scope of fn, which must be an
// *ast.FuncDecl or *ast.FuncLit (nil gives the package-level scope).
func newFuncFlow(info *types.Info, fn ast.Node) *funcFlow {
	f := &funcFlow{info: info, fn: fn, params: map[*types.Var]bool{}, union: originEnv{}}
	var recv *ast.FieldList
	var ftype *ast.FuncType
	var body *ast.BlockStmt
	switch n := fn.(type) {
	case *ast.FuncDecl:
		recv, ftype, body = n.Recv, n.Type, n.Body
	case *ast.FuncLit:
		ftype, body = n.Type, n.Body
	default:
		return f
	}
	f.entry = f.entryEnv(recv, ftype, body)
	if body == nil {
		f.union = f.entry
		return f
	}
	c := buildCFG(body)
	if !c.hasGoto && f.solveEnvs(c) {
		f.cfg = c
		return f
	}
	f.union = f.unionEnv(c)
	return f
}

// entryEnv defines every variable live on entry with its self-marker
// (an identifier at the variable's declaration, see entryOrigin):
// receivers and parameters carry the caller's value, named results
// their zero value, and the variables a function literal captures
// whatever the enclosing scope holds.
func (f *funcFlow) entryEnv(recv *ast.FieldList, ftype *ast.FuncType, body *ast.BlockStmt) originEnv {
	env := originEnv{}
	for _, fields := range []*ast.FieldList{recv, ftype.Params, ftype.Results} {
		if fields == nil {
			continue
		}
		for _, field := range fields.List {
			for _, name := range field.Names {
				v, ok := f.info.Defs[name].(*types.Var)
				if !ok || name.Name == "_" {
					continue
				}
				env[v] = []ast.Expr{name}
				if fields != ftype.Results {
					f.params[v] = true
				}
			}
		}
	}
	if _, isLit := f.fn.(*ast.FuncLit); !isLit || body == nil {
		return env
	}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := f.info.Uses[id].(*types.Var)
		if ok && !v.IsField() && !isPackageLevel(v) && f.captures(v) && env[v] == nil {
			env[v] = []ast.Expr{&ast.Ident{NamePos: v.Pos(), Name: v.Name()}}
		}
		return true
	})
	return env
}

// captures reports whether v is declared outside this function.
func (f *funcFlow) captures(v *types.Var) bool {
	return v.Pos() < f.fn.Pos() || v.Pos() >= f.fn.End()
}

// entryOrigin classifies the self-marker definition of v reached by the
// use id: the caller-supplied value of a parameter or receiver, the
// unknown value a closure captures, or the zero value of a named result
// or a `var x T` declaration (an anonymous literal).
func (f *funcFlow) entryOrigin(id, marker *ast.Ident, v *types.Var) Origin {
	switch {
	case f.params[v]:
		return Origin{Kind: OriginParam, Expr: id, Obj: v}
	case f.captures(v):
		return Origin{Kind: OriginUnknown, Expr: id, Obj: v}
	default:
		return Origin{Kind: OriginLiteral, Expr: marker}
	}
}

// lhsVar resolves an assignment target identifier to its variable.
func (f *funcFlow) lhsVar(id *ast.Ident) *types.Var {
	if v, ok := f.info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := f.info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// originsOf returns the leaf sources that can flow into e within this
// function, following the definitions that reach e's program point.
func (f *funcFlow) originsOf(e ast.Expr) []Origin {
	var out []Origin
	f.trace(e, f.envAt(e), map[*types.Var]bool{}, 0, &out)
	return out
}

func (f *funcFlow) add(out *[]Origin, o Origin) {
	if len(*out) < originFanCap {
		*out = append(*out, o)
	}
}

// capStop records the conservative OriginUnknown marker when a cap is
// exhausted. Unlike add, it never drops the marker: when the origin set
// is already full it overwrites the final slot, so a capped trace can
// never read as fully sanctioned (that would be a false negative — the
// untraced remainder might be the unsanctioned part).
func (f *funcFlow) capStop(out *[]Origin, e ast.Expr) {
	if len(*out) >= originFanCap {
		(*out)[originFanCap-1] = Origin{Kind: OriginUnknown, Expr: e}
		return
	}
	*out = append(*out, Origin{Kind: OriginUnknown, Expr: e})
}

// arithmeticOps are the binary operators a value flows through
// unchanged in kind (the result is "made of" both operands).
var arithmeticOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true,
	token.QUO: true, token.REM: true,
	token.AND: true, token.OR: true, token.XOR: true, token.AND_NOT: true,
	token.SHL: true, token.SHR: true,
}

// trace walks e's structure toward leaves under env, the reaching-
// definition environment at e's program point.
func (f *funcFlow) trace(e ast.Expr, env originEnv, visiting map[*types.Var]bool, depth int, out *[]Origin) {
	if depth > originDepthCap || len(*out) >= originFanCap {
		f.capStop(out, e)
		return
	}
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.BasicLit:
		f.add(out, Origin{Kind: OriginLiteral, Expr: x})
	case *ast.Ident:
		f.traceIdent(x, env, visiting, depth, out)
	case *ast.SelectorExpr:
		f.traceSelector(x, out)
	case *ast.CallExpr:
		if tv, ok := f.info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			// Type conversion: the value flows through. This is what
			// lets the units analyzer see laundering through plain
			// integer intermediates.
			f.trace(x.Args[0], env, visiting, depth+1, out)
			return
		}
		f.add(out, Origin{Kind: OriginCall, Expr: x, Obj: calleeObject(f.info, x)})
	case *ast.BinaryExpr:
		if arithmeticOps[x.Op] {
			f.trace(x.X, env, visiting, depth+1, out)
			f.trace(x.Y, env, visiting, depth+1, out)
			return
		}
		f.add(out, Origin{Kind: OriginUnknown, Expr: x})
	case *ast.UnaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.XOR:
			f.trace(x.X, env, visiting, depth+1, out)
		case token.AND:
			// &x aliases x: the pointer carries its referent's origins
			// (what lets the purity analyzer see leaks and alias writes
			// through address-taken values).
			f.trace(x.X, env, visiting, depth+1, out)
		default:
			f.add(out, Origin{Kind: OriginUnknown, Expr: x})
		}
	case *ast.StarExpr:
		f.trace(x.X, env, visiting, depth+1, out)
	case *ast.IndexExpr:
		// The element of a collection inherits the collection's origins.
		f.trace(x.X, env, visiting, depth+1, out)
	default:
		f.add(out, Origin{Kind: OriginUnknown, Expr: e})
	}
}

func (f *funcFlow) traceIdent(id *ast.Ident, env originEnv, visiting map[*types.Var]bool, depth int, out *[]Origin) {
	obj := f.info.Uses[id]
	if obj == nil {
		obj = f.info.Defs[id]
	}
	switch obj := obj.(type) {
	case *types.Const:
		f.add(out, Origin{Kind: OriginLiteral, Expr: id, Obj: obj})
	case *types.Var:
		defs, ok := env[obj]
		if !ok {
			// Only package-level state and code unreachable from the
			// entry block go undefined.
			switch {
			case f.params[obj]:
				f.add(out, Origin{Kind: OriginParam, Expr: id, Obj: obj})
			case isPackageLevel(obj):
				f.add(out, Origin{Kind: OriginGlobal, Expr: id, Obj: obj})
			default:
				f.add(out, Origin{Kind: OriginUnknown, Expr: id, Obj: obj})
			}
			return
		}
		if visiting[obj] {
			// Definition cycle (x = x + 1 chains): the other origins of
			// the cycle carry the information.
			return
		}
		visiting[obj] = true
		for _, rhs := range defs {
			if m, isID := rhs.(*ast.Ident); isID && m.Pos() == obj.Pos() {
				f.add(out, f.entryOrigin(id, m, obj))
				continue
			}
			f.trace(rhs, env, visiting, depth+1, out)
		}
		delete(visiting, obj)
	default:
		f.add(out, Origin{Kind: OriginUnknown, Expr: id, Obj: obj})
	}
}

func (f *funcFlow) traceSelector(sel *ast.SelectorExpr, out *[]Origin) {
	if s, ok := f.info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		f.add(out, Origin{Kind: OriginField, Expr: sel, Obj: s.Obj()})
		return
	}
	// Qualified identifier: pkg.Name.
	switch obj := f.info.Uses[sel.Sel].(type) {
	case *types.Const:
		f.add(out, Origin{Kind: OriginLiteral, Expr: sel, Obj: obj})
	case *types.Var:
		f.add(out, Origin{Kind: OriginGlobal, Expr: sel, Obj: obj})
	default:
		f.add(out, Origin{Kind: OriginUnknown, Expr: sel, Obj: obj})
	}
}

// flowCache builds funcFlow scopes lazily, one per enclosing function,
// for analyzers that resolve origins at many sites in one pass.
type flowCache struct {
	info  *types.Info
	flows map[ast.Node]*funcFlow
}

func newFlowCache(info *types.Info) *flowCache {
	return &flowCache{info: info, flows: map[ast.Node]*funcFlow{}}
}

// at returns the flow scope of the innermost enclosing function on the
// ancestor stack, or nil at package level (var initializers).
func (c *flowCache) at(stack []ast.Node) *funcFlow {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			fn := stack[i]
			f, ok := c.flows[fn]
			if !ok {
				f = newFuncFlow(c.info, fn)
				c.flows[fn] = f
			}
			return f
		}
	}
	return nil
}
