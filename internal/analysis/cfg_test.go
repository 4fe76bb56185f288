package analysis

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// loadCFGFixture loads the cfg structure fixture without running any
// analyzer on it.
func loadCFGFixture(t *testing.T) *Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "cfg"))
	if err != nil {
		t.Fatalf("LoadDir(cfg): %v", err)
	}
	for _, te := range pkg.TypeErrors {
		t.Fatalf("cfg fixture does not type-check: %v", te)
	}
	return pkg
}

// fixtureFuncs returns the fixture's function declarations in source
// order.
func fixtureFuncs(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// TestCFGStructureGolden pins the block/edge structure the builder
// produces for defer routing, labeled break/continue, switch
// fallthrough, and for-range.
func TestCFGStructureGolden(t *testing.T) {
	pkg := loadCFGFixture(t)
	var sb strings.Builder
	for _, fd := range fixtureFuncs(pkg) {
		sb.WriteString("=== " + fd.Name.Name + "\n")
		sb.WriteString(buildCFG(fd.Body).dump(pkg.Fset))
	}
	got := sb.String()
	goldenPath := filepath.Join("testdata", "cfg.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("CFG structure differs from %s:\n--- got ---\n%s--- want ---\n%s",
			goldenPath, got, want)
	}
}

// TestEnvIdempotence guards the fixpoint: solving the reaching-
// definition environments twice — on the same funcFlow and on a fresh
// one over the same AST — must render identically.
func TestEnvIdempotence(t *testing.T) {
	pkg := loadCFGFixture(t)
	for _, fd := range fixtureFuncs(pkg) {
		first := newFuncFlow(pkg.Info, fd)
		r1 := first.renderEnvs(pkg.Fset)
		if again := first.renderEnvs(pkg.Fset); again != r1 {
			t.Errorf("%s: re-rendering the same flow changed the environments:\n%s\nvs\n%s",
				fd.Name.Name, r1, again)
		}
		fresh := newFuncFlow(pkg.Info, fd)
		if r2 := fresh.renderEnvs(pkg.Fset); r2 != r1 {
			t.Errorf("%s: a fresh fixpoint solve produced different environments:\n%s\nvs\n%s",
				fd.Name.Name, r1, r2)
		}
	}
}

// originNames renders an origin set as sorted object names, for
// assertion messages.
func originNames(origins []Origin) []string {
	var names []string
	for _, o := range origins {
		if o.Obj != nil {
			names = append(names, o.Obj.Name())
		} else {
			names = append(names, "<"+o.Kind.String()+">")
		}
	}
	sort.Strings(names)
	return names
}

// fixtureFunc returns the named function of the cfg fixture.
func fixtureFunc(t *testing.T, pkg *Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, fd := range fixtureFuncs(pkg) {
		if fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("fixture function %s not found", name)
	return nil
}

// returnedOrigins returns the origin names of the first result of fn's
// final return statement.
func returnedOrigins(pkg *Package, fd *ast.FuncDecl) []string {
	ret := fd.Body.List[len(fd.Body.List)-1].(*ast.ReturnStmt)
	return originNames(newFuncFlow(pkg.Info, fd).originsOf(ret.Results[0]))
}

// TestBranchSplitEnvs is the direct form of the seedtaint branch-split
// regression: a use inside one arm sees only that arm's definition,
// while the post-join use sees both — including a parameter's
// caller-supplied value when only one arm reassigns it.
func TestBranchSplitEnvs(t *testing.T) {
	pkg := loadCFGFixture(t)
	split := fixtureFunc(t, pkg, "split")
	flow := newFuncFlow(pkg.Info, split)

	// The use of x inside the branch: the x in `y = x + 1`.
	var inBranch ast.Expr
	ast.Inspect(split.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN && len(as.Lhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "y" {
				inBranch = as.Rhs[0].(*ast.BinaryExpr).X
			}
		}
		return true
	})
	if inBranch == nil {
		t.Fatal("fixture shapes not found in split")
	}

	got := originNames(flow.originsOf(inBranch))
	if len(got) != 1 || got[0] != "q" {
		t.Errorf("in-branch use of x: origins = %v, want exactly [q]", got)
	}
	if got := returnedOrigins(pkg, split); !reflect.DeepEqual(got, []string{"p", "q"}) {
		t.Errorf("join use of x: origins = %v, want [p q]", got)
	}
	if got := returnedOrigins(pkg, fixtureFunc(t, pkg, "reparam")); !reflect.DeepEqual(got, []string{"p", "q"}) {
		t.Errorf("join use of a parameter reassigned on one arm: origins = %v, want [p q]", got)
	}
}

// TestGotoBailoutUnion covers the conservative fallback: a function
// with goto gets one environment for every use, the union of the entry
// definitions and every definition in the function.
func TestGotoBailoutUnion(t *testing.T) {
	pkg := loadCFGFixture(t)
	jumpy := fixtureFunc(t, pkg, "jumpy")
	if flow := newFuncFlow(pkg.Info, jumpy); flow.cfg != nil {
		t.Fatal("a function with goto must bail out of the flow-sensitive solution")
	}
	if got := returnedOrigins(pkg, jumpy); !reflect.DeepEqual(got, []string{"p", "q"}) {
		t.Errorf("use of a parameter reassigned under goto: origins = %v, want the union [p q]", got)
	}
}
