package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"cmosopt/internal/analysis"
)

// typecheckPkg type-checks a single-file package with no imports under the
// given import path, returning it shaped as the loader would.
func typecheckPkg(t *testing.T, path, src string) *analysis.LoadedPackage {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "facts_fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	pkg, err := (&types.Config{}).Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &analysis.LoadedPackage{Path: path, Files: []*ast.File{f}, Types: pkg, Info: info, Fset: fset}
}

func TestComputePkgFacts(t *testing.T) {
	// The package claims the engine's import path so the Engine.Energy call
	// below reads as a full evaluation; the fixpoint must then carry CallsEval
	// through the same-package helper chain.
	p := typecheckPkg(t, "cmosopt/internal/eval", `package eval

func Plain(n int) int { return n * 2 }

type Engine struct{ n int }

func (e *Engine) Energy(v float64) float64 { return v * float64(e.n) }

func helper(e *Engine) float64 { return e.Energy(1) }

func outer(e *Engine) float64 { return helper(e) + 1 }
`)
	facts := analysis.ComputePkgFacts(p)

	check := func(key string, want analysis.FuncFacts) {
		t.Helper()
		got, ok := facts[key]
		if !ok {
			t.Fatalf("no facts for %q (have %v)", key, keysOf(facts))
		}
		if got != want {
			t.Fatalf("facts[%q] = %+v, want %+v", key, got, want)
		}
	}
	check("Plain", analysis.FuncFacts{})
	check("helper", analysis.FuncFacts{CallsEval: true})
	// outer never touches the engine directly: CallsEval arrives only through
	// the same-package transitive closure.
	check("outer", analysis.FuncFacts{CallsEval: true})
	if f := facts["Engine.Energy"]; f.CallsEval {
		t.Fatal("Energy's own body does not call an evaluation; closure must not mark the sink itself")
	}
}

func TestComputePkgFactsMethodKeys(t *testing.T) {
	p := typecheckPkg(t, "cmosopt/internal/fixture", `package fixture

type box struct{ v []int }

func (b *box) Get(i int) int { return b.v[i] }

func (b box) Grow(n int) { b.v = make([]int, n) }
`)
	facts := analysis.ComputePkgFacts(p)
	if _, ok := facts["box.Get"]; !ok {
		t.Fatalf("pointer-receiver method not keyed box.Get: %v", keysOf(facts))
	}
	if _, ok := facts["box.Grow"]; !ok {
		t.Fatalf("value-receiver method not keyed box.Grow: %v", keysOf(facts))
	}
}

func keysOf(f analysis.PkgFacts) []string {
	var ks []string
	for k := range f {
		ks = append(ks, k)
	}
	return ks
}
