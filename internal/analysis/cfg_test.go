package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseFuncBody parses src as a file and returns the CFG inputs of the first
// function declaration.
func parseFuncBody(t *testing.T, src string) (*ast.FuncDecl, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_fixture.go", "package p\n\n"+src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return fd, fset
		}
	}
	t.Fatal("no function declaration in fixture")
	return nil, nil
}

// reachable returns the set of blocks reachable from c.Entry. Statements
// after an unconditional return or panic sit in blocks outside this set.
func reachable(c *CFG) map[*Block]bool {
	seen := map[*Block]bool{c.Entry: true}
	stack := []*Block{c.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// blockOf returns the reachable block whose Nodes contain a call to name, or
// nil when no reachable block does.
func blockOf(c *CFG, name string) *Block {
	reach := reachable(c)
	for b := range reach {
		if blockCalls(b, name) {
			return b
		}
	}
	return nil
}

func blockCalls(b *Block, name string) bool {
	for _, n := range b.Nodes {
		found := false
		ast.Inspect(n, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func TestBuildCFGReturnsReachExit(t *testing.T) {
	fd, _ := parseFuncBody(t, `
func f(a bool) int {
	seen()
	if a {
		return 1
	}
	return 2
}
func seen() {}
`)
	c := BuildCFG(fd.Body)
	reach := reachable(c)
	if !reach[c.Exit] {
		t.Fatal("Exit not reachable from Entry")
	}
	if blockOf(c, "seen") == nil {
		t.Fatal("statement block not reachable")
	}
}

func TestBuildCFGUnreachableAfterReturn(t *testing.T) {
	fd, _ := parseFuncBody(t, `
func f() int {
	return 1
	dead()
	return 0
}
func dead() {}
`)
	c := BuildCFG(fd.Body)
	if blockOf(c, "dead") != nil {
		t.Fatal("code after an unconditional return must be unreachable")
	}
}

func TestBuildCFGPanicSkipsExit(t *testing.T) {
	fd, _ := parseFuncBody(t, `
func f(a bool) int {
	if !a {
		panic("no")
	}
	return 1
}
`)
	c := BuildCFG(fd.Body)
	// The panic arm terminates flow: no block may reach Exit through it, but
	// Exit stays reachable via the return.
	if !reachable(c)[c.Exit] {
		t.Fatal("Exit must stay reachable through the non-panicking path")
	}
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				for _, s := range b.Succs {
					if s == c.Exit {
						t.Fatal("panic block must not flow to Exit")
					}
				}
			}
		}
	}
}

func TestBuildCFGCollectsDefers(t *testing.T) {
	fd, _ := parseFuncBody(t, `
func f(mu interface{ Unlock() }) {
	defer mu.Unlock()
	defer func() {}()
}
`)
	c := BuildCFG(fd.Body)
	if len(c.Defers) != 2 {
		t.Fatalf("Defers = %d, want 2", len(c.Defers))
	}
}

// mustPoll runs a must-analysis (meet = AND) whose state is "a poll call was
// seen on every path so far".
func mustPoll(c *CFG) map[*Block]bool {
	return Forward(c, false,
		func(b *Block, s bool) bool { return s || blockCalls(b, "poll") },
		func(a, b bool) bool { return a && b },
		func(a, b bool) bool { return a == b },
	)
}

func TestForwardMustAnalysisDiamond(t *testing.T) {
	fd, _ := parseFuncBody(t, `
func f(a bool) {
	if a {
		poll()
	} else {
		poll()
	}
	done()
}
func poll() {}
func done() {}
`)
	c := BuildCFG(fd.Body)
	if in := mustPoll(c); !in[c.Exit] {
		t.Fatal("poll on both arms: must-state at Exit should be true")
	}

	fd2, _ := parseFuncBody(t, `
func f(a bool) {
	if a {
		poll()
	}
	done()
}
func poll() {}
func done() {}
`)
	c2 := BuildCFG(fd2.Body)
	if in := mustPoll(c2); in[c2.Exit] {
		t.Fatal("poll on one arm only: must-state at Exit should be false")
	}
}

func TestForwardLoopConverges(t *testing.T) {
	fd, _ := parseFuncBody(t, `
func f(n int) {
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			poll()
		}
	}
	done()
}
func poll() {}
func done() {}
`)
	c := BuildCFG(fd.Body)
	in := mustPoll(c)
	// The loop may execute zero times and the poll is conditional inside it:
	// the fixpoint must converge with Exit unpolled.
	if in[c.Exit] {
		t.Fatal("conditional poll inside a maybe-zero-trip loop must not satisfy Exit")
	}
	if len(in) == 0 {
		t.Fatal("fixpoint produced no states")
	}
}
