package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"cmosopt/internal/analysis"
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

// blockOf returns the reachable block whose Nodes contain a call to name, or
// nil when no reachable block does.
func blockOf(c *analysis.CFG, name string) *analysis.Block {
	reach := c.Reachable()
	for b := range reach {
		if blockCalls(b, name) {
			return b
		}
	}
	return nil
}

func blockCalls(b *analysis.Block, name string) bool {
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
	c := analysis.BuildCFG(fd.Body)
	reach := c.Reachable()
	if !reach[c.Exit] {
		t.Fatal("Exit not reachable from Entry")
	}
	if c.Abort != nil {
		t.Fatal("function CFG must not have an Abort block")
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
	c := analysis.BuildCFG(fd.Body)
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
	c := analysis.BuildCFG(fd.Body)
	// The panic arm terminates flow: no block may reach Exit through it, but
	// Exit stays reachable via the return.
	if !c.Reachable()[c.Exit] {
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
	c := analysis.BuildCFG(fd.Body)
	if len(c.Defers) != 2 {
		t.Fatalf("Defers = %d, want 2", len(c.Defers))
	}
}

func TestBuildLoopBodyEdges(t *testing.T) {
	fd, _ := parseFuncBody(t, `
func f(xs []int) {
	for _, x := range xs {
		if x < 0 {
			continue
		}
		if x == 0 {
			break
		}
		if x > 100 {
			return
		}
		use(x)
	}
}
func use(int) {}
`)
	var loop ast.Stmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok && loop == nil {
			loop = r
			return false
		}
		return true
	})
	c := analysis.BuildLoopBody(loop, "")
	if c == nil || c.Abort == nil {
		t.Fatal("loop-body CFG must have an Abort block")
	}
	reach := c.Reachable()
	if !reach[c.Exit] {
		t.Fatal("iteration latch (Exit) must be reachable: continue and fall-through lead there")
	}
	if !reach[c.Abort] {
		t.Fatal("Abort must be reachable: break and return leave the loop")
	}
	// break and return both target Abort, so at least two distinct blocks
	// feed it; only continue and the body's tail feed Exit.
	preds := func(target *analysis.Block) int {
		n := 0
		for b := range reach {
			for _, s := range b.Succs {
				if s == target {
					n++
				}
			}
		}
		return n
	}
	if got := preds(c.Abort); got < 2 {
		t.Fatalf("Abort has %d predecessors, want >= 2 (break + return)", got)
	}
	if blockOf(c, "use") == nil {
		t.Fatal("loop body statement not reachable")
	}
}

func TestBuildLoopBodyNonLoop(t *testing.T) {
	fd, _ := parseFuncBody(t, `
func f() { g() }
func g() {}
`)
	if c := analysis.BuildLoopBody(fd.Body.List[0], ""); c != nil {
		t.Fatal("BuildLoopBody on a non-loop statement must return nil")
	}
}

// mustPoll runs the shared must-analysis shape (meet = AND) the ctxpoll
// analyzer uses: state is "a poll call was seen on every path so far".
func mustPoll(c *analysis.CFG) map[*analysis.Block]bool {
	return analysis.Forward(c, false,
		func(b *analysis.Block, s bool) bool { return s || blockCalls(b, "poll") },
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
	c := analysis.BuildCFG(fd.Body)
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
	c2 := analysis.BuildCFG(fd2.Body)
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
	c := analysis.BuildCFG(fd.Body)
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

func TestDiagnosticSortIsByteStable(t *testing.T) {
	mk := func(file string, line, col int, an, msg string) analysis.Diagnostic {
		return analysis.Diagnostic{
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			Analyzer: an,
			Message:  msg,
		}
	}
	ds := []analysis.Diagnostic{
		mk("b.go", 1, 1, "hotalloc", "z"),
		mk("a.go", 9, 2, "locksafe", "m"),
		mk("a.go", 9, 2, "ctxpoll", "m"),
		mk("a.go", 9, 1, "locksafe", "m"),
		mk("a.go", 2, 7, "hotalloc", "m"),
	}
	want := []string{
		"a.go:2:7:hotalloc",
		"a.go:9:1:locksafe",
		"a.go:9:2:ctxpoll",
		"a.go:9:2:locksafe",
		"b.go:1:1:hotalloc",
	}
	// Sorting any permutation lands the same byte order.
	for rot := 0; rot < len(ds); rot++ {
		perm := append(append([]analysis.Diagnostic{}, ds[rot:]...), ds[:rot]...)
		analysis.SortDiagnostics(perm)
		var got []string
		for _, d := range perm {
			got = append(got, strings.Join([]string{
				d.Pos.Filename,
				itoa(d.Pos.Line),
				itoa(d.Pos.Column),
				d.Analyzer,
			}, ":"))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rotation %d: order[%d] = %s, want %s", rot, i, got[i], want[i])
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
