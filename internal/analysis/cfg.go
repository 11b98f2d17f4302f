package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// This file gives the framework real control flow: a per-function basic-block
// CFG built from go/ast alone (no SSA, no x/tools), covering if/for/range/
// switch/type-switch/select/labeled statements, break/continue/goto/
// fallthrough, return, and path-terminating calls (panic, os.Exit,
// log.Fatal*). The flow-aware analyzers (ctxpoll, locksafe) run over it
// through dataflow fixpoints (Forward, dataflow.go).

// Block is one basic block: a maximal straight-line node sequence with edges
// to its successors. Nodes are statements and the condition/tag expressions
// of the control statements that end a block; a node never contains a nested
// statement body except inside *ast.FuncLit (deliberate — a closure body runs
// at call time, not here, so analyzers decide how to treat it).
type Block struct {
	Nodes []ast.Node
	Succs []*Block
}

// CFG is the control-flow graph of one function body (or, in loop-body mode,
// of one loop iteration — see BuildLoopBody).
type CFG struct {
	Entry *Block
	// Exit is the single normal exit: returns and falling off the end of the
	// body lead here. Paths ending in panic/os.Exit have no edge to Exit.
	Exit *Block
	// Abort is non-nil only in loop-body mode: paths that leave the loop
	// (break, return, goto out) lead here instead of Exit.
	Abort  *Block
	Blocks []*Block
	// Defers lists the defer statements of the body in source order; deferred
	// calls run at function exit, so they appear as Defers, not as extra
	// edges.
	Defers []*ast.DeferStmt
}

// BuildCFG builds the control-flow graph of a function body. Entry leads into
// the first statement; every return statement and the fall-off end of the
// body connect to Exit.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := newCFGBuilder()
	b.retTo = b.cfg.Exit
	b.current = b.cfg.Entry
	b.stmtList(body.List)
	b.linkCurrent(b.cfg.Exit)
	b.finish(b.cfg.Exit)
	return b.cfg
}

// BuildLoopBody builds the CFG of one iteration of a for/range loop: Entry
// leads into the body, Exit is the iteration latch (reached by finishing the
// body or by `continue` targeting this loop), and Abort collects every path
// that leaves the loop instead (break, return, goto past the loop). label is
// the loop's label name, or "" for an unlabeled loop. A property that must
// hold "on every iteration path" is therefore a must-dataflow from Entry
// checked at Exit, with Abort paths exempt.
func BuildLoopBody(loop ast.Stmt, label string) *CFG {
	var body *ast.BlockStmt
	switch s := loop.(type) {
	case *ast.ForStmt:
		body = s.Body
	case *ast.RangeStmt:
		body = s.Body
	default:
		return nil
	}
	b := newCFGBuilder()
	b.cfg.Abort = b.newBlock()
	b.retTo = b.cfg.Abort
	b.targets = append(b.targets, branchTarget{label: label, isLoop: true, brk: b.cfg.Abort, cont: b.cfg.Exit})
	b.current = b.cfg.Entry
	b.stmtList(body.List)
	b.linkCurrent(b.cfg.Exit)
	b.finish(b.cfg.Abort)
	return b.cfg
}

type branchTarget struct {
	label  string
	isLoop bool
	brk    *Block
	cont   *Block
}

type cfgBuilder struct {
	cfg     *CFG
	current *Block // nil while the next statement is unreachable
	// targets is the stack of enclosing breakable/continuable statements,
	// innermost last.
	targets []branchTarget
	// fallthroughTo is the next case block while building a switch case body.
	fallthroughTo *Block
	// retTo is where return statements jump: Exit normally, Abort in
	// loop-body mode.
	retTo  *Block
	labels map[string]*Block
	placed map[string]bool
}

func newCFGBuilder() *cfgBuilder {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: make(map[string]*Block),
		placed: make(map[string]bool),
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	return b
}

// returnTo is where return statements jump: Exit normally, Abort in
// loop-body mode.
func (b *cfgBuilder) finish(escape *Block) {
	// A goto whose label was never placed targets a label outside the built
	// region (possible only in loop-body mode); such paths leave the region.
	for name, lb := range b.labels {
		if !b.placed[name] && len(lb.Succs) == 0 {
			lb.Succs = append(lb.Succs, escape)
		}
	}
}

func (b *cfgBuilder) newBlock() *Block {
	nb := &Block{}
	b.cfg.Blocks = append(b.cfg.Blocks, nb)
	return nb
}

// cur returns the block under construction, starting a fresh unreachable
// block when control cannot reach this point (so every node still lands in
// some block and purely syntactic scans keep seeing it).
func (b *cfgBuilder) cur() *Block {
	if b.current == nil {
		b.current = b.newBlock()
	}
	return b.current
}

func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	c := b.cur()
	c.Nodes = append(c.Nodes, n)
}

func link(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// linkCurrent adds an edge from the current block (if any) to `to` without
// transferring construction there.
func (b *cfgBuilder) linkCurrent(to *Block) {
	if b.current != nil {
		link(b.current, to)
	}
}

// jumpTo ends the current block with an unconditional edge to `to`.
func (b *cfgBuilder) jumpTo(to *Block) {
	b.linkCurrent(to)
	b.current = nil
}

// startBlock begins a new block with an edge from the current one.
func (b *cfgBuilder) startBlock() *Block {
	nb := b.newBlock()
	b.linkCurrent(nb)
	b.current = nb
	return nb
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, "")
	case *ast.RangeStmt:
		b.rangeStmt(s, "")
	case *ast.SwitchStmt:
		b.switchStmt(s, "")
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")
	case *ast.SelectStmt:
		b.selectStmt(s, "")
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.jumpTo(b.retTo)
	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s)
	default:
		b.add(s)
		if terminatesFlow(s) {
			b.current = nil
		}
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur()
	b.current = nil
	done := b.newBlock()

	then := b.newBlock()
	link(cond, then)
	b.current = then
	b.stmtList(s.Body.List)
	b.linkCurrent(done)

	if s.Else != nil {
		els := b.newBlock()
		link(cond, els)
		b.current = els
		b.stmt(s.Else)
		b.linkCurrent(done)
	} else {
		link(cond, done)
	}
	b.current = done
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.startBlock()
	if s.Cond != nil {
		b.add(s.Cond)
	}
	body := b.newBlock()
	latch := b.newBlock()
	done := b.newBlock()
	link(head, body)
	if s.Cond != nil {
		link(head, done)
	}
	b.targets = append(b.targets, branchTarget{label: label, isLoop: true, brk: done, cont: latch})
	b.current = body
	b.stmtList(s.Body.List)
	b.linkCurrent(latch)
	b.targets = b.targets[:len(b.targets)-1]
	if s.Post != nil {
		latch.Nodes = append(latch.Nodes, s.Post)
	}
	link(latch, head)
	b.current = done
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.startBlock()
	b.add(s.X)
	body := b.newBlock()
	done := b.newBlock()
	link(head, body)
	link(head, done)
	b.targets = append(b.targets, branchTarget{label: label, isLoop: true, brk: done, cont: head})
	b.current = body
	b.stmtList(s.Body.List)
	b.linkCurrent(head)
	b.targets = b.targets[:len(b.targets)-1]
	b.current = done
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	b.switchBody(s.Body, label, true)
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	b.switchBody(s.Body, label, false)
}

func (b *cfgBuilder) switchBody(body *ast.BlockStmt, label string, allowFallthrough bool) {
	cond := b.cur()
	b.current = nil
	done := b.newBlock()
	b.targets = append(b.targets, branchTarget{label: label, brk: done})

	var caseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		clauses = append(clauses, cc)
		cb := b.newBlock()
		caseBlocks = append(caseBlocks, cb)
		if cc.List == nil {
			hasDefault = true
		}
		link(cond, cb)
	}
	if !hasDefault {
		link(cond, done)
	}
	for i, cc := range clauses {
		b.current = caseBlocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		saved := b.fallthroughTo
		if allowFallthrough && i+1 < len(caseBlocks) {
			b.fallthroughTo = caseBlocks[i+1]
		} else {
			b.fallthroughTo = nil
		}
		b.stmtList(cc.Body)
		b.fallthroughTo = saved
		b.linkCurrent(done)
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.current = done
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	entry := b.cur()
	b.current = nil
	done := b.newBlock()
	b.targets = append(b.targets, branchTarget{label: label, brk: done})
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		cb := b.newBlock()
		link(entry, cb)
		b.current = cb
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.linkCurrent(done)
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.current = done
}

func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	lb := b.labelBlock(s.Label.Name)
	b.placed[s.Label.Name] = true
	b.linkCurrent(lb)
	b.current = lb
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, s.Label.Name)
	case *ast.RangeStmt:
		b.rangeStmt(inner, s.Label.Name)
	case *ast.SwitchStmt:
		b.switchStmt(inner, s.Label.Name)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, s.Label.Name)
	case *ast.SelectStmt:
		b.selectStmt(inner, s.Label.Name)
	default:
		b.stmt(s.Stmt)
	}
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if lb, ok := b.labels[name]; ok {
		return lb
	}
	lb := b.newBlock()
	b.labels[name] = lb
	return lb
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if t := b.findTarget(label, false); t != nil {
			b.jumpTo(t.brk)
			return
		}
	case token.CONTINUE:
		if t := b.findTarget(label, true); t != nil {
			b.jumpTo(t.cont)
			return
		}
	case token.GOTO:
		b.jumpTo(b.labelBlock(label))
		return
	case token.FALLTHROUGH:
		if b.fallthroughTo != nil {
			b.jumpTo(b.fallthroughTo)
			return
		}
	}
	// Ill-formed branch (won't type-check): just end the path.
	b.current = nil
}

func (b *cfgBuilder) findTarget(label string, needLoop bool) *branchTarget {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := &b.targets[i]
		if needLoop && !t.isLoop {
			continue
		}
		if label == "" || t.label == label {
			return t
		}
	}
	return nil
}

// terminatesFlow reports whether the statement never lets control continue to
// the next one: a call to panic, os.Exit, runtime.Goexit or log.Fatal*.
// Purely syntactic — good enough for paths the analyzers prune.
func terminatesFlow(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		x, ok := fn.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case x.Name == "os" && fn.Sel.Name == "Exit":
			return true
		case x.Name == "runtime" && fn.Sel.Name == "Goexit":
			return true
		case x.Name == "log" && strings.HasPrefix(fn.Sel.Name, "Fatal"):
			return true
		}
	}
	return false
}
