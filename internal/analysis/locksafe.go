package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockSafe enforces the locking discipline of the code that shares state
// behind a mutex — the observability registry and spans, and the service's
// job table and caches:
//
//   - every sync.Mutex/RWMutex Lock (and RLock) is released on every CFG
//     path that reaches the function's exit — either by a matching
//     Unlock/RUnlock on the path or by a deferred unlock of the same
//     receiver; paths that end in panic are exempt (the unwinding defers
//     run, and a poisoned lock is the least of the process's problems);
//   - no FlushObs call, no blocking channel send, and no Engine full
//     evaluation happens while any lock is held. A flush takes the
//     registry's locks, a send waits for its receiver, and an evaluation
//     runs for milliseconds to seconds: under a held lock each one stalls
//     every other goroutine waiting on it. Sends that are select
//     communications are exempt (they cannot block the holder forever when
//     a default or peer case exists; the CFG keeps each comm on its own
//     path).
//
// Lock identity is the receiver expression spelled in source ("s.mu",
// "shard.mu"): path-sensitive flow does the rest, so straight-line code
// with explicit Unlock (no defer, no closure) verifies as-is. Conditional-flag idioms (`locked := true; ...; if locked {
// mu.Unlock() }`) are beyond the state the analyzer tracks and take an
// //cmosvet:allow with the reasoning spelled out.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "sync locks must be released on all exit paths; no FlushObs/send/eval under a held lock",
	Run:  runLockSafe,
}

func runLockSafe(pass *Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.isTestFile(fd.Pos()) {
				continue
			}
			checkLockFunc(pass, fd)
		}
	}
	return nil
}

// lockOp names the sync methods the analyzer tracks; read locks get a "#r"
// key suffix so Unlock cannot satisfy RLock.
var lockAcquire = map[string]string{"Lock": "", "RLock": "#r"}
var lockRelease = map[string]string{"Unlock": "", "RUnlock": "#r"}

func checkLockFunc(pass *Pass, fd *ast.FuncDecl) {
	// Cheap pre-scan: most functions never touch a lock.
	if !hasLockCall(pass, fd.Body) {
		return
	}
	cfg := BuildCFG(fd.Body)
	deferred := deferUnlockKeys(pass, cfg)
	selectComms := selectCommStmts(fd.Body)
	lockPos := map[string]token.Pos{}

	// scanBlock is the block transfer function; during the fixpoint it runs
	// silently (possibly several times per block), then one post-fixpoint
	// sweep over the final entry states reports with report=true.
	scanBlock := func(b *Block, in string, report bool) string {
		held := decodeHeld(in)
		for _, n := range b.Nodes {
			switch n.(type) {
			case *ast.DeferStmt, *ast.GoStmt:
				continue // runs at exit / on another goroutine
			}
			ast.Inspect(n, func(c ast.Node) bool {
				switch c := c.(type) {
				case *ast.FuncLit:
					return false // closure body runs elsewhere
				case *ast.SendStmt:
					if report && len(held) > 0 && !selectComms[c] {
						pass.Reportf(c.Pos(), "channel send while %s is held; a blocked receiver would stall every waiter on the lock", heldNames(held))
					}
				case *ast.CallExpr:
					if key, suffix, ok := syncLockCall(pass, c, lockAcquire); ok {
						k := key + suffix
						held[k] = true
						if _, seen := lockPos[k]; !seen {
							lockPos[k] = c.Pos()
						}
						return true
					}
					if key, suffix, ok := syncLockCall(pass, c, lockRelease); ok {
						delete(held, key+suffix)
						return true
					}
					if !report || len(held) == 0 {
						return true
					}
					if sel, isSel := ast.Unparen(c.Fun).(*ast.SelectorExpr); isSel && sel.Sel.Name == "FlushObs" {
						pass.Reportf(c.Pos(), "FlushObs while %s is held; flush after releasing the lock", heldNames(held))
					}
					if isEngineEvalCall(pass.TypesInfo, c) {
						pass.Reportf(c.Pos(), "engine evaluation while %s is held; an evaluation runs for milliseconds or more and would stall every waiter on the lock", heldNames(held))
					}
				}
				return true
			})
		}
		return encodeHeld(held)
	}
	transfer := func(b *Block, in string) string { return scanBlock(b, in, false) }
	meet := func(a, b string) string { return unionHeld(a, b) }
	eq := func(a, b string) bool { return a == b }
	in, _ := Forward(cfg, "", transfer, meet, eq)
	for _, b := range cfg.Blocks {
		if state, reached := in[b]; reached {
			scanBlock(b, state, true)
		}
	}

	leaked := decodeHeld(in[cfg.Exit])
	var keys []string
	for k := range leaked {
		if !deferred[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		pos := lockPos[k]
		if !pos.IsValid() {
			pos = fd.Pos()
		}
		pass.Reportf(pos, "%s is not released on every exit path of %s; unlock on each return or defer the unlock", displayKey(k), fd.Name.Name)
	}
}

// hasLockCall is the pre-filter: does the body mention a sync lock method?
func hasLockCall(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, _, ok := syncLockCall(pass, call, lockAcquire); ok {
				found = true
			}
		}
		return !found
	})
	return found
}

// syncLockCall matches a call to one of the given sync.Mutex/RWMutex methods
// (including promoted embedded mutexes and sync.Locker values) and returns
// the lock's identity: the receiver expression as spelled plus the read-lock
// suffix.
func syncLockCall(pass *Pass, call *ast.CallExpr, ops map[string]string) (key, suffix string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	sfx, isOp := ops[sel.Sel.Name]
	if !isOp {
		return "", "", false
	}
	selection, isMethod := pass.TypesInfo.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return "", "", false
	}
	fn, isFunc := selection.Obj().(*types.Func)
	if !isFunc || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return types.ExprString(sel.X), sfx, true
}

// deferUnlockKeys collects the locks released by defer statements: direct
// `defer mu.Unlock()` and unlocks inside `defer func() {...}()` bodies.
func deferUnlockKeys(pass *Pass, cfg *CFG) map[string]bool {
	keys := map[string]bool{}
	for _, d := range cfg.Defers {
		ast.Inspect(d.Call, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if key, sfx, ok := syncLockCall(pass, call, lockRelease); ok {
					keys[key+sfx] = true
				}
			}
			return true
		})
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if key, sfx, ok := syncLockCall(pass, call, lockRelease); ok {
						keys[key+sfx] = true
					}
				}
				return true
			})
		}
	}
	return keys
}

// selectCommStmts returns the send statements that are select communication
// clauses (exempt from the no-send-under-lock rule).
func selectCommStmts(body *ast.BlockStmt) map[*ast.SendStmt]bool {
	comms := map[*ast.SendStmt]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cs := range sel.Body.List {
			if cc, ok := cs.(*ast.CommClause); ok {
				if send, ok := cc.Comm.(*ast.SendStmt); ok {
					comms[send] = true
				}
			}
		}
		return true
	})
	return comms
}

// --- held-set encoding: sorted keys joined, "" = nothing held ---

func decodeHeld(s string) map[string]bool {
	held := map[string]bool{}
	if s == "" {
		return held
	}
	for _, k := range strings.Split(s, "\x00") {
		held[k] = true
	}
	return held
}

func encodeHeld(held map[string]bool) string {
	if len(held) == 0 {
		return ""
	}
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x00")
}

func unionHeld(a, b string) string {
	if a == b || b == "" {
		return a
	}
	if a == "" {
		return b
	}
	m := decodeHeld(a)
	for k := range decodeHeld(b) {
		m[k] = true
	}
	return encodeHeld(m)
}

func heldNames(held map[string]bool) string {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, displayKey(k))
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

func displayKey(k string) string {
	return strings.TrimSuffix(k, "#r")
}
