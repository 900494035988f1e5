package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Fencecheck flags two flush-ordering smells:
//
//  1. fence-without-flush: a Fence() with no flush-class work (Flush,
//     Persist, PersistStore64, WriteNT — direct or in a callee invoked
//     earlier) anywhere before it in the function, nor before the call on
//     every path into the function (nova's log commit fences the flushes
//     its callers' appends left unordered). A fence orders prior flushes;
//     with none, it only burns its overhead.
//  2. double-flush: two Flush/Persist calls with identical arguments in the
//     same statement block with no device store between them — the second
//     flushes lines that are already durable, a pure media-latency waste
//     (the runtime ShadowTracker counts these as RedundantFlushLines).
var Fencecheck = &Check{
	Name:      "fencecheck",
	Doc:       "flag Fence with no preceding flush (callee-aware), and back-to-back flushes of untouched lines",
	Directive: Directive,
	Run:       runFencecheck,
}

func runFencecheck(prog *Program, report func(pos token.Pos, format string, args ...any)) {
	for _, pkg := range prog.Targets {
		for _, fn := range prog.funcsOf(pkg) {
			checkFenceWithoutFlush(prog, fn, report)
		}
		for _, fn := range functionsOf(pkg) {
			inspectShallow(fn.body, func(n ast.Node) bool {
				if block, ok := n.(*ast.BlockStmt); ok {
					checkDoubleFlush(pkg, block, report)
				}
				return true
			})
		}
	}
}

// checkFenceWithoutFlush replays the event stream in execution order; a
// call to a callee whose summary says it flushes counts as flush-class
// work, so `writeInode(...); dev.Fence()` is clean without a directive.
func checkFenceWithoutFlush(prog *Program, fn *FuncNode, report func(pos token.Pos, format string, args ...any)) {
	flushed := false
	for _, ev := range fn.ordered() {
		switch ev.kind {
		case evFlush, evWriteNT:
			flushed = true
		case evCall:
			if ev.callee.flushes {
				flushed = true
			}
		case evFence:
			if !flushed && !prog.flushedOnEntry(fn, make(map[*FuncNode]bool)) {
				report(ev.pos, "%s: Fence with no preceding Flush/Persist in this function, its callees or before the call on every caller path orders nothing", fn.Name)
			}
		}
	}
}

func checkDoubleFlush(pkg *Package, block *ast.BlockStmt, report func(pos token.Pos, format string, args ...any)) {
	lastFlush := "" // rendered "name|args" of the previous uninvalidated flush
	for _, stmt := range block.List {
		call, name := flushStmt(pkg.Info, stmt)
		if call == nil {
			// Any non-trivial statement (branch, loop, assignment with
			// calls…) may re-dirty the lines; reset conservatively.
			lastFlush = ""
			continue
		}
		switch {
		case name == "Flush" || name == "Persist":
			key := name + "|" + renderArgs(call)
			// Persist(x) repeats Flush(x)'s work; compare the range only.
			rangeKey := renderArgs(call)
			if lastFlush != "" && strings.SplitN(lastFlush, "|", 2)[1] == rangeKey {
				report(call.Pos(),
					"redundant flush: range (%s) was already flushed by the preceding %s with no store in between",
					rangeKey, strings.SplitN(lastFlush, "|", 2)[0])
			}
			lastFlush = key
		case storeMethods[name] || name == "WriteNT" || name == "PersistStore64":
			lastFlush = ""
		case name == "Fence":
			// Fence does not touch line state; the previous flush remains
			// the last one.
		default:
			lastFlush = ""
		}
	}
}

func renderArgs(call *ast.CallExpr) string {
	parts := make([]string, len(call.Args))
	for i, a := range call.Args {
		parts[i] = types.ExprString(a)
	}
	return strings.Join(parts, ", ")
}
