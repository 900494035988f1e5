package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Program is the whole-module view the v2 checks run on: every loaded
// package, a call graph over their functions, and per-function persistence
// summaries. Targets is the subset diagnostics are reported for; the
// summaries always span all of Pkgs so an obligation discharged by a
// cross-package callee (or caller) is visible.
type Program struct {
	Fset    *token.FileSet
	Pkgs    []*Package
	Targets []*Package

	funcs  []*FuncNode
	byObj  map[*types.Func]*FuncNode
	byLit  map[*ast.FuncLit]*FuncNode
	byPkg  map[*Package][]*FuncNode
	lockCf *lockConfig // built lazily by lockcheck
}

// evKind classifies one ordered event inside a function body.
type evKind int

const (
	evStore   evKind = iota // cached device store: Write/Store64/CAS64/Add64
	evFlush                 // flush-class: Flush/Persist/PersistStore64
	evWriteNT               // self-durable stream write (persist point, but
	// not a flush of earlier cached stores)
	evFence // store fence
	evCall  // statically resolved module-internal call
)

// event is one device operation or call, in source order. Deferred events
// run at function exit (modeled after all non-deferred events, in reverse
// source order).
type event struct {
	kind     evKind
	pos      token.Pos
	name     string // device method name, or callee name for evCall
	deferred bool

	callee    *FuncNode   // resolved in linkCalls
	calleeObj *types.Func // evCall via named function/method
	calleeLit *ast.FuncLit
}

// FuncNode is one function or function literal in the call graph.
type FuncNode struct {
	Pkg  *Package
	Name string
	obj  *types.Func // nil for literals
	body *ast.BlockStmt
	pos  token.Pos

	events  []event
	callers []callEdge

	// inlined marks a function literal that is immediately invoked (or
	// deferred) at its definition site; its events are already part of the
	// enclosing function's stream, so path-sensitive passes skip the
	// standalone scan.
	inlined bool

	// Persistence summary bits (fixpoint over the call graph).
	flushes     bool // transitively performs a flush-class call
	persists    bool // transitively reaches a crash-injection (persist) point
	leavesDirty bool // can return with an unflushed cached store outstanding

	// Lock summary, built on demand by lockcheck.
	lock         *lockSummary
	lockBuilding bool
}

type callEdge struct {
	caller   *FuncNode
	pos      token.Pos
	deferred bool
}

// NewProgram builds the call graph and persistence summaries over pkgs.
func NewProgram(fset *token.FileSet, pkgs, targets []*Package) *Program {
	p := &Program{
		Fset:    fset,
		Pkgs:    pkgs,
		Targets: targets,
		byObj:   make(map[*types.Func]*FuncNode),
		byLit:   make(map[*ast.FuncLit]*FuncNode),
		byPkg:   make(map[*Package][]*FuncNode),
	}
	for _, pkg := range pkgs {
		p.collectFuncs(pkg)
	}
	for _, fn := range p.funcs {
		p.buildEvents(fn)
	}
	p.linkCalls()
	p.computePersistSummaries()
	return p
}

func (p *Program) funcsOf(pkg *Package) []*FuncNode { return p.byPkg[pkg] }

func (p *Program) collectFuncs(pkg *Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					return true
				}
				fn := &FuncNode{Pkg: pkg, Name: d.Name.Name, body: d.Body, pos: d.Pos()}
				if obj, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
					fn.obj = obj
					p.byObj[obj] = fn
				}
				p.funcs = append(p.funcs, fn)
				p.byPkg[pkg] = append(p.byPkg[pkg], fn)
			case *ast.FuncLit:
				fn := &FuncNode{Pkg: pkg, Name: "func literal", body: d.Body, pos: d.Pos()}
				p.byLit[d] = fn
				p.funcs = append(p.funcs, fn)
				p.byPkg[pkg] = append(p.byPkg[pkg], fn)
			}
			return true
		})
	}
}

// buildEvents records fn's device operations and static calls in source
// order, without descending into nested function literals (separate nodes;
// immediately-invoked literals become call edges instead).
func (p *Program) buildEvents(fn *FuncNode) {
	info := fn.Pkg.Info
	var scan func(n ast.Node, deferred bool)
	handleCall := func(call *ast.CallExpr, deferred bool) {
		if name, ok := deviceCall(info, call); ok {
			switch {
			case storeMethods[name]:
				fn.events = append(fn.events, event{kind: evStore, pos: call.Pos(), name: name, deferred: deferred})
			case name == "WriteNT":
				fn.events = append(fn.events, event{kind: evWriteNT, pos: call.Pos(), name: name, deferred: deferred})
			case flushMethods[name]:
				fn.events = append(fn.events, event{kind: evFlush, pos: call.Pos(), name: name, deferred: deferred})
			case name == "Fence":
				fn.events = append(fn.events, event{kind: evFence, pos: call.Pos(), name: name, deferred: deferred})
			}
			return
		}
		if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
			fn.events = append(fn.events, event{kind: evCall, pos: call.Pos(), name: "func literal", deferred: deferred, calleeLit: lit})
			return
		}
		if callee := staticCallee(info, call); callee != nil {
			fn.events = append(fn.events, event{kind: evCall, pos: call.Pos(), name: callee.Name(), deferred: deferred, calleeObj: callee})
		}
	}
	scan = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				for _, a := range x.Call.Args {
					scan(a, deferred)
				}
				handleCall(x.Call, true)
				return false
			case *ast.GoStmt:
				// The goroutine's own work is asynchronous: its flushes do
				// not cover this function's stores, and its stores are its
				// own responsibility. Only the argument expressions run here.
				for _, a := range x.Call.Args {
					scan(a, deferred)
				}
				return false
			case *ast.CallExpr:
				handleCall(x, deferred)
				return true // descend: nested calls in args are real events
			}
			return true
		})
	}
	scan(fn.body, false)
}

// linkCalls resolves evCall events to FuncNodes and records caller edges.
// Calls to functions outside the loaded program are dropped (no effect).
func (p *Program) linkCalls() {
	for _, fn := range p.funcs {
		kept := fn.events[:0]
		for _, ev := range fn.events {
			if ev.kind == evCall {
				switch {
				case ev.calleeObj != nil:
					ev.callee = p.byObj[ev.calleeObj]
				case ev.calleeLit != nil:
					ev.callee = p.byLit[ev.calleeLit]
					if ev.callee != nil {
						ev.callee.inlined = true
					}
				}
				if ev.callee == nil {
					continue
				}
				ev.callee.callers = append(ev.callee.callers, callEdge{caller: fn, pos: ev.pos, deferred: ev.deferred})
			}
			kept = append(kept, ev)
		}
		fn.events = kept
	}
}

// ordered returns fn's events in execution order: non-deferred events in
// source order, then deferred events in reverse (LIFO) order.
func (fn *FuncNode) ordered() []event {
	out := make([]event, 0, len(fn.events))
	for _, ev := range fn.events {
		if !ev.deferred {
			out = append(out, ev)
		}
	}
	for i := len(fn.events) - 1; i >= 0; i-- {
		if fn.events[i].deferred {
			out = append(out, fn.events[i])
		}
	}
	return out
}

// computePersistSummaries runs the monotone fixpoints for flushes,
// persists, and leavesDirty over the call graph. All three only ever go
// false→true, so iteration terminates.
func (p *Program) computePersistSummaries() {
	for changed := true; changed; {
		changed = false
		for _, fn := range p.funcs {
			fl, pe := fn.flushes, fn.persists
			for _, ev := range fn.events {
				switch ev.kind {
				case evFlush:
					fl, pe = true, true
				case evWriteNT:
					pe = true
				case evCall:
					if ev.callee.flushes {
						fl = true
					}
					if ev.callee.persists {
						pe = true
					}
				}
			}
			if fl != fn.flushes || pe != fn.persists {
				fn.flushes, fn.persists = fl, pe
				changed = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range p.funcs {
			if fn.leavesDirty {
				continue
			}
			if p.evalPersistence(fn).dirty {
				fn.leavesDirty = true
				changed = true
			}
		}
	}
}

// persistEval is the result of replaying a function's event stream.
type persistEval struct {
	dirty       bool // can return with some unflushed store (own or callee's)
	directDirty bool // fn's OWN last cached store is uncovered
	hasFlush    bool // any flush event at all (direct or via callee)
	lastStore   event
}

// evalPersistence replays fn's events in execution order. A call to a
// callee that flushes acts as a flush; a call to a callee that leaves
// stores dirty acts as a store issued after the call's own flushes.
func (p *Program) evalPersistence(fn *FuncNode) persistEval {
	var r persistEval
	seq, lastStore, lastDirect, lastFlush := 0, -1, -1, -1
	for _, ev := range fn.ordered() {
		seq++
		switch ev.kind {
		case evStore:
			lastStore, lastDirect = seq, seq
			r.lastStore = ev
		case evFlush:
			lastFlush = seq
			r.hasFlush = true
		case evCall:
			if ev.callee.flushes {
				lastFlush = seq
				r.hasFlush = true
			}
			if ev.callee.leavesDirty {
				seq++ // the callee's dirt postdates its own flushes
				lastStore = seq
			}
		}
	}
	r.dirty = lastStore >= 0 && lastStore > lastFlush
	r.directDirty = lastDirect >= 0 && lastDirect > lastFlush
	return r
}

// discharged reports whether every call path into fn flushes after the
// call: each caller either performs flush-class work after the call site
// (or in a deferred call), or is itself discharged by its callers.
// Functions with no callers, recursion cycles, and deferred calls whose
// caller is not discharged all answer false — conservative.
func (p *Program) discharged(fn *FuncNode, visiting map[*FuncNode]bool) bool {
	if len(fn.callers) == 0 {
		return false
	}
	if visiting[fn] {
		return false
	}
	visiting[fn] = true
	defer delete(visiting, fn)
	for _, e := range fn.callers {
		if !e.deferred && p.flushAfter(e.caller, e.pos) {
			continue
		}
		if p.discharged(e.caller, visiting) {
			continue
		}
		return false
	}
	return true
}

// flushedOnEntry is discharged's mirror image for fences: it reports
// whether every call path into fn has performed flush-class work by the
// time it makes the call — in the caller before the call site, or on every
// path into the caller. No callers and recursion cycles answer false.
func (p *Program) flushedOnEntry(fn *FuncNode, visiting map[*FuncNode]bool) bool {
	if len(fn.callers) == 0 || visiting[fn] {
		return false
	}
	visiting[fn] = true
	defer delete(visiting, fn)
	for _, e := range fn.callers {
		if !p.flushBefore(e.caller, e.pos) && !p.flushedOnEntry(e.caller, visiting) {
			return false
		}
	}
	return true
}

// flushBefore reports whether fn performs non-deferred flush-class work
// (direct, a WriteNT, or via a flushing callee) before pos.
func (p *Program) flushBefore(fn *FuncNode, pos token.Pos) bool {
	for _, ev := range fn.events {
		flushy := ev.kind == evFlush || ev.kind == evWriteNT || (ev.kind == evCall && ev.callee.flushes)
		if flushy && !ev.deferred && ev.pos < pos {
			return true
		}
	}
	return false
}

// flushAfter reports whether fn performs flush-class work after pos: a
// later non-deferred flush (direct or via a flushing callee), or any
// deferred flush (deferred work runs at exit, after every call site).
func (p *Program) flushAfter(fn *FuncNode, pos token.Pos) bool {
	for _, ev := range fn.events {
		flushy := ev.kind == evFlush || (ev.kind == evCall && ev.callee.flushes)
		if !flushy {
			continue
		}
		if ev.deferred || ev.pos > pos {
			return true
		}
	}
	return false
}
