package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockScope enforces the engine-mutex rule PR 2's /metrics fix
// established: while a sync.Mutex / sync.RWMutex is held, the critical
// section must not run known-slow kernels or blocking I/O. A scrape
// endpoint, a health check or a concurrent query queuing behind a lock
// that is busy inside VF2 or an fsync is how the serving layer misses
// its deadlines. Inside a Lock()..Unlock() region (or to the end of
// the function after `defer Unlock()`) it flags calls to
//
//   - exported entry points of the kernel packages iso, ged and
//     catapult (graph matching and selection are unbounded work);
//   - the store package (every write there fsyncs);
//   - net/http client calls, net.Dial*, and time.Sleep.
//
// The analyzer is call-graph-aware: besides direct calls inside a
// critical section, it follows synchronous module calls (interface
// dispatch resolved conservatively, `go`-launched work excluded) and
// flags slow work reached through helper indirection, naming the call
// path. Critical sections that hold the lock across such work by
// design (e.g. the engine mutex serializing maintenance with state
// saves) belong in the allowlist with their justification.
var LockScope = &Analyzer{
	Name:      "lockscope",
	Doc:       "no slow kernels (iso/ged/catapult), fsyncing store calls, or blocking I/O while a sync.Mutex/RWMutex is held — directly or through helpers",
	RunModule: runLockScopeModule,
}

// slowModulePkgs are the module packages whose exported entry points
// count as unbounded work.
var slowModulePkgs = map[string]bool{"iso": true, "ged": true, "catapult": true, "store": true, "parallel": true, "tenant": true}

func runLockScopeModule(m *Module, report func(Diagnostic)) {
	// Direct pass: the original syntactic check, unchanged — every
	// function body (literals included, test files included), slow
	// calls lexically inside a lock region.
	named := &Analyzer{Name: "lockscope"}
	for _, pkg := range m.Packages {
		runLockScope(&Pass{Analyzer: named, Module: m, Pkg: pkg, report: report})
	}
	// Transitive pass: slow work reached through helper calls made
	// while a lock is held. Only non-test declarations; sites the
	// direct pass already reports are skipped.
	g := m.CallGraph()
	slow := g.SlowSummaries()
	for _, id := range g.IDs {
		n := g.Nodes[id]
		if n.Test || n.Pkg.ForTest {
			continue
		}
		regions := heldRegions(n)
		if len(regions) == 0 {
			continue
		}
		seenSite := make(map[token.Pos]bool)
		for ri := range regions {
			r := &regions[ri]
			for _, cs := range n.Calls {
				if cs.GoCall || seenSite[cs.Pos] || !r.contains(n, cs.Pos) {
					continue
				}
				if directlyReported(m, n, cs) {
					continue // the direct pass owns this site
				}
				if desc, via, ok := firstSlowReach(g, slow, n, cs); ok {
					seenSite[cs.Pos] = true
					report(Diagnostic{
						Analyzer: "lockscope",
						Position: m.Fset.Position(cs.Pos),
						Message: fmt.Sprintf("%s reachable via %s while %s is held in %s; move slow/blocking work outside the critical section",
							desc, via, r.expr, n.Name),
					})
				}
			}
		}
	}
}

// directlyReported mirrors the direct pass's decision for a call site:
// when it fires there, the transitive pass stays quiet.
func directlyReported(m *Module, n *CGNode, cs CallSite) bool {
	desc, pkgName := slowCallDescObj(m, cs.Obj)
	if desc == "" {
		return false
	}
	return pkgName == "" || pkgName != n.Pkg.Name
}

// firstSlowReach picks, deterministically, one slow descriptor
// reachable from the call site's targets, honouring the lock holder's
// same-package exemption.
func firstSlowReach(g *CallGraph, slow map[FuncID]map[string]slowReach, n *CGNode, cs CallSite) (desc, via string, ok bool) {
	for _, callee := range cs.SyncTargets() {
		cn := g.Nodes[callee]
		if cn == nil {
			continue
		}
		descs := make([]string, 0, len(slow[callee]))
		for d := range slow[callee] {
			descs = append(descs, d)
		}
		sort.Strings(descs)
		for _, d := range descs {
			sr := slow[callee][d]
			if sr.Pkg != "" && sr.Pkg == n.Pkg.Name {
				continue // same-package work is the implementation, not a foreign slow call
			}
			via := cn.Name
			if sr.Via != "" {
				via += " -> " + sr.Via
			}
			return d, via, true
		}
	}
	return "", "", false
}

func runLockScope(pass *Pass) {
	for _, fb := range funcBodies(pass.Pkg) {
		regions := lockRegions(pass, fb)
		if len(regions) == 0 {
			continue
		}
		goBodies := goStmtRanges(fb.Body)
		ast.Inspect(fb.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, g := range goBodies {
				if posWithin(call.Pos(), g[0], g[1]) {
					return true // runs on its own goroutine, not under the caller's lock
				}
			}
			for _, reg := range regions {
				if !posWithin(call.Pos(), reg.lo, reg.hi) {
					continue
				}
				if desc := slowCallDesc(pass, call); desc != "" {
					pass.Reportf(call.Pos(), "%s called while %s is held in %s; move slow/blocking work outside the critical section", desc, reg.key, fb.Name)
				}
				break
			}
			return true
		})
	}
}

type lockRegion struct {
	key    string // rendered lock expression, e.g. "s.mu"
	lo, hi token.Pos
}

// lockRegions finds Lock/RLock calls on sync mutexes and pairs each
// with its Unlock: an explicit Unlock bounds the region; `defer
// Unlock()` extends it to the end of the function. Lock events inside
// a nested function literal belong to that literal, which is its own
// funcBody, so they never open a region in the enclosing function.
func lockRegions(pass *Pass, fb funcBody) []lockRegion {
	type ev struct {
		pos      token.Pos
		key      string
		lock     bool
		deferred bool
	}
	var evs []ev
	deferredCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if d, ok := n.(*ast.DeferStmt); ok {
			deferredCalls[d.Call] = true
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		deferred := deferredCalls[call]
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		isLock := name == "Lock" || name == "RLock"
		isUnlock := name == "Unlock" || name == "RUnlock"
		if !isLock && !isUnlock {
			return true
		}
		t := pass.TypeOf(sel.X)
		if t == nil || !(namedTypePath(t, "sync", "Mutex") || namedTypePath(t, "sync", "RWMutex")) {
			return true
		}
		evs = append(evs, ev{pos: call.Pos(), key: exprText(sel.X), lock: isLock, deferred: deferred})
		return true
	})
	var regions []lockRegion
	open := make(map[string]token.Pos)
	for _, e := range evs {
		switch {
		case e.lock:
			if _, ok := open[e.key]; !ok {
				open[e.key] = e.pos
			}
		case e.deferred:
			// defer Unlock: the lock is held to the end of the function.
			if lo, ok := open[e.key]; ok {
				regions = append(regions, lockRegion{key: e.key, lo: lo, hi: fb.Body.End()})
				delete(open, e.key)
			}
		default:
			if lo, ok := open[e.key]; ok {
				regions = append(regions, lockRegion{key: e.key, lo: lo, hi: e.pos})
				delete(open, e.key)
			}
		}
	}
	// Lock with no visible Unlock (e.g. handed to a helper): treat as
	// held to the end of the function. Sorted so diagnostics are
	// deterministic — this linter eats its own dog food.
	keys := make([]string, 0, len(open))
	for key := range open {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		regions = append(regions, lockRegion{key: key, lo: open[key], hi: fb.Body.End()})
	}
	return regions
}

// goStmtRanges returns the position ranges of `go` statement bodies.
func goStmtRanges(body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			out = append(out, [2]token.Pos{g.Call.Pos(), g.Call.End()})
		}
		return true
	})
	return out
}

// slowCallDesc classifies a call as slow/blocking, returning a
// human-readable description or "".
func slowCallDesc(pass *Pass, call *ast.CallExpr) string {
	obj := calleeOf(pass.Pkg.Info, call)
	if obj == nil {
		return ""
	}
	// Kernel and store entry points from this module, by package name.
	if inModulePkg(pass.Module, obj) && obj.Pkg().Name() != pass.Pkg.Name &&
		slowModulePkgs[obj.Pkg().Name()] && ast.IsExported(obj.Name()) {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	if stdlibFunc(obj, "time", "Sleep") {
		return "time.Sleep"
	}
	if pkg := objPkgPath(obj); pkg == "net/http" || pkg == "net" {
		switch obj.Name() {
		case "Get", "Post", "PostForm", "Head", "Do", "Dial", "DialTimeout", "DialTCP", "Listen", "ListenAndServe", "ListenAndServeTLS":
			return pkg + "." + obj.Name()
		}
	}
	return ""
}

func objPkgPath(obj types.Object) string {
	if p := obj.Pkg(); p != nil {
		return p.Path()
	}
	return ""
}
