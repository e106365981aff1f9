package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// This file is the interprocedural layer under midas-lint: a
// whole-module call graph with conservative interface resolution, plus
// the shared notions the concurrency analyzers (lockorder, goroleak,
// atomichygiene, the call-graph-aware lockscope) build on — stable
// cross-package identities for functions and for lock/channel/
// WaitGroup state, and per-function call-site lists that distinguish
// synchronous calls from work handed to another goroutine.
//
// Identity across type-checks: the loader type-checks every package
// twice (once "pure" for importers, once with its test files for
// analysis), producing distinct types.Object copies of the same
// declaration. Both checks share one FileSet and one parse of each
// file, so an object's declaration position is identical in both
// copies — token.Pos is therefore the module-wide identity for
// functions, fields and variables, and the graph is keyed by it.

// FuncID identifies a declared function or method across the module by
// its declaration position.
type FuncID = token.Pos

// CallSite is one call expression inside a function body.
type CallSite struct {
	Pos token.Pos
	// Callee is the statically resolved module function, or NoPos for
	// external (stdlib) and unresolved dynamic calls.
	Callee FuncID
	// Obj is the callee object when the call resolved to a named
	// function or method (module or stdlib); nil for calls through
	// variables.
	Obj *types.Func
	// Targets holds the conservative interface-dispatch resolution:
	// every module method the call may reach. Set only when Iface.
	Iface   bool
	Targets []FuncID
	// Async marks a site lexically inside a `go func(){...}` body
	// launched by this function: it runs on another goroutine, so it
	// neither holds the caller's locks nor blocks the caller.
	Async bool
	// GoCall marks the call operand of a `go` statement itself.
	GoCall bool
}

// GoSite is one `go` statement: the unit goroleak must prove a stop
// path for.
type GoSite struct {
	Pos token.Pos
	// Body is the launched function-literal body — either written
	// inline (`go func(){...}()`) or a local variable the function
	// assigned a literal to (`w := func(){...}; go w()`).
	Body *ast.FuncLit
	// Callee is the launched module function when the statement spawns
	// a named function or method (`go p.run()`).
	Callee FuncID
	// Call is the full spawn expression (for argument binding).
	Call *ast.CallExpr
}

// CGNode is one declared function or method.
type CGNode struct {
	ID   FuncID
	Name string // display name, e.g. "tenant.(*Shard).Drain"
	Pkg  *Package
	Decl *ast.FuncDecl
	Test bool // declared in a _test.go file or an external test package

	Calls   []CallSite
	GoSites []GoSite

	// asyncRanges are the positions of `go func(){...}` literal bodies
	// inside this declaration: code in them runs on another goroutine.
	asyncRanges [][2]token.Pos
	// litRanges are the positions of every function-literal body inside
	// this declaration (async ones included). Lock regions never span a
	// literal boundary: a closure is its own lock-pairing context, as in
	// the original syntactic lockscope.
	litRanges []litRange
}

type litRange struct {
	lo, hi token.Pos
	async  bool // launched by a go statement
}

// InAsync reports whether pos lies inside one of the node's
// `go`-launched literal bodies.
func (n *CGNode) InAsync(pos token.Pos) bool {
	for _, r := range n.asyncRanges {
		if posWithin(pos, r[0], r[1]) {
			return true
		}
	}
	return false
}

// CallGraph is the whole-module view.
type CallGraph struct {
	Module *Module
	Nodes  map[FuncID]*CGNode
	// IDs is every node in deterministic (file, offset) order.
	IDs []FuncID

	// Stats for the midas-lint/2 report.
	NumFuncs      int
	NumCallSites  int
	NumEdges      int // resolved static module edges
	NumIfaceEdges int // conservative interface-dispatch edges
	BuildTime     time.Duration

	// ifaceTargets memoizes interface-method resolution, keyed by the
	// method's full name plus the static receiver interface type.
	ifaceTargets map[string][]FuncID
	pkgByPath    map[string]*Package

	slowOnce sync_Once
	slow     map[FuncID]map[string]slowReach
	lockOnce sync_Once
	locks    map[FuncID]map[token.Pos]lockRef
}

// sync_Once avoids importing sync here solely for memoization; the
// lint driver is single-threaded, so a plain flag suffices.
type sync_Once struct{ done bool }

func (o *sync_Once) Do(f func()) {
	if !o.done {
		o.done = true
		f()
	}
}

// CallGraph builds (once) and returns the module's call graph.
func (m *Module) CallGraph() *CallGraph {
	if m.cg == nil {
		m.cg = buildCallGraph(m)
	}
	return m.cg
}

func buildCallGraph(m *Module) *CallGraph {
	start := time.Now()
	g := &CallGraph{
		Module:       m,
		Nodes:        make(map[FuncID]*CGNode),
		ifaceTargets: make(map[string][]FuncID),
		pkgByPath:    make(map[string]*Package),
	}
	for _, pkg := range m.Packages {
		if !pkg.ForTest {
			g.pkgByPath[pkg.ImportPath] = pkg
		}
	}
	for _, pkg := range m.Packages {
		for i, f := range pkg.Files {
			test := pkg.IsTestFile(i)
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				g.addNode(pkg, fd, test)
			}
		}
	}
	g.IDs = make([]FuncID, 0, len(g.Nodes))
	for id := range g.Nodes {
		g.IDs = append(g.IDs, id)
	}
	sort.Slice(g.IDs, func(i, j int) bool { return g.IDs[i] < g.IDs[j] })
	g.NumFuncs = len(g.Nodes)
	for _, id := range g.IDs {
		n := g.Nodes[id]
		g.NumCallSites += len(n.Calls)
		for _, cs := range n.Calls {
			if cs.Callee != token.NoPos {
				g.NumEdges++
			}
			g.NumIfaceEdges += len(cs.Targets)
		}
	}
	g.BuildTime = time.Since(start)
	return g
}

// addNode collects one declaration's call sites, go sites and async
// ranges.
func (g *CallGraph) addNode(pkg *Package, fd *ast.FuncDecl, test bool) {
	obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return
	}
	n := &CGNode{
		ID:   obj.Pos(),
		Name: pkg.Name + "." + funcDeclName(fd),
		Pkg:  pkg,
		Decl: fd,
		Test: test,
	}

	// Map local variables assigned exactly one function literal, so
	// `go worker()` resolves to the literal's body.
	litVars := localFuncLits(pkg.Info, fd.Body)

	// First pass: literal bodies and which of them run asynchronously —
	// written inline under `go`, or assigned to a variable the function
	// only ever launches with `go`.
	asyncLits := make(map[*ast.FuncLit]bool)
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		gs, ok := node.(*ast.GoStmt)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(gs.Call.Fun).(type) {
		case *ast.FuncLit:
			asyncLits[fun] = true
		case *ast.Ident:
			if obj := pkg.Info.ObjectOf(fun); obj != nil {
				if lit, ok := litVars[obj]; ok {
					asyncLits[lit] = true
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		lit, ok := node.(*ast.FuncLit)
		if !ok {
			return true
		}
		r := litRange{lo: lit.Body.Pos(), hi: lit.Body.End(), async: asyncLits[lit]}
		n.litRanges = append(n.litRanges, r)
		if r.async {
			n.asyncRanges = append(n.asyncRanges, [2]token.Pos{r.lo, r.hi})
		}
		return true
	})

	goCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.GoStmt:
			goCalls[v.Call] = true
			n.GoSites = append(n.GoSites, g.resolveGoSite(pkg, v, litVars))
		case *ast.CallExpr:
			cs := g.resolveCall(pkg, v)
			cs.Async = n.InAsync(v.Pos())
			cs.GoCall = goCalls[v]
			n.Calls = append(n.Calls, cs)
		}
		return true
	})
	g.Nodes[n.ID] = n
}

// localFuncLits maps local variables to the single function literal
// assigned to them, when unambiguous.
func localFuncLits(info *types.Info, body *ast.BlockStmt) map[types.Object]*ast.FuncLit {
	out := make(map[types.Object]*ast.FuncLit)
	ambiguous := make(map[types.Object]bool)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
		if !ok {
			ambiguous[obj] = true
			return
		}
		if _, seen := out[obj]; seen {
			ambiguous[obj] = true
			return
		}
		out[obj] = lit
	}
	ast.Inspect(body, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) == len(v.Rhs) {
				for i := range v.Lhs {
					record(v.Lhs[i], v.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(v.Names) == len(v.Values) {
				for i := range v.Names {
					record(v.Names[i], v.Values[i])
				}
			}
		}
		return true
	})
	for obj := range ambiguous {
		delete(out, obj)
	}
	return out
}

// resolveGoSite classifies one `go` statement.
func (g *CallGraph) resolveGoSite(pkg *Package, gs *ast.GoStmt, litVars map[types.Object]*ast.FuncLit) GoSite {
	site := GoSite{Pos: gs.Pos(), Call: gs.Call}
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		site.Body = fun
		return site
	case *ast.Ident:
		if obj := pkg.Info.ObjectOf(fun); obj != nil {
			if lit, ok := litVars[obj]; ok {
				site.Body = lit
				return site
			}
		}
	}
	cs := g.resolveCall(pkg, gs.Call)
	site.Callee = cs.Callee
	return site
}

// resolveCall resolves one call expression: static module callee,
// external callee, or conservative interface dispatch.
func (g *CallGraph) resolveCall(pkg *Package, call *ast.CallExpr) CallSite {
	cs := CallSite{Pos: call.Pos()}
	obj := calleeOf(pkg.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return cs // builtin, conversion, or dynamic call through a variable
	}
	cs.Obj = fn
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		cs.Iface = true
		// Dispatch against the STATIC type of the receiver expression,
		// not the interface that declares the method: j.f.Close() on a
		// vfs.File must only match implementers of the full File
		// interface, not of the embedded io.Closer (which would pull in
		// every type with a Close method, the *RepLog included).
		recv := sig.Recv().Type()
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := pkg.Info.Selections[sel]; ok && s.Recv() != nil && types.IsInterface(s.Recv()) {
				recv = s.Recv()
			}
		}
		cs.Targets = g.interfaceTargets(fn, recv)
		return cs
	}
	if inModulePkg(g.Module, fn) {
		cs.Callee = fn.Pos()
	}
	return cs
}

// interfaceTargets conservatively resolves an interface method to every
// module method that can satisfy it: each named type in the module's
// pure universe whose method set (value or pointer) implements recvType
// (the call site's static receiver interface) contributes its method of
// that name. Resolution works in the pure universe only, so types
// declared in test files never become targets.
func (g *CallGraph) interfaceTargets(ifaceMethod *types.Func, recvType types.Type) []FuncID {
	memoKey := ifaceMethod.FullName() + "|" + types.TypeString(recvType, nil)
	if ts, ok := g.ifaceTargets[memoKey]; ok {
		return ts
	}
	var targets []FuncID
	defer func() { g.ifaceTargets[memoKey] = targets }()

	iface := canonicalInterface(g, recvType)
	if iface == nil {
		return targets
	}
	seen := make(map[FuncID]bool)
	for _, path := range sortedKeys(g.pkgByPath) {
		pkg := g.pkgByPath[path]
		if pkg.PureTypes == nil {
			continue
		}
		scope := pkg.PureTypes.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			mobj, _, _ := types.LookupFieldOrMethod(ptr, true, ifaceMethod.Pkg(), ifaceMethod.Name())
			m, ok := mobj.(*types.Func)
			if !ok {
				continue
			}
			if id := m.Pos(); id != token.NoPos && !seen[id] {
				seen[id] = true
				targets = append(targets, id)
			}
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	return targets
}

// canonicalInterface maps an interface receiver type (from whichever
// type-check universe the call site lives in) to the pure-universe
// interface, so Implements checks compare within one universe.
func canonicalInterface(g *CallGraph, t types.Type) *types.Interface {
	switch v := t.(type) {
	case *types.Named:
		obj := v.Obj()
		if obj.Pkg() == nil {
			return nil
		}
		if pkg, ok := g.pkgByPath[obj.Pkg().Path()]; ok && pkg.PureTypes != nil {
			if tn, ok := pkg.PureTypes.Scope().Lookup(obj.Name()).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					return iface
				}
			}
			return nil
		}
		// External (stdlib) interfaces already live in the one shared
		// importer universe.
		iface, _ := v.Underlying().(*types.Interface)
		return iface
	case *types.Interface:
		return v
	}
	return nil
}

func sortedKeys(m map[string]*Package) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SyncTargets returns the module functions a call site can reach
// synchronously: the static callee or the interface-dispatch targets.
func (cs *CallSite) SyncTargets() []FuncID {
	if cs.Callee != token.NoPos {
		return []FuncID{cs.Callee}
	}
	return cs.Targets
}

// ---------------------------------------------------------------------
// Stable identities for lock / channel / WaitGroup state.

// stateClass is the identity of one piece of synchronization state —
// a struct field ("every Shard's metaMu"), a package-level variable, or
// a local/parameter — keyed by the declaring object's position.
type stateClass struct {
	ID      token.Pos
	Display string
	// Param is set when the object is a function parameter: receives
	// through it can be rebound to the caller's argument.
	Param *types.Var
}

// classOf resolves the expression naming a mutex, channel or WaitGroup
// to its class. It accepts the shapes the codebase uses: `x`, `s.f`,
// `s.a.b` (the innermost selected field is the class).
func classOf(pkg *Package, e ast.Expr) (stateClass, bool) {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pkg.Info.ObjectOf(v)
		vr, ok := obj.(*types.Var)
		if !ok {
			return stateClass{}, false
		}
		c := stateClass{ID: obj.Pos(), Display: displayForObj(pkg, vr, "")}
		if isParamVar(pkg.Info, vr) {
			c.Param = vr
		}
		return c, true
	case *ast.SelectorExpr:
		obj := pkg.Info.ObjectOf(v.Sel)
		vr, ok := obj.(*types.Var)
		if !ok || !vr.IsField() {
			return stateClass{}, false
		}
		owner := ""
		if t := pkg.Info.TypeOf(v.X); t != nil {
			if n, ok := deref(t).(*types.Named); ok {
				owner = n.Obj().Name()
			}
		}
		return stateClass{ID: obj.Pos(), Display: displayForObj(pkg, vr, owner)}, true
	case *ast.IndexExpr:
		return classOf(pkg, v.X)
	case *ast.StarExpr:
		return classOf(pkg, v.X)
	}
	return stateClass{}, false
}

// displayForObj renders a human-readable class name:
// "pkg.Type.field" for fields, "pkg.name" for package-level variables,
// and "name" for locals and parameters.
func displayForObj(pkg *Package, vr *types.Var, owner string) string {
	pkgName := pkg.Name
	if vr.Pkg() != nil {
		pkgName = vr.Pkg().Name()
	}
	switch {
	case vr.IsField() && owner != "":
		return pkgName + "." + owner + "." + vr.Name()
	case vr.IsField():
		return pkgName + "." + vr.Name()
	case vr.Parent() != nil && vr.Pkg() != nil && vr.Parent() == vr.Pkg().Scope():
		return pkgName + "." + vr.Name()
	}
	return vr.Name()
}

// isParamVar reports whether vr is a function parameter (its parent
// scope is a function scope and it is not a field or package-level).
func isParamVar(info *types.Info, vr *types.Var) bool {
	if vr.IsField() || vr.Pkg() == nil || vr.Parent() == vr.Pkg().Scope() {
		return false
	}
	// Parameters are declared in the function's scope; there is no
	// direct API, so approximate: a non-field, non-package var used as
	// a channel that we want to rebind. Locals qualify too, which is
	// harmless — they simply never appear in a caller's binding map.
	return true
}

// ---------------------------------------------------------------------
// Summaries shared by lockscope (transitive slow calls) and lockorder
// (transitive lock acquisition).

// slowReach describes one slow/blocking call reachable from a function.
type slowReach struct {
	Desc string // e.g. "store.SaveBundle" or "time.Sleep"
	Pkg  string // callee package name ("" for stdlib descriptors)
	Via  string // first module hop on the path, "" when direct
}

// SlowSummaries computes, for every node, the set of slow/blocking
// descriptors reachable through synchronous module calls (interface
// dispatch included, `go`-launched work excluded), as a worklist
// fixpoint over the condensed graph.
func (g *CallGraph) SlowSummaries() map[FuncID]map[string]slowReach {
	g.slowOnce.Do(func() { g.slow = g.computeSlowSummaries() })
	return g.slow
}

func (g *CallGraph) computeSlowSummaries() map[FuncID]map[string]slowReach {
	sum := make(map[FuncID]map[string]slowReach, len(g.Nodes))
	for _, id := range g.IDs {
		sum[id] = make(map[string]slowReach)
	}
	// Seed with each node's direct slow calls.
	for _, id := range g.IDs {
		n := g.Nodes[id]
		for _, cs := range n.Calls {
			if cs.Async || cs.GoCall {
				continue
			}
			if desc, pkgName := slowCallDescObj(g.Module, cs.Obj); desc != "" {
				sum[id][desc] = slowReach{Desc: desc, Pkg: pkgName}
			}
		}
	}
	// Propagate callee summaries up through synchronous edges until the
	// fixpoint: descriptors are a finite set, so this terminates.
	for changed := true; changed; {
		changed = false
		for _, id := range g.IDs {
			n := g.Nodes[id]
			for _, cs := range n.Calls {
				if cs.Async || cs.GoCall {
					continue
				}
				for _, callee := range cs.SyncTargets() {
					cn := g.Nodes[callee]
					if cn == nil {
						continue
					}
					for desc, r := range sum[callee] {
						if _, ok := sum[id][desc]; ok {
							continue
						}
						via := cn.Name
						if r.Via != "" {
							via = cn.Name + " -> " + r.Via
						}
						sum[id][desc] = slowReach{Desc: r.Desc, Pkg: r.Pkg, Via: via}
						changed = true
					}
				}
			}
		}
	}
	return sum
}

// slowCallDescObj classifies a callee object as slow/blocking. It is
// the object-level form of lockscope's classification: exported entry
// points of the slow module packages, time.Sleep, and blocking
// net/net/http calls. The caller applies the same-package exemption.
func slowCallDescObj(m *Module, obj *types.Func) (desc, pkgName string) {
	if obj == nil || obj.Pkg() == nil {
		return "", ""
	}
	if inModulePkg(m, obj) {
		if slowModulePkgs[obj.Pkg().Name()] && ast.IsExported(obj.Name()) {
			return obj.Pkg().Name() + "." + obj.Name(), obj.Pkg().Name()
		}
		return "", ""
	}
	if stdlibFunc(obj, "time", "Sleep") {
		return "time.Sleep", ""
	}
	if pkg := obj.Pkg().Path(); pkg == "net/http" || pkg == "net" {
		switch obj.Name() {
		case "Get", "Post", "PostForm", "Head", "Do", "Dial", "DialTimeout", "DialTCP", "Listen", "ListenAndServe", "ListenAndServeTLS":
			return pkg + "." + obj.Name(), ""
		}
	}
	return "", ""
}

// lockRef is one lock class a function may acquire (directly or
// transitively), with the position witnessing the acquisition.
type lockRef struct {
	Class stateClass
	At    token.Pos
	Rlock bool
	Via   string // first module hop, "" when acquired directly
}

// LockSummaries computes, for every node, the set of lock classes the
// function may acquire through synchronous calls. Locks taken inside
// `go`-launched bodies belong to the spawned goroutine and are
// excluded.
func (g *CallGraph) LockSummaries() map[FuncID]map[token.Pos]lockRef {
	g.lockOnce.Do(func() { g.locks = g.computeLockSummaries() })
	return g.locks
}

func (g *CallGraph) computeLockSummaries() map[FuncID]map[token.Pos]lockRef {
	sum := make(map[FuncID]map[token.Pos]lockRef, len(g.Nodes))
	for _, id := range g.IDs {
		sum[id] = make(map[token.Pos]lockRef)
		n := g.Nodes[id]
		for _, ev := range mutexEvents(n.Pkg, n.Decl.Body) {
			if !ev.lock || n.InAsync(ev.pos) {
				continue
			}
			sum[id][ev.class.ID] = lockRef{Class: ev.class, At: ev.pos, Rlock: ev.rlock}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, id := range g.IDs {
			n := g.Nodes[id]
			for _, cs := range n.Calls {
				if cs.Async || cs.GoCall {
					continue
				}
				for _, callee := range cs.SyncTargets() {
					cn := g.Nodes[callee]
					if cn == nil {
						continue
					}
					for lid, r := range sum[callee] {
						if _, ok := sum[id][lid]; ok {
							continue
						}
						via := cn.Name
						if r.Via != "" {
							via = cn.Name + " -> " + r.Via
						}
						sum[id][lid] = lockRef{Class: r.Class, At: cs.Pos, Rlock: r.Rlock, Via: via}
						changed = true
					}
				}
			}
		}
	}
	return sum
}

// ---------------------------------------------------------------------
// Mutex lock/unlock event extraction (shared by lockscope + lockorder).

type mutexEvent struct {
	pos      token.Pos
	class    stateClass
	expr     string // rendered lock expression, e.g. "s.mu"
	lock     bool   // Lock/RLock vs Unlock/RUnlock
	rlock    bool   // RLock/RUnlock
	deferred bool
}

// mutexEvents lists Lock/RLock/Unlock/RUnlock calls on sync.Mutex /
// sync.RWMutex values in body, in source order.
func mutexEvents(pkg *Package, body *ast.BlockStmt) []mutexEvent {
	var evs []mutexEvent
	deferredCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferredCalls[d.Call] = true
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
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
		t := pkg.Info.TypeOf(sel.X)
		if t == nil || !(namedTypePath(t, "sync", "Mutex") || namedTypePath(t, "sync", "RWMutex")) {
			return true
		}
		class, ok := classOf(pkg, sel.X)
		if !ok {
			class = stateClass{ID: call.Pos(), Display: exprText(sel.X)}
		}
		evs = append(evs, mutexEvent{
			pos:      call.Pos(),
			class:    class,
			expr:     exprText(sel.X),
			lock:     isLock,
			rlock:    name == "RLock" || name == "RUnlock",
			deferred: deferredCalls[call],
		})
		return true
	})
	return evs
}

// heldRegion is one span of a function body during which a lock is
// held. Regions never cross a goroutine boundary: events inside
// `go`-launched literal bodies pair among themselves.
type heldRegion struct {
	class stateClass
	expr  string // rendered lock expression for messages
	lo    token.Pos
	hi    token.Pos
	rlock bool // held via RLock
	async bool // region lives inside a go-launched body
}

// heldRegions pairs lock events into held spans, per context. A
// context is the function body or one function-literal body (closures
// pair their own lock events, exactly as the original per-funcBody
// lockscope did): an explicit Unlock bounds the region, `defer
// Unlock()` (or a Lock with no visible Unlock) extends it to the end
// of the containing context.
func heldRegions(n *CGNode) []heldRegion {
	evs := mutexEvents(n.Pkg, n.Decl.Body)
	type openLock struct {
		pos   token.Pos
		class stateClass
		rlock bool
	}
	var regions []heldRegion
	// The innermost literal body containing pos, or -1 for the function
	// proper. litRanges comes from a pre-order walk, so later entries
	// are nested deeper — scan backwards for the innermost.
	ctxOf := func(pos token.Pos) int {
		for i := len(n.litRanges) - 1; i >= 0; i-- {
			if posWithin(pos, n.litRanges[i].lo, n.litRanges[i].hi) {
				return i
			}
		}
		return -1
	}
	ctxEnd := func(ctx int) token.Pos {
		if ctx < 0 {
			return n.Decl.Body.End()
		}
		return n.litRanges[ctx].hi
	}
	ctxAsync := func(ctx int) bool { return ctx >= 0 && n.litRanges[ctx].async }
	type key struct {
		ctx  int
		expr string
	}
	open := make(map[key]openLock)
	var keys []key // insertion order for deterministic flush
	for _, e := range evs {
		k := key{ctx: ctxOf(e.pos), expr: e.expr}
		switch {
		case e.lock:
			if _, ok := open[k]; !ok {
				open[k] = openLock{pos: e.pos, class: e.class, rlock: e.rlock}
				keys = append(keys, k)
			}
		case e.deferred:
			if o, ok := open[k]; ok {
				regions = append(regions, heldRegion{class: o.class, expr: k.expr, lo: o.pos, hi: ctxEnd(k.ctx), rlock: o.rlock, async: ctxAsync(k.ctx)})
				delete(open, k)
			}
		default:
			if o, ok := open[k]; ok {
				regions = append(regions, heldRegion{class: o.class, expr: k.expr, lo: o.pos, hi: e.pos, rlock: o.rlock, async: ctxAsync(k.ctx)})
				delete(open, k)
			}
		}
	}
	for _, k := range keys {
		if o, ok := open[k]; ok {
			regions = append(regions, heldRegion{class: o.class, expr: k.expr, lo: o.pos, hi: ctxEnd(k.ctx), rlock: o.rlock, async: ctxAsync(k.ctx)})
			delete(open, k)
		}
	}
	sort.Slice(regions, func(i, j int) bool {
		if regions[i].lo != regions[j].lo {
			return regions[i].lo < regions[j].lo
		}
		return regions[i].expr < regions[j].expr
	})
	return regions
}

// contains reports whether pos executes while the region's lock is
// held: inside the span, and not inside a nested literal body the
// region's own Lock call is outside of (a closure may run on another
// goroutine or after the unlock; the original lockscope made the same
// conservative choice by treating every literal as its own function).
func (r *heldRegion) contains(n *CGNode, pos token.Pos) bool {
	if !posWithin(pos, r.lo, r.hi) {
		return false
	}
	for _, lr := range n.litRanges {
		if posWithin(pos, lr.lo, lr.hi) && !posWithin(r.lo, lr.lo, lr.hi) {
			return false
		}
	}
	return true
}

// describeFuncPos renders "file:line" for diagnostics embedded in
// messages (the lock graph's witnesses).
func describeFuncPos(m *Module, pos token.Pos) string {
	p := m.Fset.Position(pos)
	name := p.Filename
	if rel := relToModule(m, name); rel != "" {
		name = rel
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}

func relToModule(m *Module, file string) string {
	if m.Dir == "" {
		return ""
	}
	prefix := m.Dir + string([]rune{'/'})
	if strings.HasPrefix(file, prefix) {
		return file[len(prefix):]
	}
	return ""
}
