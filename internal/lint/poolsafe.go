package lint

// poolsafe: no function transitively reachable while holding a sim.Pool
// slot may acquire from the same pool. A pool slot is held for the whole
// dynamic extent of the job passed to Do/DoNamed/Each; if that job (or
// anything it calls, or a goroutine it launches and joins) acquires from
// the same pool, the run deadlocks as soon as the pool saturates — every slot
// holder is waiting for a slot. PR 9 hit exactly this between the sweep's
// scenario pool and the experiment pipeline's stage pool and had to inline
// the inner pipeline by hand; this analyzer machine-checks the fix.
//
// The walk is a bounded interprocedural pass over the progIndex call
// graph: starting at the job closure, pool-typed arguments (and receivers
// whose fields hold the pool) are bound at each static call edge and
// traced through reaching definitions. Indirect calls (func-typed fields,
// interface methods) are not traversed — a deliberate soundness bound,
// matched by the repo's "leaf jobs only" pool discipline. Acquisitions
// whose pool provably differs (nil, a locally constructed New* pool, a
// distinct variable) pass; acquisitions on the held pool are findings, and
// untraceable origins are conservative findings.

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// PoolSafeAnalyzer detects nested acquisition of a held worker pool.
var PoolSafeAnalyzer = &Analyzer{
	Name: "poolsafe",
	Doc:  "a job holding a sim.Pool slot must not re-acquire from the same pool (nested acquisition deadlocks under saturation)",
	Keys: []string{"pool"},
	Run:  runPoolSafe,
}

// poolAcquire classifies call as a slot acquisition (Do/DoNamed/Each on a
// configured pool type) and returns the receiver and the job argument.
func poolAcquire(cfg Config, info *types.Info, call *ast.CallExpr) (recv, job ast.Expr, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, false
	}
	fn := staticCallee(info, call)
	if fn == nil || (fn.Name() != "Do" && fn.Name() != "DoNamed" && fn.Name() != "Each") {
		return nil, nil, false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || !contains(cfg.PoolTypes, typeQName(sig.Recv().Type())) {
		return nil, nil, false
	}
	for i := len(call.Args) - 1; i >= 0; i-- {
		if t := info.Types[call.Args[i]].Type; t != nil {
			if _, isFn := t.Underlying().(*types.Signature); isFn {
				return sel.X, call.Args[i], true
			}
		}
	}
	return sel.X, nil, true
}

// poolVal is the origin lattice for a value relative to the held pool.
type poolVal struct {
	kind byte   // 'h' leads to the held pool, 'n' provably not it, 'u' unknown
	path string // for 'h': remaining field path to the pool ("" = is the pool)
}

type poolFrame struct {
	sc    *fnScope
	bind  map[types.Object]poolVal
	chain []string
}

type poolWalker struct {
	p        *Pass
	heldRoot types.Object
	heldPath string
	outer    *ast.CallExpr
	method   string
	visited  map[string]bool
	reported map[string]bool
	depth    int
}

func runPoolSafe(p *Pass) {
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sc := declScope(p.prog(), p.Pkg, fd)
			visitFuncBody(sc, func(n ast.Node, nsc *fnScope) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				recv, job, ok := poolAcquire(p.Config, p.Pkg.Info, call)
				if !ok || job == nil {
					return true
				}
				root, path, ok := rootPath(p.Pkg.Info, recv)
				if !ok || root == nil {
					return true
				}
				w := &poolWalker{
					p: p, heldRoot: root, heldPath: path, outer: call,
					method:   staticCallee(p.Pkg.Info, call).Name(),
					visited:  map[string]bool{},
					reported: map[string]bool{},
				}
				w.walkJob(job, nsc)
				return true
			})
		}
	}
}

// walkJob resolves the job expression to a body and walks it.
func (w *poolWalker) walkJob(job ast.Expr, sc *fnScope) {
	switch j := ast.Unparen(job).(type) {
	case *ast.FuncLit:
		child := newFnScope(sc.ix, sc.pkg, sc, j.Body, j.Type, nil)
		w.walkBody(&poolFrame{sc: child, bind: map[types.Object]poolVal{}})
	case *ast.Ident:
		if fn, ok := sc.pkg.Info.ObjectOf(j).(*types.Func); ok {
			w.walkCallee(fn, map[types.Object]poolVal{}, nil)
			return
		}
		for _, d := range sc.defsOf(j) {
			if d.rhs != nil {
				w.walkJob(d.rhs, sc)
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := sc.pkg.Info.Uses[j.Sel].(*types.Func); ok {
			w.walkCallee(fn, map[types.Object]poolVal{}, nil)
		}
	}
}

// walkCallee walks a named function used as a job (or reached through a
// call edge) under the given parameter bindings.
func (w *poolWalker) walkCallee(fn *types.Func, bind map[types.Object]poolVal, chain []string) {
	src := w.p.prog().srcOf(fn)
	if src == nil {
		return
	}
	key := fn.FullName() + "|" + bindFingerprint(bind)
	if w.visited[key] {
		return
	}
	w.visited[key] = true
	w.walkBody(&poolFrame{
		sc:    declScope(w.p.prog(), src.pkg, src.decl),
		bind:  bind,
		chain: append(append([]string(nil), chain...), qualFnName(fn)),
	})
}

// walkBody scans one function body (closures and goroutine bodies
// included — a job that launches and joins goroutines still holds the
// slot while they run) for acquisitions and static call edges.
func (w *poolWalker) walkBody(f *poolFrame) {
	if w.depth > 40 {
		return
	}
	info := f.sc.pkg.Info
	visitFuncBody(f.sc, func(n ast.Node, nsc *fnScope) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		nf := &poolFrame{sc: nsc, bind: f.bind, chain: f.chain}
		if recv, _, ok := poolAcquire(w.p.Config, info, call); ok {
			switch v := w.classify(recv, nf); v.kind {
			case 'h':
				if v.path == "" {
					w.report(call, nf, true)
				}
			case 'u':
				w.report(call, nf, false)
			}
			return true
		}
		w.callEdge(call, nf)
		return true
	})
}

// callEdge binds pool-relevant arguments at a static call and walks the
// callee when any binding can reach the held pool.
func (w *poolWalker) callEdge(call *ast.CallExpr, f *poolFrame) {
	info := f.sc.pkg.Info
	fn := staticCallee(info, call)
	if fn == nil {
		return
	}
	src := w.p.prog().srcOf(fn)
	if src == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	bind := map[types.Object]poolVal{}
	interesting := false

	bindOne := func(obj types.Object, arg ast.Expr) {
		if obj == nil || arg == nil {
			return
		}
		v := w.classify(arg, f)
		bind[obj] = v
		if v.kind != 'n' {
			interesting = true
		}
	}

	// Receiver: the callee sees it as its receiver object.
	if sig.Recv() != nil && src.decl.Recv != nil && len(src.decl.Recv.List) > 0 && len(src.decl.Recv.List[0].Names) > 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			bindOne(src.pkg.Info.Defs[src.decl.Recv.List[0].Names[0]], sel.X)
		}
	}
	// Positional parameters, matched to the declaration's param objects.
	params := declParamObjs(src)
	n := len(call.Args)
	if sig.Variadic() && len(params) > 0 {
		if n > len(params)-1 {
			n = len(params) - 1 // variadic tail not bound
		}
	}
	for i := 0; i < n && i < len(params); i++ {
		bindOne(params[i], call.Args[i])
	}

	if !interesting {
		return
	}
	key := fn.FullName() + "|" + bindFingerprint(bind)
	if w.visited[key] {
		return
	}
	w.visited[key] = true
	w.depth++
	w.walkBody(&poolFrame{
		sc:    declScope(w.p.prog(), src.pkg, src.decl),
		bind:  bind,
		chain: append(append([]string(nil), f.chain...), qualFnName(fn)),
	})
	w.depth--
}

// classify resolves an expression's origin relative to the held pool.
func (w *poolWalker) classify(e ast.Expr, f *poolFrame) poolVal {
	return w.classifyDepth(e, f, 0)
}

func (w *poolWalker) classifyDepth(e ast.Expr, f *poolFrame, depth int) poolVal {
	if depth > 8 {
		return poolVal{kind: 'u'}
	}
	info := f.sc.pkg.Info
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.IsNil() {
		return poolVal{kind: 'n'}
	}
	if call, ok := e.(*ast.CallExpr); ok {
		fn := staticCallee(info, call)
		if fn != nil && fn.Type().(*types.Signature).Recv() == nil && strings.HasPrefix(fn.Name(), "New") {
			return poolVal{kind: 'n'} // freshly constructed pool
		}
		return poolVal{kind: 'u'}
	}
	root, path, ok := rootPath(info, e)
	if !ok || root == nil {
		return poolVal{kind: 'u'}
	}
	// The held pool itself, or a container on the way to it.
	if root == w.heldRoot {
		if path == w.heldPath {
			return poolVal{kind: 'h'}
		}
		if rest, isPrefix := strings.CutPrefix(w.heldPath, path); isPrefix && (path == "" || strings.HasPrefix(rest, ".")) {
			return poolVal{kind: 'h', path: rest}
		}
		return poolVal{kind: 'n'}
	}
	if b, ok := f.bind[root]; ok {
		switch b.kind {
		case 'h':
			if path == b.path {
				return poolVal{kind: 'h'}
			}
			if rest, isPrefix := strings.CutPrefix(b.path, path); isPrefix && (path == "" || strings.HasPrefix(rest, ".")) {
				return poolVal{kind: 'h', path: rest}
			}
			return poolVal{kind: 'n'}
		default:
			return poolVal{kind: b.kind}
		}
	}
	// Distinct package-level variable: a different object than the held
	// root, so a different pool.
	if v, isVar := root.(*types.Var); isVar && localVar(root) == nil && !v.IsField() {
		return poolVal{kind: 'n'}
	}
	// Local variable (or free variable of an enclosing scope): trace its
	// definitions.
	if id := baseIdent(e); id != nil {
		defs := f.sc.defsOf(id)
		if len(defs) == 0 {
			return poolVal{kind: 'u'}
		}
		out := poolVal{kind: 'n'}
		for _, d := range defs {
			var v poolVal
			switch {
			case d.isParam:
				v = poolVal{kind: 'u'} // unbound parameter: cannot prove distinct
			case d.rhs == nil:
				v = poolVal{kind: 'u'}
			default:
				v = w.classifyDepth(d.rhs, f, depth+1)
			}
			if v.kind == 'h' {
				return poolVal{kind: 'h', path: v.path + path}
			}
			if v.kind == 'u' {
				out = v
			}
		}
		return out
	}
	return poolVal{kind: 'u'}
}

func (w *poolWalker) report(inner *ast.CallExpr, f *poolFrame, proven bool) {
	key := w.p.Pkg.Fset.Position(w.outer.Pos()).String() + "|" + f.sc.pkg.Fset.Position(inner.Pos()).String()
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	where := "this job"
	if len(f.chain) > 0 {
		where = strings.Join(f.chain, " → ")
	}
	at := w.p.suite.relPath(f.sc.pkg.Fset.Position(inner.Pos()).String())
	if proven {
		w.p.Reportf(w.outer.Pos(), "pool",
			"job passed to this %s call re-acquires the pool whose slot it holds (%s at %s): nested acquisition deadlocks once the pool saturates — run the inner stage inline on a nil pool or give it a distinct pool",
			w.method, where, at)
		return
	}
	w.p.Reportf(w.outer.Pos(), "pool",
		"job passed to this %s call acquires a pool of unprovable origin (%s at %s) while holding a slot: if it is the same pool, a saturated run deadlocks — pass nil/a fresh pool explicitly, or annotate //lint:pool <why> after auditing",
		w.method, where, at)
}

// declParamObjs returns the declared parameter objects of a function in
// positional order.
func declParamObjs(src *funcSrc) []types.Object {
	var out []types.Object
	if src.decl.Type.Params == nil {
		return out
	}
	for _, field := range src.decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil) // unnamed: position consumed, unbindable
			continue
		}
		for _, name := range field.Names {
			out = append(out, src.pkg.Info.Defs[name])
		}
	}
	return out
}

func bindFingerprint(bind map[types.Object]poolVal) string {
	parts := make([]string, 0, len(bind))
	for obj, v := range bind {
		if obj == nil {
			continue
		}
		parts = append(parts, obj.Name()+"="+string(v.kind)+v.path)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func qualFnName(fn *types.Func) string {
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// baseIdent returns the root identifier of a selector/star/paren chain.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}
