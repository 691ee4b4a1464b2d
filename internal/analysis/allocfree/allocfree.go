// Package allocfree statically proves the zero-allocation contract of
// the per-frame hot path (DESIGN.md §11): functions annotated
// //slj:hotpath are roots; every function transitively reachable from a
// root through the program call graph (see internal/analysis/callgraph)
// is scanned for heap-allocating constructs, and each finding is
// reported with the full root→sink call chain that makes it hot.
//
// Flagged constructs:
//
//   - make of any slice, map, or channel
//   - append without visible capacity discipline (see below)
//   - slice and map composite literals
//   - new(T) and &T{…} composite literals that escape the function
//   - func literals capturing enclosing variables, and method values
//     (both compile to heap-allocated closures) — EXCEPT a local helper
//     closure that never leaves the function (bound to one local var
//     whose every other use is a direct call, or invoked immediately):
//     the compiler stack-allocates those, and their bodies are scanned
//     inline as part of the enclosing function anyway
//   - interface conversions (boxing), including variadic ...any calls
//   - string concatenation and string↔[]byte/[]rune conversions
//   - go statements (goroutine stacks are allocations, and a hot path
//     should not be spawning)
//   - calls into functions whose bodies are outside the analyzed
//     program (stdlib, assembly) unless allowlisted as non-allocating
//   - calls through func values, which defeat static reachability,
//     unless narrowed with //slj:dyncall <target>
//
// Capacity discipline for append: the destination is a reslice
// (x[:0], x[a:b]), or the statement is a self-append to a struct field
// (x.f = append(x.f, …) — the arena-slot idiom, truncated elsewhere via
// [:0]), or the destination local was visibly initialised in the same
// function from a reslice, a 3-arg make, or a callee's return value (the
// callee is itself scanned). Everything else — classically
// x = append(x, …) on a fresh local — is an append regrowth finding.
//
// Suppression: //slj:alloc-ok <reason> on (or directly above) the line.
// The reason is mandatory — a bare //slj:alloc-ok is its own finding.
// On a call site, alloc-ok additionally prunes traversal into the callee:
// the call is an accepted allocation boundary (cold error path, non-arena
// fallback, sync.Pool amortisation), so nothing beyond it is scanned.
//
// Soundness caveats (see DESIGN.md §13): interface calls traverse to
// every program type implementing the interface, but implementations
// outside the program are invisible; self-appends to fields and
// reslice-disciplined appends may still grow on capacity misses (the
// bench gate proves the steady state); package initialisers and
// variables are not roots.
package allocfree

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the allocfree whole-program analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "allocfree",
	Doc:        "prove //slj:hotpath roots allocation-free across the whole program call graph",
	RunProgram: run,
}

// allowExternal lists functions outside the program that are known not
// to allocate on any path, keyed by package path (whole package) and by
// full function name.
var allowExternalPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

var allowExternalFuncs = map[string]bool{
	"errors.Is":                   true,
	"errors.As":                   true,
	"time.Now":                    true,
	"time.Since":                  true,
	"(time.Time).Sub":             true,
	"(time.Duration).Nanoseconds": true,
	"(time.Duration).Seconds":     true,
	"slices.Sort":                 true,
	"slices.SortStableFunc":       true,
	"sort.Search":                 true,
	"runtime.KeepAlive":           true,
	// A fixed-width load from a slice; the compiler lowers it to one
	// MOV.
	"(encoding/binary.littleEndian).Uint64": true,
}

// Roots returns the //slj:hotpath-annotated root nodes of the graph,
// sorted by name.
func Roots(pass *analysis.Pass, g *callgraph.Graph) []*callgraph.Node {
	var roots []*callgraph.Node
	for _, n := range g.Nodes() {
		if n.External() {
			continue
		}
		if pass.Annotated(n.Decl.Pos(), "hotpath") {
			roots = append(roots, n)
		}
	}
	return roots
}

// Follow returns the edge-traversal policy used for reachability: static
// and //slj:dyncall-narrowed edges plus interface over-approximation
// edges are followed into program functions; func-value over-approx
// edges are not (the call site itself is reported unless narrowed), nor
// are edges whose call site an //slj:alloc-ok annotation marks as an
// accepted allocation boundary.
func Follow(pass *analysis.Pass) func(*callgraph.Edge) bool {
	return func(e *callgraph.Edge) bool {
		if e.Callee.External() {
			return false
		}
		if e.Kind == callgraph.FuncValue {
			return false
		}
		if e.Site != nil && pass.Annotated(e.Site.Pos(), "alloc-ok") {
			return false
		}
		return true
	}
}

// HotPath computes the call graph, hotpath roots, and the BFS parent map
// of the reachable set for prog. Exported for sljcheck -hotpath.
func HotPath(pass *analysis.Pass) (*callgraph.Graph, []*callgraph.Node, map[*callgraph.Node]*callgraph.Edge) {
	g := callgraph.Build(pass.Program, pass.Annotation)
	roots := Roots(pass, g)
	parents := g.Parents(roots, Follow(pass))
	return g, roots, parents
}

func run(pass *analysis.Pass) error {
	g, roots, parents := HotPath(pass)
	if len(roots) == 0 {
		return nil
	}

	// Deterministic scan order: reachable nodes by name.
	var reach []*callgraph.Node
	for n := range parents {
		if !n.External() {
			reach = append(reach, n)
		}
	}
	sort.Slice(reach, func(i, j int) bool { return reach[i].Name() < reach[j].Name() })

	for _, n := range reach {
		s := &scanner{pass: pass, g: g, node: n, chain: callgraph.Chain(parents, n)}
		s.scan()
	}
	return nil
}

// scanner walks one reachable function body for allocation sinks.
type scanner struct {
	pass  *analysis.Pass
	g     *callgraph.Graph
	node  *callgraph.Node
	chain []string
}

// report emits one finding at pos unless an //slj:alloc-ok with a reason
// covers the line; a reason-less alloc-ok is converted into its own
// finding so every suppression in the tree documents itself.
func (s *scanner) report(pos token.Pos, format string, args ...any) {
	if reason, ok := s.pass.Annotation(pos, "alloc-ok"); ok {
		if strings.TrimSpace(reason) == "" {
			s.pass.ReportChain(pos, s.chain, "hot path: //slj:alloc-ok must carry a reason")
		}
		return
	}
	msg := fmt.Sprintf(format, args...)
	s.pass.ReportChain(pos, s.chain, "hot path: %s [%s]", msg, strings.Join(s.chain, " → "))
}

func (s *scanner) scan() {
	decl := s.node.Decl
	if decl.Body == nil {
		return
	}
	info := s.pass.Info
	analysis.WalkStack(decl.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			return s.call(n, stack)
		case *ast.CompositeLit:
			s.compositeLit(n, stack)
		case *ast.FuncLit:
			s.funcLit(n, stack, decl)
		case *ast.GoStmt:
			s.report(n.Pos(), "go statement launches a goroutine")
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n)) {
				s.report(n.Pos(), "string concatenation allocates")
			}
		case *ast.SelectorExpr:
			s.methodValue(n, stack)
		case *ast.AssignStmt:
			s.boxingAssign(n)
		case *ast.ValueSpec:
			s.boxingValueSpec(n)
		case *ast.ReturnStmt:
			s.boxingReturn(n, stack, decl)
		}
		return true
	})
}

// call handles every call expression: builtins (make/append/new),
// conversions, external callees, dynamic dispatch, and argument boxing.
// It returns false to skip the subtree only for panic calls (terminal,
// never hot).
func (s *scanner) call(call *ast.CallExpr, stack []ast.Node) bool {
	info := s.pass.Info
	fun := ast.Unparen(call.Fun)

	// Builtin?
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				s.report(call.Pos(), "make(%s) allocates", typeLabel(info.TypeOf(call)))
			case "append":
				s.appendCall(call, stack)
			case "new":
				s.escapingAlloc(call, stack, "new(T)")
			case "panic":
				// Terminal; a panicking frame is never the steady state.
				return false
			case "print", "println":
				s.report(call.Pos(), "%s allocates", b.Name())
			}
			return true
		}
	}

	// Conversion?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		s.conversion(call)
		return true
	}

	// Resolved edges for this site.
	edges := s.g.BySite[call]
	dyn := s.g.SiteDyn[call]
	switch {
	case dyn != nil && dyn.Narrowed:
		for _, t := range dyn.Unmatched {
			s.report(call.Pos(), "//slj:dyncall target %q matches no program function", t)
		}
	case dyn != nil && dyn.Kind == callgraph.FuncValue:
		// A direct call to a non-escaping local closure is not dynamic in
		// any way that matters: the single possible body is scanned inline.
		if id, ok := fun.(*ast.Ident); ok {
			if obj, ok := s.pass.Info.ObjectOf(id).(*types.Var); ok && s.localClosure(obj) != nil {
				break
			}
		}
		s.report(call.Pos(), "dynamic call through a func value defeats static analysis; narrow with //slj:dyncall <target>")
	case dyn != nil && dyn.Kind == callgraph.Interface:
		// Sound over-approximation: every program implementation is
		// already in the reachable set. Nothing to report.
	default:
		for _, e := range edges {
			if e.Callee.External() && !allowedExternal(e.Callee.Func) {
				s.report(call.Pos(), "call into %s, whose body is outside the analyzed program", e.Callee.Name())
			}
		}
	}

	// Variadic/interface-parameter boxing of the arguments.
	s.boxingCall(call)
	return true
}

// appendCall enforces the capacity discipline documented in the package
// comment.
func (s *scanner) appendCall(call *ast.CallExpr, stack []ast.Node) {
	if len(call.Args) == 0 {
		return
	}
	dst := ast.Unparen(call.Args[0])

	// append(x[:0], …) / append(x[a:b], …): reslice discipline.
	if _, ok := dst.(*ast.SliceExpr); ok {
		return
	}

	// Self-append to a struct field: x.f = append(x.f, …) — the arena
	// slot idiom.
	if assign := enclosingAssign(stack); assign != nil && len(assign.Lhs) == 1 {
		if sel, ok := ast.Unparen(assign.Lhs[0]).(*ast.SelectorExpr); ok {
			if types.ExprString(sel) == types.ExprString(dst) {
				return
			}
		}
	}

	// Destination local visibly initialised with capacity discipline.
	if id, ok := dst.(*ast.Ident); ok {
		if obj, ok := s.pass.Info.ObjectOf(id).(*types.Var); ok && s.disciplinedLocal(obj) {
			return
		}
	}

	s.report(call.Pos(), "append to %s may grow the backing array", types.ExprString(dst))
}

// disciplinedLocal reports whether some assignment in the scanned
// function initialises obj from a reslice, a 3-arg make, or a call
// result (whose own allocations are the callee's findings).
func (s *scanner) disciplinedLocal(obj *types.Var) bool {
	if !analysis.DeclaredWithin(obj, s.node.Decl) {
		return false
	}
	ok := false
	ast.Inspect(s.node.Decl.Body, func(n ast.Node) bool {
		if ok {
			return false
		}
		assign, isAssign := n.(*ast.AssignStmt)
		if !isAssign {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, isIdent := ast.Unparen(lhs).(*ast.Ident)
			if !isIdent || s.pass.Info.ObjectOf(id) != obj {
				continue
			}
			var rhs ast.Expr
			if len(assign.Rhs) == len(assign.Lhs) {
				rhs = ast.Unparen(assign.Rhs[i])
			} else if len(assign.Rhs) == 1 {
				rhs = ast.Unparen(assign.Rhs[0])
			}
			switch r := rhs.(type) {
			case *ast.SliceExpr:
				ok = true
			case *ast.CallExpr:
				// make([]T, n, c) or a scanned callee's return value.
				if id, isID := ast.Unparen(r.Fun).(*ast.Ident); isID {
					if b, isB := s.pass.Info.Uses[id].(*types.Builtin); isB {
						if b.Name() == "make" && len(r.Args) == 3 {
							ok = true
						}
						break
					}
				}
				ok = true
			}
		}
		return !ok
	})
	return ok
}

// escapingAlloc flags new(T) / &T{…} when the value escapes the scanned
// function under a simple, conservative approximation: the expression
// appears directly in a return, call argument, composite-literal
// element, channel send, go/defer, or an assignment to anything but a
// fresh local — or it is bound to a local that is later used in one of
// those positions.
func (s *scanner) escapingAlloc(expr ast.Expr, stack []ast.Node, label string) {
	esc, how := s.escapes(expr, stack)
	if !esc {
		return
	}
	s.report(expr.Pos(), "%s escapes (%s) and allocates", label, how)
}

func (s *scanner) escapes(expr ast.Expr, stack []ast.Node) (bool, string) {
	// Walk outward past parens.
	i := len(stack) - 2
	for i >= 0 {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			i--
			continue
		}
		break
	}
	if i < 0 {
		return true, "unknown context"
	}
	switch parent := stack[i].(type) {
	case *ast.ReturnStmt:
		return true, "returned"
	case *ast.CallExpr:
		if parent.Fun != expr {
			return true, "passed to a call"
		}
	case *ast.CompositeLit:
		return true, "stored in a composite literal"
	case *ast.SendStmt:
		return true, "sent on a channel"
	case *ast.KeyValueExpr:
		return true, "stored in a composite literal"
	case *ast.IndexExpr:
		return true, "stored by index"
	case *ast.UnaryExpr:
		// &(&T{}) is not legal; ignore.
	case *ast.AssignStmt:
		// Assigned where?
		for j, rhs := range parent.Rhs {
			if ast.Unparen(rhs) != expr && rhs != expr {
				continue
			}
			if j >= len(parent.Lhs) {
				return true, "assigned"
			}
			lhs := ast.Unparen(parent.Lhs[j])
			id, ok := lhs.(*ast.Ident)
			if !ok {
				return true, "assigned to a non-local"
			}
			obj, ok := s.pass.Info.ObjectOf(id).(*types.Var)
			if !ok || !analysis.DeclaredWithin(obj, s.node.Decl) {
				return true, "assigned to a non-local"
			}
			if how, esc := s.localEscapes(obj); esc {
				return true, how
			}
			return false, ""
		}
	}
	return false, ""
}

// localEscapes reports whether a local var bound to a fresh allocation
// later flows out of the function.
func (s *scanner) localEscapes(obj *types.Var) (string, bool) {
	how := ""
	ast.Inspect(s.node.Decl.Body, func(n ast.Node) bool {
		if how != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if s.usesObj(r, obj) {
					how = "returned via local"
				}
			}
		case *ast.CallExpr:
			for _, a := range n.Args {
				if id, ok := ast.Unparen(a).(*ast.Ident); ok && s.pass.Info.ObjectOf(id) == obj {
					how = "passed to a call via local"
				}
			}
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				id, ok := ast.Unparen(r).(*ast.Ident)
				if !ok || s.pass.Info.ObjectOf(id) != obj || i >= len(n.Lhs) {
					continue
				}
				lhs := ast.Unparen(n.Lhs[i])
				if lid, ok := lhs.(*ast.Ident); ok {
					if lobj, ok := s.pass.Info.ObjectOf(lid).(*types.Var); ok && analysis.DeclaredWithin(lobj, s.node.Decl) {
						continue
					}
				}
				how = "stored outside the frame via local"
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if id, ok := ast.Unparen(el).(*ast.Ident); ok && s.pass.Info.ObjectOf(id) == obj {
					how = "stored in a composite literal via local"
				}
			}
		case *ast.SendStmt:
			if id, ok := ast.Unparen(n.Value).(*ast.Ident); ok && s.pass.Info.ObjectOf(id) == obj {
				how = "sent on a channel via local"
			}
		}
		return how == ""
	})
	return how, how != ""
}

func (s *scanner) usesObj(e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && s.pass.Info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// compositeLit flags slice/map literals always, and &struct{…} literals
// when they escape.
func (s *scanner) compositeLit(lit *ast.CompositeLit, stack []ast.Node) {
	t := s.pass.Info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		s.report(lit.Pos(), "slice literal %s allocates", typeLabel(t))
		return
	case *types.Map:
		s.report(lit.Pos(), "map literal %s allocates", typeLabel(t))
		return
	}
	// &T{…}: the parent unary & decides.
	if len(stack) >= 2 {
		if u, ok := stack[len(stack)-2].(*ast.UnaryExpr); ok && u.Op == token.AND {
			// Drop the unary from the stack view so escape context is the
			// &-expression's parent.
			s.escapingAlloc(u, stack[:len(stack)-1], "&"+typeLabel(t)+"{} composite literal")
		}
	}
}

// funcLit flags closures that capture enclosing variables — unless the
// literal never leaves the function: invoked immediately, or bound to a
// local var whose every other use is a direct call (a named local
// helper). Those stay on the stack.
func (s *scanner) funcLit(lit *ast.FuncLit, stack []ast.Node, decl *ast.FuncDecl) {
	if len(stack) >= 2 {
		switch parent := stack[len(stack)-2].(type) {
		case *ast.CallExpr:
			if ast.Unparen(parent.Fun) == lit {
				return // immediately invoked
			}
		case *ast.AssignStmt:
			for i, rhs := range parent.Rhs {
				if ast.Unparen(rhs) != lit || i >= len(parent.Lhs) {
					continue
				}
				if id, ok := ast.Unparen(parent.Lhs[i]).(*ast.Ident); ok {
					if obj, ok := s.pass.Info.ObjectOf(id).(*types.Var); ok && s.localClosure(obj) == lit {
						return // non-escaping named local helper
					}
				}
			}
		case *ast.ValueSpec:
			for i, v := range parent.Values {
				if ast.Unparen(v) != lit || i >= len(parent.Names) {
					continue
				}
				if obj, ok := s.pass.Info.ObjectOf(parent.Names[i]).(*types.Var); ok && s.localClosure(obj) == lit {
					return
				}
			}
		}
	}
	var captured []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := s.pass.Info.Uses[id].(*types.Var)
		if !ok || seen[obj] {
			return true
		}
		// Captured: declared in the enclosing function but not inside the
		// literal itself. Package-level vars are not captures.
		if analysis.DeclaredWithin(obj, decl) && !analysis.DeclaredWithin(obj, lit) {
			seen[obj] = true
			captured = append(captured, obj.Name())
		}
		return true
	})
	if len(captured) > 0 {
		sort.Strings(captured)
		s.report(lit.Pos(), "closure captures %s and allocates", strings.Join(captured, ", "))
	}
}

// localClosure returns the one FuncLit bound to obj when obj is a local
// func variable that never leaves the scanned function: exactly one
// binding assignment whose RHS is a func literal, and every other use of
// obj is a direct call obj(…). Recursion through the variable (the
// `var visit func(int); visit = func(i int){ … visit(j) … }` idiom)
// counts as a call use and is fine. Any other use — passed as an
// argument, returned, stored — disqualifies.
func (s *scanner) localClosure(obj *types.Var) *ast.FuncLit {
	if !analysis.DeclaredWithin(obj, s.node.Decl) {
		return nil
	}
	var lit *ast.FuncLit
	bindings := 0
	escapes := false
	analysis.WalkStack(s.node.Decl.Body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || s.pass.Info.ObjectOf(id) != obj || escapes {
			return !escapes
		}
		// Walk outward past parens to the governing construct.
		i := len(stack) - 2
		for i >= 0 {
			if _, isParen := stack[i].(*ast.ParenExpr); isParen {
				i--
				continue
			}
			break
		}
		if i < 0 {
			escapes = true
			return false
		}
		switch parent := stack[i].(type) {
		case *ast.CallExpr:
			if ast.Unparen(parent.Fun) != id {
				escapes = true // passed as an argument
			}
		case *ast.AssignStmt:
			// Binding assignment? id on the LHS with a FuncLit RHS.
			bound := false
			for j, lhs := range parent.Lhs {
				if ast.Unparen(lhs) != id {
					continue
				}
				bound = true
				if j < len(parent.Rhs) {
					if l, ok := ast.Unparen(parent.Rhs[j]).(*ast.FuncLit); ok {
						lit = l
						bindings++
						continue
					}
				}
				escapes = true // rebound to something unanalyzable
			}
			if !bound {
				escapes = true // id on the RHS: the closure value flows out
			}
		case *ast.ValueSpec:
			for j, name := range parent.Names {
				if name != id {
					continue
				}
				if j < len(parent.Values) {
					if l, ok := ast.Unparen(parent.Values[j]).(*ast.FuncLit); ok {
						lit = l
						bindings++
					} else {
						escapes = true
					}
				}
				// `var f func(int)` with no value: the later binding
				// assignment supplies the literal.
			}
		default:
			escapes = true
		}
		return !escapes
	})
	if escapes || bindings != 1 {
		return nil
	}
	return lit
}

// methodValue flags x.M used as a value (a bound-method closure).
func (s *scanner) methodValue(sel *ast.SelectorExpr, stack []ast.Node) {
	selection, ok := s.pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	// Called directly? Then it is dispatch, not a value.
	if len(stack) >= 2 {
		if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == sel {
			return
		}
	}
	s.report(sel.Pos(), "method value %s allocates a bound closure", types.ExprString(sel))
}

// conversion flags string↔byte/rune-slice conversions and conversions
// to interface types.
func (s *scanner) conversion(call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	to := s.pass.Info.TypeOf(call)
	from := s.pass.Info.TypeOf(call.Args[0])
	if to == nil || from == nil {
		return
	}
	if types.IsInterface(to) && !types.IsInterface(from) {
		s.report(call.Pos(), "conversion of %s to interface %s boxes", typeLabel(from), typeLabel(to))
		return
	}
	toU, fromU := to.Underlying(), from.Underlying()
	if isString(toU) && (isByteOrRuneSlice(fromU) || isRune(fromU)) {
		s.report(call.Pos(), "%s→string conversion allocates", typeLabel(from))
	}
	if isByteOrRuneSlice(toU) && isString(fromU) {
		s.report(call.Pos(), "string→%s conversion allocates", typeLabel(to))
	}
}

// boxingCall flags non-interface arguments passed in interface-typed
// parameter slots (including variadic ...any, the fmt idiom).
func (s *scanner) boxingCall(call *ast.CallExpr) {
	sig, ok := s.pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
			if call.Ellipsis.IsValid() {
				pt = last // s… forwarding: no per-element boxing
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := s.pass.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isUntypedNil(s.pass, arg) {
			continue
		}
		s.report(arg.Pos(), "argument %s boxes %s into interface %s", types.ExprString(arg), typeLabel(at), typeLabel(pt))
	}
}

// boxingAssign flags assignments of non-interface values to
// interface-typed destinations.
func (s *scanner) boxingAssign(assign *ast.AssignStmt) {
	if len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i := range assign.Lhs {
		lt := s.pass.Info.TypeOf(assign.Lhs[i])
		rt := s.pass.Info.TypeOf(assign.Rhs[i])
		if lt == nil || rt == nil {
			continue
		}
		if assign.Tok == token.DEFINE {
			continue // := takes the RHS type; no conversion
		}
		if types.IsInterface(lt) && !types.IsInterface(rt) && !isUntypedNil(s.pass, assign.Rhs[i]) {
			s.report(assign.Rhs[i].Pos(), "assignment boxes %s into interface %s", typeLabel(rt), typeLabel(lt))
		}
	}
}

// boxingValueSpec is boxingAssign for `var x I = v` declarations.
func (s *scanner) boxingValueSpec(spec *ast.ValueSpec) {
	if spec.Type == nil {
		return
	}
	lt := s.pass.Info.TypeOf(spec.Type)
	if lt == nil || !types.IsInterface(lt) {
		return
	}
	for _, v := range spec.Values {
		rt := s.pass.Info.TypeOf(v)
		if rt == nil || types.IsInterface(rt) || isUntypedNil(s.pass, v) {
			continue
		}
		s.report(v.Pos(), "declaration boxes %s into interface %s", typeLabel(rt), typeLabel(lt))
	}
}

// boxingReturn flags returning non-interface values from interface-typed
// results. The governing signature is the nearest enclosing func literal
// on the walk stack, if any, else the scanned declaration's.
func (s *scanner) boxingReturn(ret *ast.ReturnStmt, stack []ast.Node, decl *ast.FuncDecl) {
	var sig *types.Signature
	for i := len(stack) - 2; i >= 0 && sig == nil; i-- {
		if lit, ok := stack[i].(*ast.FuncLit); ok {
			sig, _ = s.pass.Info.TypeOf(lit).(*types.Signature)
		}
	}
	if sig == nil {
		obj, ok := s.pass.Info.Defs[decl.Name].(*types.Func)
		if !ok {
			return
		}
		sig = obj.Type().(*types.Signature)
	}
	results := sig.Results()
	if results == nil || len(ret.Results) != results.Len() {
		return
	}
	for i, r := range ret.Results {
		lt := results.At(i).Type()
		rt := s.pass.Info.TypeOf(r)
		if rt == nil || !types.IsInterface(lt) || types.IsInterface(rt) || isUntypedNil(s.pass, r) {
			continue
		}
		s.report(r.Pos(), "return boxes %s into interface %s", typeLabel(rt), typeLabel(lt))
	}
}

func allowedExternal(f *types.Func) bool {
	if f.Pkg() != nil && allowExternalPkgs[f.Pkg().Path()] {
		return true
	}
	return allowExternalFuncs[f.FullName()]
}

func enclosingAssign(stack []ast.Node) *ast.AssignStmt {
	for i := len(stack) - 2; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.AssignStmt:
			return n
		case *ast.BlockStmt, *ast.FuncDecl, *ast.FuncLit:
			return nil
		}
	}
	return nil
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isRune(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Rune || b.Kind() == types.Int32 || b.Kind() == types.UntypedRune)
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

func isUntypedNil(pass *analysis.Pass, e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name == "nil" {
		return pass.Info.ObjectOf(id) == types.Universe.Lookup("nil")
	}
	return false
}

func typeLabel(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
