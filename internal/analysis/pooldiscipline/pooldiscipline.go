// Package pooldiscipline checks that every pooled object obtained from a
// recognised sync.Pool Get helper — the imaging mask pool
// (imaging.GetBinary; GetGray/GetRGB are recognised too, and exercised
// by the fixture package) and the frame-arena pools
// (skelgraph.GetScratch, keypoint.GetScratch) — is returned with the
// matching Put* on some path through the same function, and that a
// pooled object is never touched again after it has been Put.
//
// The check is intraprocedural and deliberately conservative:
//
//   - A Get whose result is bound to a variable must have at least one
//     Put of that variable somewhere in the function. Conditional Puts
//     (the `if out != raw { PutBinary(raw) }` idiom) count.
//   - A Get result that is returned, stored into a field/slice/map, or
//     passed straight into another call transfers ownership out of the
//     function; that is legal but must be declared with an
//     `//slj:pool-escapes` annotation on (or directly above) the Get
//     line, so every escape is a reviewed decision rather than an
//     accident.
//   - Any syntactic use of the buffer variable in a statement after the
//     Put, within the same block, is flagged as use-after-Put. Double
//     Puts in a straight line are a special case of this.
//
// What it cannot see: aliases created before Put (a second name for the
// same buffer), Puts performed by a callee, or flow through struct
// fields. Those remain covered by the pool contract comment in
// internal/imaging/pool.go and the race/golden tests.
package pooldiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Annotation is the suppression annotation honoured by this analyzer.
const Annotation = "pool-escapes"

// Analyzer flags pooled buffers and arenas that leak, escape
// unannotated, or are used after release.
var Analyzer = &analysis.Analyzer{
	Name: "pooldiscipline",
	Doc:  "check Get*/Put* pairing and use-after-Put on pooled image buffers and frame arenas",
	Run:  run,
}

// poolPairs lists the recognised Get*/Put* pairs, keyed by defining
// package name, then by the suffix shared by the Get and the Put. The
// analyzer matches by name rather than import path so it works against
// both the real packages and test fixtures.
var poolPairs = map[string]map[string]bool{
	"imaging":   {"Binary": true, "Gray": true, "RGB": true},
	"skelgraph": {"Scratch": true},
	"keypoint":  {"Scratch": true},
}

// poolFunc classifies a call as a recognised pool/arena Get or Put and
// returns the package-qualified callee name (e.g. "imaging.GetBinary",
// "skelgraph.PutScratch").
func poolFunc(pass *analysis.Pass, call *ast.CallExpr) (qual string, isGet bool, ok bool) {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return "", false, false
	}
	suffixes := poolPairs[fn.Pkg().Name()]
	if suffixes == nil {
		return "", false, false
	}
	name := fn.Name()
	var rest string
	var get bool
	switch {
	case strings.HasPrefix(name, "Get"):
		rest, get = name[3:], true
	case strings.HasPrefix(name, "Put"):
		rest, get = name[3:], false
	default:
		return "", false, false
	}
	if !suffixes[rest] {
		return "", false, false
	}
	return fn.Pkg().Name() + "." + name, get, true
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkFunc(pass, fd.Body)
			}
		}
	}
	return nil
}

// putSite is one Put call releasing a tracked buffer variable.
type putSite struct {
	call  *ast.CallExpr
	stack []ast.Node // ancestor stack at the call
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	// Pass 1: index Put calls by the object of their (plain identifier)
	// argument.
	puts := map[types.Object][]putSite{}
	analysis.WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, isGet, ok := poolFunc(pass, call); !ok || isGet {
			return true
		}
		if len(call.Args) != 1 {
			return true
		}
		id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.ObjectOf(id); obj != nil {
			puts[obj] = append(puts[obj], putSite{call, append([]ast.Node(nil), stack...)})
		}
		return true
	})

	// Pass 2: classify every Get call site.
	analysis.WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		getName, isGet, ok := poolFunc(pass, call)
		if !ok || !isGet {
			return true
		}
		if pass.Annotated(call.Pos(), Annotation) {
			return true
		}
		parent := stack[len(stack)-2]
		switch p := parent.(type) {
		case *ast.AssignStmt:
			if obj := assignTarget(pass, p, call); obj != nil {
				checkTracked(pass, body, call, getName, obj, puts[obj])
				return true
			}
			pass.Reportf(call.Pos(), "pooled buffer from %s is stored somewhere this check cannot follow; annotate //slj:pool-escapes if ownership is transferred", getName)
		case *ast.ValueSpec:
			if obj := specTarget(pass, p, call); obj != nil {
				checkTracked(pass, body, call, getName, obj, puts[obj])
				return true
			}
			pass.Reportf(call.Pos(), "pooled buffer from %s is never returned to the pool", getName)
		case *ast.CallExpr:
			if _, _, isPool := poolFunc(pass, p); isPool {
				return true // Get fed straight into a Put: pointless but not a leak
			}
			pass.Reportf(call.Pos(), "pooled buffer from %s is passed straight to %s, transferring ownership; annotate //slj:pool-escapes if intended", getName, callLabel(pass, p))
		case *ast.ReturnStmt:
			pass.Reportf(call.Pos(), "pooled buffer from %s escapes via return; annotate //slj:pool-escapes if the caller takes ownership", getName)
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "result of %s is discarded — the pooled buffer leaks", getName)
		default:
			pass.Reportf(call.Pos(), "pooled buffer from %s escapes through %T; annotate //slj:pool-escapes if ownership is transferred", getName, parent)
		}
		return true
	})

	// Pass 3: use-after-Put within the Put's own statement sequence.
	for obj, sites := range puts {
		for _, site := range sites {
			checkUseAfterPut(pass, obj, site)
		}
	}
}

// assignTarget returns the identifier object the Get result is bound to
// in a 1:1 position of the assignment, or nil.
func assignTarget(pass *analysis.Pass, as *ast.AssignStmt, call *ast.CallExpr) types.Object {
	if len(as.Lhs) != len(as.Rhs) {
		return nil
	}
	for i, rhs := range as.Rhs {
		if ast.Unparen(rhs) != call {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		return pass.ObjectOf(id)
	}
	return nil
}

// specTarget is assignTarget for `var v = imaging.Get*(...)` declarations.
func specTarget(pass *analysis.Pass, vs *ast.ValueSpec, call *ast.CallExpr) types.Object {
	if len(vs.Names) != len(vs.Values) {
		return nil
	}
	for i, val := range vs.Values {
		if ast.Unparen(val) == call {
			return pass.ObjectOf(vs.Names[i])
		}
	}
	return nil
}

// checkTracked reports on a Get bound to variable obj given its Put sites.
func checkTracked(pass *analysis.Pass, body *ast.BlockStmt, call *ast.CallExpr, getName string, obj types.Object, sites []putSite) {
	if len(sites) > 0 {
		return // released somewhere; pass 3 handles use-after-Put
	}
	putName := strings.Replace(getName, ".Get", ".Put", 1)
	if escapes(pass, body, obj) {
		pass.Reportf(call.Pos(), "pooled buffer %s from %s escapes this function without a Put; annotate //slj:pool-escapes if the new owner keeps it", obj.Name(), getName)
		return
	}
	pass.Reportf(call.Pos(), "pooled buffer %s from %s is never returned to the pool; call %s on every path or annotate //slj:pool-escapes", obj.Name(), getName, putName)
}

// escapes reports whether obj is returned, stored into non-local
// structure, sent on a channel, or embedded in a composite literal —
// i.e. the buffer plausibly outlives the function.
func escapes(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	analysis.WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || pass.ObjectOf(id) != obj {
			return true
		}
		for i := len(stack) - 2; i >= 0; i-- {
			switch p := stack[i].(type) {
			case *ast.ReturnStmt:
				// Only the buffer value itself escaping counts; derived
				// results like `return len(b.Pix)` do not.
				for _, res := range p.Results {
					if ast.Unparen(res) == ast.Node(id) {
						found = true
						return false
					}
				}
			case *ast.SendStmt:
				if ast.Unparen(p.Value) == ast.Node(id) {
					found = true
					return false
				}
			case *ast.CompositeLit:
				found = true
				return false
			case *ast.AssignStmt:
				// Storing the buffer under a selector or index expression
				// (x.f = v, xs[i] = v) hides it from this check.
				for j, rhs := range p.Rhs {
					if !analysis.Within(id, rhs) || j >= len(p.Lhs) {
						continue
					}
					switch p.Lhs[j].(type) {
					case *ast.SelectorExpr, *ast.IndexExpr:
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// checkUseAfterPut flags references to obj in statements that follow the
// Put statement inside the same block.
func checkUseAfterPut(pass *analysis.Pass, obj types.Object, site putSite) {
	// A deferred (or go'd) Put runs when the function exits, after every
	// textually later statement; the straight-line scan does not apply.
	for _, anc := range site.stack {
		switch anc.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return
		}
	}
	// Locate the statement containing the Put and its enclosing list.
	var stmts []ast.Stmt
	var idx = -1
	for i := len(site.stack) - 1; i > 0; i-- {
		stmt, ok := site.stack[i].(ast.Stmt)
		if !ok {
			continue
		}
		switch blk := site.stack[i-1].(type) {
		case *ast.BlockStmt:
			stmts, idx = blk.List, stmtIndex(blk.List, stmt)
		case *ast.CaseClause:
			stmts, idx = blk.Body, stmtIndex(blk.Body, stmt)
		case *ast.CommClause:
			stmts, idx = blk.Body, stmtIndex(blk.Body, stmt)
		}
		if idx >= 0 {
			break
		}
	}
	if idx < 0 {
		return
	}
	for _, later := range stmts[idx+1:] {
		reported := false
		analysis.WalkStack(later, func(n ast.Node, _ []ast.Node) bool {
			if reported {
				return false
			}
			id, ok := n.(*ast.Ident)
			if !ok || pass.ObjectOf(id) != obj {
				return true
			}
			reported = true
			pass.Reportf(id.Pos(), "buffer %s is used after being returned to the pool at line %d; the pool may already have handed it to another frame", obj.Name(), pass.Fset.Position(site.call.Pos()).Line)
			return false
		})
		if reported {
			return // one report per Put is enough
		}
	}
}

func stmtIndex(list []ast.Stmt, s ast.Stmt) int {
	for i, st := range list {
		if st == s {
			return i
		}
	}
	return -1
}

// callLabel renders a short name for the call receiving the buffer.
func callLabel(pass *analysis.Pass, call *ast.CallExpr) string {
	if fn := pass.CalleeFunc(call); fn != nil {
		if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	if name := pass.CalleeName(call); name != "" {
		return name
	}
	return "a call"
}
