package callgraph

import (
	"go/ast"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// load builds the fixture program and its call graph with //slj:dyncall
// narrowing active.
func load(t *testing.T) (*Graph, *analysis.Pass) {
	t.Helper()
	loader, err := analysis.NewLoader("testdata")
	if err != nil {
		t.Fatal(err)
	}
	src, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader.ExtraRoots = []string{src}
	if _, err := loader.LoadTarget("app", filepath.Join(src, "app")); err != nil {
		t.Fatal(err)
	}
	pkgs := loader.FullPackages()
	prog := analysis.NewProgram(pkgs)
	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Syntax...)
	}
	pass := &analysis.Pass{Fset: prog.Fset, Files: files, Info: prog.Info}
	return Build(prog, pass.Annotation), pass
}

// one fails the test unless exactly one fixture node matches name.
func one(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	ns := g.FuncsNamed(name)
	if len(ns) != 1 {
		t.Fatalf("FuncsNamed(%q) = %d nodes, want 1", name, len(ns))
	}
	return ns[0]
}

func outEdges(n *Node) map[string]Kind {
	out := map[string]Kind{}
	for _, e := range n.Out {
		out[e.Callee.Name()+"|"+e.Kind.String()] = e.Kind
	}
	return out
}

func TestStaticAndInterfaceEdges(t *testing.T) {
	g, _ := load(t)
	main := one(t, g, "app.Main")
	edges := outEdges(main)
	for _, want := range []string{
		"lib.Helper|static",         // cross-package static call
		"(app.Dog).Speak|interface", // same-package implementation
		"(lib.Cat).Speak|interface", // cross-package implementation
	} {
		if _, ok := edges[want]; !ok {
			t.Errorf("app.Main missing edge %s (have %v)", want, edges)
		}
	}
	if dyn := g.SiteDyn[main.Out[len(main.Out)-1].Site]; dyn == nil || dyn.Kind != Interface {
		t.Errorf("interface call site not recorded as a DynSite")
	}
}

func TestFuncValueOverApproximation(t *testing.T) {
	g, _ := load(t)
	run := one(t, g, "app.Run")
	edges := outEdges(run)
	// Over-approximation: every program func with signature func(int) int.
	for _, want := range []string{"lib.Twice|funcvalue", "lib.Thrice|funcvalue"} {
		if _, ok := edges[want]; !ok {
			t.Errorf("app.Run missing over-approximated edge %s (have %v)", want, edges)
		}
	}
	for k := range edges {
		if strings.Contains(k, "Helper") || strings.Contains(k, "Speak") {
			t.Errorf("app.Run has signature-mismatched edge %s", k)
		}
	}
}

func TestDyncallNarrowing(t *testing.T) {
	g, _ := load(t)
	narrow := one(t, g, "app.Narrow")
	edges := outEdges(narrow)
	if _, ok := edges["lib.Twice|narrowed"]; !ok {
		t.Errorf("app.Narrow missing narrowed edge to lib.Twice (have %v)", edges)
	}
	if _, ok := edges["lib.Thrice|funcvalue"]; ok {
		t.Errorf("//slj:dyncall did not replace the over-approximation: %v", edges)
	}

	bad := one(t, g, "app.BadNarrow")
	if len(bad.Out) != 0 {
		t.Errorf("app.BadNarrow should have no edges, has %v", outEdges(bad))
	}
	found := false
	for _, site := range g.Sites {
		if site.Caller == bad && site.Narrowed {
			found = true
			if len(site.Unmatched) != 1 || site.Unmatched[0] != "lib.NoSuchFunc" {
				t.Errorf("unmatched targets = %v, want [lib.NoSuchFunc]", site.Unmatched)
			}
		}
	}
	if !found {
		t.Errorf("no narrowed DynSite recorded for app.BadNarrow")
	}
}

func TestReachabilityAndChain(t *testing.T) {
	g, _ := load(t)
	main := one(t, g, "app.Main")
	parents := g.Parents([]*Node{main}, nil)

	catSpeak := one(t, g, "(lib.Cat).Speak")
	chain := Chain(parents, catSpeak)
	want := []string{"app.Main", "(lib.Cat).Speak"}
	if len(chain) != len(want) || chain[0] != want[0] || chain[1] != want[1] {
		t.Errorf("Chain = %v, want %v", chain, want)
	}

	reach := g.Reachable([]*Node{main}, nil)
	if !reach[one(t, g, "lib.Helper")] {
		t.Errorf("lib.Helper not reachable from app.Main")
	}
	if reach[one(t, g, "lib.Twice")] {
		t.Errorf("lib.Twice should not be reachable from app.Main")
	}
	if Chain(parents, one(t, g, "app.Run")) != nil {
		t.Errorf("app.Run should not have a chain from app.Main")
	}
}

func TestFuncsNamedSpellings(t *testing.T) {
	g, _ := load(t)
	for _, spelling := range []string{
		"(lib.Cat).Speak", "Cat.Speak", "(Cat).Speak", "lib.Cat.Speak", "lib.(Cat).Speak",
	} {
		if len(g.FuncsNamed(spelling)) != 1 {
			t.Errorf("FuncsNamed(%q) should match (lib.Cat).Speak", spelling)
		}
	}
	// Bare "Speak" matches both implementations.
	if n := len(g.FuncsNamed("Speak")); n != 2 {
		t.Errorf("FuncsNamed(\"Speak\") = %d nodes, want 2", n)
	}
}
