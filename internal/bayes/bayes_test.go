package bayes

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// sprinkler builds the classic rain/sprinkler/grass network with known
// CPTs: P(R)=0.2; P(S|R)= {0.4, 0.01}; P(G|S,R) as usual.
func sprinkler(t *testing.T) (*Network, [3]int) {
	t.Helper()
	n := New()
	n.SetLaplace(0)
	rain, err := n.AddNode("rain", 2)
	if err != nil {
		t.Fatal(err)
	}
	sprk, err := n.AddNode("sprinkler", 2, rain)
	if err != nil {
		t.Fatal(err)
	}
	grass, err := n.AddNode("grass", 2, sprk, rain)
	if err != nil {
		t.Fatal(err)
	}
	check := func(e error) {
		if e != nil {
			t.Fatal(e)
		}
	}
	check(n.SetCPT(rain, 0, []float64{0.8, 0.2}))
	check(n.SetCPT(sprk, 0, []float64{0.6, 0.4}))   // rain=0
	check(n.SetCPT(sprk, 1, []float64{0.99, 0.01})) // rain=1
	// grass parents: (sprinkler, rain) -> row = s*2 + r
	check(n.SetCPT(grass, 0, []float64{1.0, 0.0}))   // s=0, r=0
	check(n.SetCPT(grass, 1, []float64{0.2, 0.8}))   // s=0, r=1
	check(n.SetCPT(grass, 2, []float64{0.1, 0.9}))   // s=1, r=0
	check(n.SetCPT(grass, 3, []float64{0.01, 0.99})) // s=1, r=1
	return n, [3]int{rain, sprk, grass}
}

func TestSprinklerPosterior(t *testing.T) {
	n, ids := sprinkler(t)
	rain, _, grass := ids[0], ids[1], ids[2]
	// Classic result: P(rain=1 | grass wet).
	dist, err := n.Posterior(rain, Evidence{grass: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Hand computation:
	// P(g=1) = sum over r,s P(r)P(s|r)P(g=1|s,r)
	//  r0s0: .8*.6*0    = 0
	//  r0s1: .8*.4*.9   = .288
	//  r1s0: .2*.99*.8  = .15840
	//  r1s1: .2*.01*.99 = .00198
	// P(r=1,g=1) = .15840+.00198 = .16038; total = .44838
	want := 0.16038 / 0.44838
	if !almostEqual(dist[1], want) {
		t.Errorf("P(rain|wet) = %v, want %v", dist[1], want)
	}
}

func TestPosteriorMatchesVE(t *testing.T) {
	n, ids := sprinkler(t)
	for _, ev := range []Evidence{
		{},
		{ids[2]: 1},
		{ids[2]: 0},
		{ids[1]: 1},
		{ids[1]: 0, ids[2]: 1},
	} {
		for q := 0; q < n.Len(); q++ {
			if _, isEv := ev[q]; isEv {
				continue
			}
			a, err := n.Posterior(q, ev)
			if err != nil {
				t.Fatal(err)
			}
			b, err := n.PosteriorVE(q, ev)
			if err != nil {
				t.Fatal(err)
			}
			for s := range a {
				if !almostEqual(a[s], b[s]) {
					t.Errorf("query %d ev %v state %d: enum %v != VE %v", q, ev, s, a[s], b[s])
				}
			}
		}
	}
}

func TestRandomNetworkEnumVsVE(t *testing.T) {
	// Property: enumeration and variable elimination agree on random
	// small networks with random learned counts and random evidence.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := New()
		n.SetLaplace(1)
		nNodes := 3 + r.Intn(4)
		for i := 0; i < nNodes; i++ {
			var parents []int
			for p := 0; p < i; p++ {
				if r.Float64() < 0.4 {
					parents = append(parents, p)
				}
			}
			if _, err := n.AddNode("v", 2+r.Intn(2), parents...); err != nil {
				return false
			}
		}
		// Random complete observations.
		for k := 0; k < 30; k++ {
			row := make([]int, nNodes)
			for i := 0; i < nNodes; i++ {
				nd, _ := n.Node(i)
				row[i] = r.Intn(nd.States)
			}
			if err := n.Observe(row, 1); err != nil {
				return false
			}
		}
		ev := Evidence{}
		for i := 0; i < nNodes; i++ {
			if r.Float64() < 0.3 {
				nd, _ := n.Node(i)
				ev[i] = r.Intn(nd.States)
			}
		}
		for q := 0; q < nNodes; q++ {
			if _, isEv := ev[q]; isEv {
				continue
			}
			a, err := n.Posterior(q, ev)
			if err != nil {
				return false
			}
			b, err := n.PosteriorVE(q, ev)
			if err != nil {
				return false
			}
			for s := range a {
				if math.Abs(a[s]-b[s]) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLearningRecoversFrequencies(t *testing.T) {
	n := New()
	n.SetLaplace(0)
	a, _ := n.AddNode("a", 2)
	b, _ := n.AddNode("b", 2, a)
	// a=1 with prob 0.25; b copies a.
	data := [][]int{
		{0, 0}, {0, 0}, {0, 0}, {1, 1},
		{0, 0}, {0, 0}, {0, 0}, {1, 1},
	}
	if err := n.Fit(data); err != nil {
		t.Fatal(err)
	}
	if p := n.Prob(a, 0, 1); !almostEqual(p, 0.25) {
		t.Errorf("P(a=1) = %v, want 0.25", p)
	}
	if p := n.Prob(b, 1, 1); !almostEqual(p, 1.0) {
		t.Errorf("P(b=1|a=1) = %v, want 1", p)
	}
	if p := n.Prob(b, 0, 0); !almostEqual(p, 1.0) {
		t.Errorf("P(b=0|a=0) = %v, want 1", p)
	}
}

func TestLaplaceSmoothing(t *testing.T) {
	n := New()
	n.SetLaplace(1)
	a, _ := n.AddNode("a", 2)
	// One observation of a=0: smoothed P(a=1) = (0+1)/(1+2) = 1/3.
	if err := n.Observe([]int{0}, 1); err != nil {
		t.Fatal(err)
	}
	if p := n.Prob(a, 0, 1); !almostEqual(p, 1.0/3) {
		t.Errorf("smoothed P(a=1) = %v, want 1/3", p)
	}
	// Unseen parent rows are uniform.
	n2 := New()
	n2.SetLaplace(0)
	a2, _ := n2.AddNode("a", 4)
	if p := n2.Prob(a2, 0, 2); !almostEqual(p, 0.25) {
		t.Errorf("unseen row P = %v, want uniform 0.25", p)
	}
}

func TestCPTRowSumsToOne(t *testing.T) {
	n := New()
	a, _ := n.AddNode("a", 3)
	b, _ := n.AddNode("b", 4, a)
	_ = n.Observe([]int{1, 2}, 3)
	_ = n.Observe([]int{0, 1}, 1)
	for _, node := range []int{a, b} {
		nd, _ := n.Node(node)
		rows := 1
		for _, p := range nd.Parents {
			pd, _ := n.Node(p)
			rows *= pd.States
		}
		for r := 0; r < rows; r++ {
			row := n.CPTRow(node, r)
			sum := 0.0
			for _, v := range row {
				sum += v
			}
			if !almostEqual(sum, 1) {
				t.Errorf("node %d row %d sums to %v", node, r, sum)
			}
		}
	}
}

func TestJointLogProb(t *testing.T) {
	n, ids := sprinkler(t)
	lp, err := jointLogProb(n, []int{1, 0, 1}) // rain, no sprinkler, wet
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(0.2) + math.Log(0.99) + math.Log(0.8)
	if math.Abs(lp-want) > tol {
		t.Errorf("jointLogProb = %v, want %v", lp, want)
	}
	_ = ids
	if _, err := jointLogProb(n, []int{1, 0}); !errors.Is(err, ErrIncomplete) {
		t.Errorf("short assignment err = %v", err)
	}
	if _, err := jointLogProb(n, []int{1, 0, 9}); !errors.Is(err, ErrBadState) {
		t.Errorf("bad state err = %v", err)
	}
}

func TestAddNodeValidation(t *testing.T) {
	n := New()
	if _, err := n.AddNode("bad", 0); err == nil {
		t.Error("zero states accepted")
	}
	if _, err := n.AddNode("orphan", 2, 5); !errors.Is(err, ErrBadNode) {
		t.Errorf("missing parent err = %v", err)
	}
	a, err := n.AddNode("a", 2)
	if err != nil {
		t.Fatal(err)
	}
	// A parent declared after the child is impossible by construction:
	// children can only reference existing nodes, so cycles cannot form.
	if _, err := n.AddNode("b", 2, a); err != nil {
		t.Fatal(err)
	}
}

func TestObserveValidation(t *testing.T) {
	n := New()
	_, _ = n.AddNode("a", 2)
	if err := n.Observe([]int{0, 1}, 1); !errors.Is(err, ErrIncomplete) {
		t.Errorf("wrong-length err = %v", err)
	}
	if err := n.Observe([]int{5}, 1); !errors.Is(err, ErrBadState) {
		t.Errorf("bad-state err = %v", err)
	}
	if err := n.Observe([]int{0}, -1); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestSetCPTValidation(t *testing.T) {
	n := New()
	a, _ := n.AddNode("a", 2)
	tests := []struct {
		name string
		node int
		cfg  int
		row  []float64
	}{
		{"bad node", 9, 0, []float64{0.5, 0.5}},
		{"bad config", a, 3, []float64{0.5, 0.5}},
		{"short row", a, 0, []float64{1.0}},
		{"negative", a, 0, []float64{-0.5, 1.5}},
		{"bad sum", a, 0, []float64{0.5, 0.1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := n.SetCPT(tt.node, tt.cfg, tt.row); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestPosteriorEvidenceOnQuery(t *testing.T) {
	n, ids := sprinkler(t)
	dist, err := n.Posterior(ids[0], Evidence{ids[0]: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dist[1] != 1 || dist[0] != 0 {
		t.Errorf("evidence on query should be deterministic: %v", dist)
	}
}

func TestPosteriorValidation(t *testing.T) {
	n, ids := sprinkler(t)
	if _, err := n.Posterior(99, nil); !errors.Is(err, ErrBadNode) {
		t.Errorf("bad query err = %v", err)
	}
	if _, err := n.Posterior(ids[0], Evidence{99: 0}); !errors.Is(err, ErrBadNode) {
		t.Errorf("bad evidence node err = %v", err)
	}
	if _, err := n.Posterior(ids[0], Evidence{ids[1]: 9}); !errors.Is(err, ErrBadState) {
		t.Errorf("bad evidence state err = %v", err)
	}
}

func TestMAP(t *testing.T) {
	n, ids := sprinkler(t)
	state, prob, err := n.MAP(ids[0], Evidence{ids[2]: 1})
	if err != nil {
		t.Fatal(err)
	}
	// P(rain=1|wet) ≈ 0.358 < 0.5, so MAP is "no rain".
	if state != 0 {
		t.Errorf("MAP state = %d, want 0", state)
	}
	if prob < 0.6 || prob > 0.7 {
		t.Errorf("MAP prob = %v, want ≈ 0.642", prob)
	}
}

func TestCloneIndependence(t *testing.T) {
	n := New()
	a, _ := n.AddNode("a", 2)
	_ = n.Observe([]int{0}, 1)
	c := n.Clone()
	_ = c.Observe([]int{1}, 10)
	if n.Prob(a, 0, 1) == c.Prob(a, 0, 1) {
		t.Error("clone shares state with original")
	}
	if n.TotalObservations() != 1 {
		t.Errorf("original observations = %v, want 1", n.TotalObservations())
	}
	if c.TotalObservations() != 11 {
		t.Errorf("clone observations = %v, want 11", c.TotalObservations())
	}
}

func TestReset(t *testing.T) {
	n := New()
	n.SetLaplace(0)
	a, _ := n.AddNode("a", 2)
	_ = n.Observe([]int{1}, 5)
	n.Reset()
	if n.TotalObservations() != 0 {
		t.Error("Reset left observations")
	}
	if p := n.Prob(a, 0, 0); !almostEqual(p, 0.5) {
		t.Errorf("after reset P = %v, want uniform", p)
	}
}

func TestZeroProbabilityEvidence(t *testing.T) {
	n := New()
	n.SetLaplace(0)
	a, _ := n.AddNode("a", 2)
	b, _ := n.AddNode("b", 2, a)
	_ = n.SetCPT(a, 0, []float64{1, 0})
	_ = n.SetCPT(b, 0, []float64{1, 0})
	_ = n.SetCPT(b, 1, []float64{1, 0})
	// Evidence b=1 has probability zero; both engines must not NaN.
	for _, fn := range []func(int, Evidence) ([]float64, error){n.Posterior, n.PosteriorVE} {
		dist, err := fn(a, Evidence{b: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range dist {
			if math.IsNaN(p) {
				t.Fatal("NaN posterior on impossible evidence")
			}
		}
	}
}

func TestNetworkString(t *testing.T) {
	n, _ := sprinkler(t)
	if n.String() == "" {
		t.Error("empty String()")
	}
	if n.Len() != 3 {
		t.Errorf("Len = %d, want 3", n.Len())
	}
}

func TestNodeAccessor(t *testing.T) {
	n, ids := sprinkler(t)
	nd, err := n.Node(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	if nd.Name != "grass" || nd.States != 2 || len(nd.Parents) != 2 {
		t.Errorf("Node = %+v", nd)
	}
	if _, err := n.Node(42); !errors.Is(err, ErrBadNode) {
		t.Errorf("bad node err = %v", err)
	}
}

func BenchmarkPosteriorEnum(b *testing.B) {
	n := New()
	ids := make([]int, 10)
	for i := range ids {
		var parents []int
		if i > 0 {
			parents = []int{ids[i-1]}
		}
		ids[i], _ = n.AddNode("v", 3, parents...)
	}
	ev := Evidence{ids[9]: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := n.Posterior(ids[0], ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPosteriorVE(b *testing.B) {
	n := New()
	ids := make([]int, 10)
	for i := range ids {
		var parents []int
		if i > 0 {
			parents = []int{ids[i-1]}
		}
		ids[i], _ = n.AddNode("v", 3, parents...)
	}
	ev := Evidence{ids[9]: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := n.PosteriorVE(ids[0], ev); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDOTExport(t *testing.T) {
	n, _ := sprinkler(t)
	dot := n.DOT("sprinkler")
	for _, want := range []string{"digraph", "rain", "sprinkler", "grass", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Three nodes, three edges (rain->sprinkler, rain->grass, sprinkler->grass).
	if got := strings.Count(dot, "->"); got != 3 {
		t.Errorf("edges = %d, want 3", got)
	}
}

// jointLogProb returns the log joint probability of a complete
// assignment, read straight off the conditional probability tables.
func jointLogProb(n *Network, assignment []int) (float64, error) {
	if len(assignment) != len(n.nodes) {
		return 0, fmt.Errorf("%w: got %d states for %d nodes", ErrIncomplete, len(assignment), len(n.nodes))
	}
	lp := 0.0
	for i := range n.nodes {
		row, err := n.parentConfig(i, assignment)
		if err != nil {
			return 0, err
		}
		s := assignment[i]
		if s < 0 || s >= n.nodes[i].States {
			return 0, fmt.Errorf("%w: node %q state %d", ErrBadState, n.nodes[i].Name, s)
		}
		p := n.Prob(i, row, s)
		if p <= 0 {
			return math.Inf(-1), nil
		}
		lp += math.Log(p)
	}
	return lp, nil
}
