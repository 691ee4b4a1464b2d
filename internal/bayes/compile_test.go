package bayes

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomNetwork builds a small random DAG with random learned counts.
func randomNetwork(r *rand.Rand) *Network {
	n := New()
	nNodes := 3 + r.Intn(5)
	for i := 0; i < nNodes; i++ {
		var parents []int
		for p := 0; p < i; p++ {
			if r.Float64() < 0.4 {
				parents = append(parents, p)
			}
		}
		if _, err := n.AddNode("v", 2+r.Intn(3), parents...); err != nil {
			panic(err)
		}
	}
	for k := 0; k < 30; k++ {
		row := make([]int, nNodes)
		for i := range row {
			row[i] = r.Intn(n.nodes[i].States)
		}
		if err := n.Observe(row, float64(1+r.Intn(3))); err != nil {
			panic(err)
		}
	}
	return n
}

// sameBits reports whether two distributions are identical bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCompiledMatchesVE is the oracle test: on random networks and
// random evidence patterns, every compilable pattern reproduces
// PosteriorVE bit for bit, and the patterns that are not compilable say
// so instead of answering.
func TestCompiledMatchesVE(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	compiled, refused := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := randomNetwork(r)
		query := r.Intn(n.Len())
		var observed []int
		for i := 0; i < n.Len(); i++ {
			if i != query && r.Float64() < 0.6 {
				observed = append(observed, i)
			}
		}
		c, err := n.Compile(query, observed)
		if errors.Is(err, ErrNotCompilable) {
			refused++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		compiled++
		ev := make([]int, n.Len())
		dist := make([]float64, n.nodes[query].States)
		for k := 0; k < 20; k++ {
			evm := Evidence{}
			for _, v := range observed {
				ev[v] = r.Intn(n.nodes[v].States)
				evm[v] = ev[v]
			}
			want, err := n.PosteriorVE(query, evm)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Posterior(ev, dist); err != nil {
				t.Fatal(err)
			}
			if !sameBits(dist, want) {
				t.Fatalf("trial %d: compiled %v, PosteriorVE %v", trial, dist, want)
			}
		}
	}
	if compiled < 100 || refused == 0 {
		t.Fatalf("compiled %d patterns, refused %d: the sample does not cover both outcomes", compiled, refused)
	}
}

func TestCompileValidation(t *testing.T) {
	n, ids := sprinkler(t)
	rain, sprinklerNode, grass := ids[0], ids[1], ids[2]
	tests := []struct {
		name     string
		query    int
		observed []int
		want     error
	}{
		{"bad query", 9, nil, ErrBadNode},
		{"bad observed node", rain, []int{-1}, ErrBadNode},
		{"query observed", rain, []int{rain}, ErrNotCompilable},
		// Summing out the sprinkler multiplies P(sprinkler | rain) into
		// P(grass | sprinkler, rain), which depends on the observed rain.
		{"evidence inside a sum", grass, []int{rain}, ErrNotCompilable},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := n.Compile(tt.query, tt.observed); !errors.Is(err, tt.want) {
				t.Fatalf("err = %v, want %v", err, tt.want)
			}
		})
	}
	if _, err := n.Compile(rain, []int{sprinklerNode, grass}); err != nil {
		t.Fatalf("fully observed pattern: %v", err)
	}
}

func TestCompiledPosteriorBadState(t *testing.T) {
	n, ids := sprinkler(t)
	c, err := n.Compile(ids[0], []int{ids[1], ids[2]})
	if err != nil {
		t.Fatal(err)
	}
	ev := make([]int, n.Len())
	for _, s := range []int{-1, 2} {
		ev[ids[2]] = s
		if err := c.Posterior(ev, make([]float64, 2)); !errors.Is(err, ErrBadState) {
			t.Errorf("state %d: err = %v, want ErrBadState", s, err)
		}
	}
}

func TestCompiledZeroEvidenceIsUniform(t *testing.T) {
	// A fixed CPT makes the evidence impossible; PosteriorVE then
	// answers uniform, and so must the compiled walk.
	n := New()
	a, _ := n.AddNode("a", 3)
	b, _ := n.AddNode("b", 2, a)
	for cfg := 0; cfg < 3; cfg++ {
		if err := n.SetCPT(b, cfg, []float64{1, 0}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := n.Compile(a, []int{b})
	if err != nil {
		t.Fatal(err)
	}
	dist := make([]float64, 3)
	if err := c.Posterior([]int{0, 1}, dist); err != nil {
		t.Fatal(err)
	}
	want, _ := n.PosteriorVE(a, Evidence{b: 1})
	if !sameBits(dist, want) || dist[0] != 1.0/3 {
		t.Fatalf("dist = %v, PosteriorVE %v", dist, want)
	}
}

func TestCompiledPosteriorAllocs(t *testing.T) {
	n, ids := sprinkler(t)
	c, err := n.Compile(ids[0], []int{ids[1], ids[2]})
	if err != nil {
		t.Fatal(err)
	}
	ev := make([]int, n.Len())
	dist := make([]float64, 2)
	if allocs := testing.AllocsPerRun(100, func() { _ = c.Posterior(ev, dist) }); allocs != 0 {
		t.Fatalf("Posterior allocates %v times per call", allocs)
	}
}
