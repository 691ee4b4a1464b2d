package bayes

import (
	"math"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	n, ids := sprinkler(t)
	// Add learned counts on top of the fixed CPTs.
	if err := n.Observe([]int{1, 0, 1}, 3); err != nil {
		t.Fatal(err)
	}
	restored, err := FromSnapshot(n.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Posteriors must match exactly.
	for q := 0; q < n.Len(); q++ {
		a, err := n.PosteriorVE(q, Evidence{ids[2]: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.PosteriorVE(q, Evidence{ids[2]: 1})
		if err != nil {
			t.Fatal(err)
		}
		for s := range a {
			if math.Abs(a[s]-b[s]) > 1e-12 {
				t.Fatalf("query %d state %d: %v != %v", q, s, a[s], b[s])
			}
		}
	}
	if restored.TotalObservations() != n.TotalObservations() {
		t.Error("observation totals differ")
	}
}

func TestFromSnapshotValidation(t *testing.T) {
	n, _ := sprinkler(t)
	good := n.Snapshot()
	tests := []struct {
		name string
		mut  func(s *Snapshot)
	}{
		{"wrong-length counts", func(s *Snapshot) { s.Nodes[0].Counts = []float64{1} }},
		{"dangling parent", func(s *Snapshot) {
			s.Nodes[0] = NodeSnapshot{Name: "x", States: 2, Parents: []int{9}, Counts: []float64{0, 0}}
		}},
		{"oversized states", func(s *Snapshot) { s.Nodes[0].States = 1 << 40 }},
		{"negative count", func(s *Snapshot) { s.Nodes[0].Counts[0] = -1 }},
		{"NaN count", func(s *Snapshot) { s.Nodes[1].Counts[2] = math.NaN() }},
		{"infinite count", func(s *Snapshot) { s.Nodes[2].Counts[0] = math.Inf(1) }},
		{"overflowing row", func(s *Snapshot) { s.Nodes[0].Counts[0], s.Nodes[0].Counts[1] = math.MaxFloat64, math.MaxFloat64 }},
		{"NaN Laplace", func(s *Snapshot) { s.Laplace = math.NaN() }},
		{"infinite Laplace", func(s *Snapshot) { s.Laplace = math.Inf(1) }},
		{"negative Laplace", func(s *Snapshot) { s.Laplace = -1 }},
		{"fixed row off the simplex", func(s *Snapshot) { s.Nodes[0].Fixed[0] = 0.5 }},
		{"fixed row with NaN", func(s *Snapshot) { s.Nodes[1].Fixed[1] = math.NaN() }},
		{"fixed row half unset", func(s *Snapshot) { s.Nodes[2].Fixed[0] = -1 }},
		{"fixed table of the wrong length", func(s *Snapshot) { s.Nodes[0].Fixed = []float64{1} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			bad := cloneSnapshot(good)
			tt.mut(&bad)
			if _, err := FromSnapshot(bad); err == nil {
				t.Error("malformed snapshot accepted")
			}
		})
	}
	if _, err := FromSnapshot(cloneSnapshot(good)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	// A partly fixed table keeps its unset rows at the -1 sentinel.
	m := New()
	a, _ := m.AddNode("a", 2)
	b, _ := m.AddNode("b", 2, a)
	if err := m.SetCPT(b, 1, []float64{0.3, 0.7}); err != nil {
		t.Fatal(err)
	}
	if _, err := FromSnapshot(m.Snapshot()); err != nil {
		t.Fatalf("partly fixed snapshot rejected: %v", err)
	}
}

// cloneSnapshot deep-copies s so a test can corrupt it.
func cloneSnapshot(s Snapshot) Snapshot {
	out := Snapshot{Laplace: s.Laplace, Nodes: make([]NodeSnapshot, len(s.Nodes))}
	for i, ns := range s.Nodes {
		out.Nodes[i] = NodeSnapshot{
			Name:    ns.Name,
			States:  ns.States,
			Parents: append([]int(nil), ns.Parents...),
			Counts:  append([]float64(nil), ns.Counts...),
			Fixed:   append([]float64(nil), ns.Fixed...),
		}
	}
	return out
}
