package bayes

import (
	"fmt"
	"math"
)

// NodeSnapshot is the serialisable state of one node.
type NodeSnapshot struct {
	Name    string
	States  int
	Parents []int
	// Counts holds the learned observation weights
	// ([parentConfig*States + state]).
	Counts []float64
	// Fixed holds explicitly set CPT rows (-1 sentinel for unset rows);
	// nil when no row was ever fixed.
	Fixed []float64
}

// Snapshot is the full serialisable state of a network, suitable for
// encoding/gob or encoding/json.
type Snapshot struct {
	Laplace float64
	Nodes   []NodeSnapshot
}

// Snapshot exports the network state.
func (n *Network) Snapshot() Snapshot {
	s := Snapshot{Laplace: n.laplace, Nodes: make([]NodeSnapshot, len(n.nodes))}
	for i, nd := range n.nodes {
		s.Nodes[i] = NodeSnapshot{
			Name:    nd.Name,
			States:  nd.States,
			Parents: append([]int(nil), nd.Parents...),
			Counts:  append([]float64(nil), nd.counts...),
		}
		if nd.fixed != nil {
			s.Nodes[i].Fixed = append([]float64(nil), nd.fixed...)
		}
	}
	return s
}

// FromSnapshot reconstructs a network, validating it: the structure, a
// finite non-negative Laplace pseudo-count, finite non-negative counts
// whose row totals stay finite, and fixed rows that are either unset
// (all -1) or valid distributions.
func FromSnapshot(s Snapshot) (*Network, error) {
	if !(s.Laplace >= 0) || math.IsInf(s.Laplace, 1) {
		return nil, fmt.Errorf("bayes: snapshot Laplace %v is negative or not finite", s.Laplace)
	}
	n := New()
	n.SetLaplace(s.Laplace)
	for i, ns := range s.Nodes {
		// Check the table size before AddNode allocates it.
		size := ns.States
		for _, p := range ns.Parents {
			if p >= 0 && p < i && size <= len(ns.Counts) {
				size *= s.Nodes[p].States
			}
		}
		if size != len(ns.Counts) {
			return nil, fmt.Errorf("bayes: snapshot node %d: %d counts for %d states and parents %v",
				i, len(ns.Counts), ns.States, ns.Parents)
		}
		id, err := n.AddNode(ns.Name, ns.States, ns.Parents...)
		if err != nil {
			return nil, fmt.Errorf("bayes: snapshot node %d: %w", i, err)
		}
		nd := &n.nodes[id]
		copy(nd.counts, ns.Counts)
		// Rebuild row totals.
		for row := range nd.rowTotals {
			total := 0.0
			for st := 0; st < nd.States; st++ {
				c := nd.counts[row*nd.States+st]
				if !(c >= 0) || math.IsInf(c, 1) {
					return nil, fmt.Errorf("bayes: snapshot node %d: count %v is negative or not finite", i, c)
				}
				total += c
			}
			if math.IsInf(total, 1) {
				return nil, fmt.Errorf("bayes: snapshot node %d: counts of row %d overflow", i, row)
			}
			nd.rowTotals[row] = total
		}
		if ns.Fixed != nil {
			if len(ns.Fixed) != len(nd.counts) {
				return nil, fmt.Errorf("bayes: snapshot node %d: %d fixed entries, want %d",
					i, len(ns.Fixed), len(nd.counts))
			}
			for row := range nd.rowTotals {
				if err := checkFixedRow(ns.Fixed[row*nd.States : (row+1)*nd.States]); err != nil {
					return nil, fmt.Errorf("bayes: snapshot node %d fixed row %d: %w", i, row, err)
				}
			}
			nd.fixed = append([]float64(nil), ns.Fixed...)
		}
	}
	return n, nil
}

// checkFixedRow accepts a fixed-CPT row that is unset (every entry the
// -1 sentinel SetCPT fills) or a valid distribution.
func checkFixedRow(row []float64) error {
	unset := true
	for _, p := range row {
		unset = unset && p == -1
	}
	if unset {
		return nil
	}
	return checkRow(row)
}
