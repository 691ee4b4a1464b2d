// Package bayes implements discrete Bayesian networks: directed acyclic
// graphs of categorical variables with conditional probability tables,
// maximum-likelihood learning with Laplace smoothing from complete data,
// and exact inference by both enumeration and variable elimination.
// Compile flattens variable elimination for one fixed evidence pattern
// into tables a classifier walks per query; enumeration and variable
// elimination remain as the references it is tested against.
//
// It is the probabilistic substrate of Section 4: each of the paper's 22
// pose classifiers is a small BN over the five body-part variables and
// the eight observed area variables, and the dynamic extension threads
// previous-pose and jump-stage variables through time (package dbn).
//
// Networks are built by declaring nodes whose parents already exist, so
// acyclicity holds by construction. "Quantitative training" (the paper's
// term for CPT estimation) is count-based: Observe accumulates weighted
// complete assignments and the CPTs are the smoothed normalised counts.
package bayes

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Common errors.
var (
	// ErrBadState reports a state index outside a variable's range.
	ErrBadState = errors.New("bayes: state out of range")
	// ErrBadNode reports a node index outside the network.
	ErrBadNode = errors.New("bayes: no such node")
	// ErrIncomplete reports an assignment that does not cover every
	// variable where a complete one is required.
	ErrIncomplete = errors.New("bayes: incomplete assignment")
	// ErrBadCPT reports an invalid probability row (wrong length,
	// negative entries or a zero sum).
	ErrBadCPT = errors.New("bayes: invalid CPT row")
)

// DefaultLaplace is the default additive-smoothing pseudo-count. A full
// pseudo-count per cell is the classical Laplace correction; it keeps
// rarely-seen pose features from collapsing to zero probability, which
// matters because the paper's training set is tiny (522 frames).
const DefaultLaplace = 1.0

// Node is one categorical variable of the network.
type Node struct {
	// Name identifies the variable in diagnostics.
	Name string
	// States is the cardinality (>= 1). State values are 0..States-1.
	States int
	// Parents lists parent node indices, in declaration order.
	Parents []int

	// counts holds accumulated observation weights, indexed
	// [parentConfig*States + state].
	counts []float64
	// rowTotals caches the per-parent-config sum of counts.
	rowTotals []float64
	// fixed, when non-nil, is an explicitly set CPT that overrides the
	// learned counts (same indexing as counts).
	fixed []float64
}

// Network is a discrete Bayesian network. The zero value is an empty
// network ready for AddNode.
type Network struct {
	nodes   []Node
	laplace float64
}

// New returns an empty network with the default Laplace smoothing.
func New() *Network { return &Network{laplace: DefaultLaplace} }

// SetLaplace sets the additive smoothing pseudo-count used when
// normalising learned counts. Zero disables smoothing.
func (n *Network) SetLaplace(a float64) {
	if a < 0 {
		a = 0
	}
	n.laplace = a
}

// Len returns the number of nodes.
func (n *Network) Len() int { return len(n.nodes) }

// Node returns a copy of the node's metadata.
func (n *Network) Node(i int) (Node, error) {
	if i < 0 || i >= len(n.nodes) {
		return Node{}, fmt.Errorf("%w: %d", ErrBadNode, i)
	}
	nd := n.nodes[i]
	return Node{Name: nd.Name, States: nd.States, Parents: append([]int(nil), nd.Parents...)}, nil
}

// AddNode declares a new variable with the given cardinality and parents.
// Parents must already exist (this enforces acyclicity by construction).
// It returns the new node's index.
func (n *Network) AddNode(name string, states int, parents ...int) (int, error) {
	if states < 1 {
		return 0, fmt.Errorf("bayes: node %q needs >= 1 state, got %d", name, states)
	}
	for _, p := range parents {
		if p < 0 || p >= len(n.nodes) {
			return 0, fmt.Errorf("%w: parent %d of %q", ErrBadNode, p, name)
		}
	}
	rows := 1
	for _, p := range parents {
		rows *= n.nodes[p].States
	}
	if rows > 1<<22 {
		return 0, fmt.Errorf("bayes: node %q CPT too large (%d rows)", name, rows)
	}
	n.nodes = append(n.nodes, Node{
		Name:      name,
		States:    states,
		Parents:   append([]int(nil), parents...),
		counts:    make([]float64, rows*states),
		rowTotals: make([]float64, rows),
	})
	return len(n.nodes) - 1, nil
}

// parentConfig flattens the parent states of node i under the assignment
// into a mixed-radix row index.
func (n *Network) parentConfig(i int, assignment []int) (int, error) {
	row := 0
	for _, p := range n.nodes[i].Parents {
		s := assignment[p]
		if s < 0 || s >= n.nodes[p].States {
			return 0, fmt.Errorf("%w: node %q state %d", ErrBadState, n.nodes[p].Name, s)
		}
		row = row*n.nodes[p].States + s
	}
	return row, nil
}

// Observe accumulates one complete weighted observation: assignment must
// give a state for every node. This is the paper's quantitative training.
func (n *Network) Observe(assignment []int, weight float64) error {
	if len(assignment) != len(n.nodes) {
		return fmt.Errorf("%w: got %d states for %d nodes", ErrIncomplete, len(assignment), len(n.nodes))
	}
	if weight < 0 {
		return fmt.Errorf("bayes: negative observation weight %v", weight)
	}
	for i := range n.nodes {
		s := assignment[i]
		if s < 0 || s >= n.nodes[i].States {
			return fmt.Errorf("%w: node %q state %d", ErrBadState, n.nodes[i].Name, s)
		}
	}
	for i := range n.nodes {
		row, err := n.parentConfig(i, assignment)
		if err != nil {
			return err
		}
		n.nodes[i].counts[row*n.nodes[i].States+assignment[i]] += weight
		n.nodes[i].rowTotals[row] += weight
	}
	return nil
}

// Fit is a convenience wrapper observing every complete row with weight 1.
func (n *Network) Fit(data [][]int) error {
	for r, row := range data {
		if err := n.Observe(row, 1); err != nil {
			return fmt.Errorf("bayes: row %d: %w", r, err)
		}
	}
	return nil
}

// SetCPT fixes the conditional distribution of node i for one parent
// configuration, overriding learned counts. The row must contain States
// non-negative probabilities summing to ~1.
func (n *Network) SetCPT(i int, parentCfg int, probs []float64) error {
	if i < 0 || i >= len(n.nodes) {
		return fmt.Errorf("%w: %d", ErrBadNode, i)
	}
	nd := &n.nodes[i]
	rows := len(nd.rowTotals)
	if parentCfg < 0 || parentCfg >= rows {
		return fmt.Errorf("bayes: parent config %d out of %d rows: %w", parentCfg, rows, ErrBadCPT)
	}
	if len(probs) != nd.States {
		return fmt.Errorf("%w: got %d probs for %d states", ErrBadCPT, len(probs), nd.States)
	}
	if err := checkRow(probs); err != nil {
		return err
	}
	if nd.fixed == nil {
		nd.fixed = make([]float64, len(nd.counts))
		for k := range nd.fixed {
			nd.fixed[k] = -1 // sentinel: row not fixed
		}
	}
	copy(nd.fixed[parentCfg*nd.States:], probs)
	return nil
}

// checkRow validates one probability row: non-negative entries summing
// to ~1.
func checkRow(probs []float64) error {
	sum := 0.0
	for _, p := range probs {
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("%w: negative or NaN entry", ErrBadCPT)
		}
		sum += p
	}
	if sum <= 0 || math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("%w: row sums to %v", ErrBadCPT, sum)
	}
	return nil
}

// Prob returns P(node i = state | parents in configuration parentCfg),
// using a fixed CPT row when one was set and the smoothed learned counts
// otherwise. Unseen parent configurations yield the uniform distribution.
func (n *Network) Prob(i, parentCfg, state int) float64 {
	nd := &n.nodes[i]
	if nd.fixed != nil && nd.fixed[parentCfg*nd.States] >= 0 {
		return nd.fixed[parentCfg*nd.States+state]
	}
	total := nd.rowTotals[parentCfg]
	c := nd.counts[parentCfg*nd.States+state]
	den := total + n.laplace*float64(nd.States)
	if den == 0 {
		return 1 / float64(nd.States)
	}
	return (c + n.laplace) / den
}

// CPTRow returns the full distribution of node i given parentCfg.
func (n *Network) CPTRow(i, parentCfg int) []float64 {
	nd := &n.nodes[i]
	out := make([]float64, nd.States)
	for s := range out {
		out[s] = n.Prob(i, parentCfg, s)
	}
	return out
}

// TotalObservations returns the summed weight seen by Observe/Fit (taken
// from the root-most node; all nodes see every observation).
func (n *Network) TotalObservations() float64 {
	if len(n.nodes) == 0 {
		return 0
	}
	t := 0.0
	for _, rt := range n.nodes[0].rowTotals {
		t += rt
	}
	return t
}

// Reset clears all learned counts (fixed CPTs are kept).
func (n *Network) Reset() {
	for i := range n.nodes {
		for k := range n.nodes[i].counts {
			n.nodes[i].counts[k] = 0
		}
		for k := range n.nodes[i].rowTotals {
			n.nodes[i].rowTotals[k] = 0
		}
	}
}

// Clone returns a deep copy of the network, including learned counts and
// fixed CPTs.
func (n *Network) Clone() *Network {
	out := &Network{laplace: n.laplace, nodes: make([]Node, len(n.nodes))}
	for i, nd := range n.nodes {
		out.nodes[i] = Node{
			Name:      nd.Name,
			States:    nd.States,
			Parents:   append([]int(nil), nd.Parents...),
			counts:    append([]float64(nil), nd.counts...),
			rowTotals: append([]float64(nil), nd.rowTotals...),
		}
		if nd.fixed != nil {
			out.nodes[i].fixed = append([]float64(nil), nd.fixed...)
		}
	}
	return out
}

// String summarises the network structure.
func (n *Network) String() string {
	s := fmt.Sprintf("bayes.Network{%d nodes", len(n.nodes))
	for i, nd := range n.nodes {
		s += fmt.Sprintf("; %d:%s(%d)", i, nd.Name, nd.States)
		if len(nd.Parents) > 0 {
			s += fmt.Sprintf("<-%v", nd.Parents)
		}
	}
	return s + "}"
}

// DOT renders the network structure in Graphviz dot format, one node per
// variable with edges from parents — the programmatic version of the
// paper's Figure 7 diagrams.
func (n *Network) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=ellipse, fontsize=10];\n", name)
	for i, nd := range n.nodes {
		fmt.Fprintf(&b, "  n%d [label=\"%s (%d)\"];\n", i, nd.Name, nd.States)
	}
	for i, nd := range n.nodes {
		for _, p := range nd.Parents {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", p, i)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
