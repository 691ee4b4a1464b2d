package bayes

import (
	"fmt"
	"math"
	"sort"
)

// Evidence maps node index → observed state.
type Evidence map[int]int

// validate checks evidence against the network.
func (n *Network) validateEvidence(ev Evidence) error {
	for node, state := range ev {
		if node < 0 || node >= len(n.nodes) {
			return fmt.Errorf("%w: evidence node %d", ErrBadNode, node)
		}
		if state < 0 || state >= n.nodes[node].States {
			return fmt.Errorf("%w: evidence node %q state %d", ErrBadState, n.nodes[node].Name, state)
		}
	}
	return nil
}

// Posterior computes P(query | evidence) exactly, by enumeration over all
// hidden variables. Cost is exponential in the number of hidden variables;
// the pose networks have at most a handful, so this is the reference
// engine (PosteriorVE is the fast one and is cross-checked against this in
// tests). It returns a distribution over the query variable's states.
func (n *Network) Posterior(query int, ev Evidence) ([]float64, error) {
	if query < 0 || query >= len(n.nodes) {
		return nil, fmt.Errorf("%w: query %d", ErrBadNode, query)
	}
	if err := n.validateEvidence(ev); err != nil {
		return nil, err
	}
	assignment := make([]int, len(n.nodes))
	for i := range assignment {
		assignment[i] = -1
	}
	for node, state := range ev {
		assignment[node] = state
	}
	// Hidden variables (everything unassigned, including the query).
	var hidden []int
	for i, s := range assignment {
		if s == -1 {
			hidden = append(hidden, i)
		}
	}
	dist := make([]float64, n.nodes[query].States)
	if qs, observed := ev[query]; observed {
		dist[qs] = 1
		return dist, nil
	}

	// A posterior can sum millions of tiny joint terms, so each state's
	// mass is accumulated with Neumaier's compensated summation: the
	// reference stays within a few ulps however many terms there are.
	comp := make([]float64, len(dist))
	var enumerateJoint func(k int)
	enumerateJoint = func(k int) {
		if k == len(hidden) {
			p := 1.0
			for i := range n.nodes {
				row, _ := n.parentConfig(i, assignment)
				p *= n.Prob(i, row, assignment[i])
				if p == 0 {
					return
				}
			}
			q := assignment[query]
			sum := dist[q] + p
			if math.Abs(dist[q]) >= p {
				comp[q] += (dist[q] - sum) + p
			} else {
				comp[q] += (p - sum) + dist[q]
			}
			dist[q] = sum
			return
		}
		node := hidden[k]
		for s := 0; s < n.nodes[node].States; s++ {
			assignment[node] = s
			enumerateJoint(k + 1)
		}
		assignment[node] = -1
	}
	enumerateJoint(0)

	total := 0.0
	for s := range dist {
		dist[s] += comp[s]
		total += dist[s]
	}
	if total == 0 {
		// Evidence has zero probability; return uniform as a safe answer.
		for s := range dist {
			dist[s] = 1 / float64(len(dist))
		}
		return dist, nil
	}
	for s := range dist {
		dist[s] /= total
	}
	return dist, nil
}

// factor is an intermediate table over a set of variables, used by
// variable elimination.
type factor struct {
	vars []int // node indices, ascending
	card []int // cardinalities, parallel to vars
	vals []float64
}

func (f *factor) index(assignment map[int]int) int {
	idx := 0
	for k, v := range f.vars {
		idx = idx*f.card[k] + assignment[v]
	}
	return idx
}

// multiply returns the product factor of a and b.
func multiply(a, b *factor, states func(int) int) *factor {
	seen := make(map[int]bool, len(a.vars)+len(b.vars))
	var vars []int
	for _, v := range append(append([]int{}, a.vars...), b.vars...) {
		if !seen[v] {
			seen[v] = true
			vars = append(vars, v)
		}
	}
	sort.Ints(vars)
	card := make([]int, len(vars))
	size := 1
	for i, v := range vars {
		card[i] = states(v)
		size *= card[i]
	}
	out := &factor{vars: vars, card: card, vals: make([]float64, size)}
	assignment := make(map[int]int, len(vars))
	var walk func(k int)
	walk = func(k int) {
		if k == len(vars) {
			out.vals[out.index(assignment)] = a.vals[a.index(assignment)] * b.vals[b.index(assignment)]
			return
		}
		for s := 0; s < card[k]; s++ {
			assignment[vars[k]] = s
			walk(k + 1)
		}
	}
	walk(0)
	return out
}

// reduce slices factor f at variable v = state, removing v from the
// factor's scope. A factor whose scope does not include v is returned
// unchanged.
func reduce(f *factor, v, state int, states func(int) int) *factor {
	found := false
	for _, fv := range f.vars {
		if fv == v {
			found = true
			break
		}
	}
	if !found {
		return f
	}
	var vars []int
	for _, fv := range f.vars {
		if fv != v {
			vars = append(vars, fv)
		}
	}
	card := make([]int, len(vars))
	size := 1
	for i, fv := range vars {
		card[i] = states(fv)
		size *= card[i]
	}
	out := &factor{vars: vars, card: card, vals: make([]float64, size)}
	assignment := make(map[int]int, len(f.vars))
	assignment[v] = state
	var walk func(k int)
	walk = func(k int) {
		if k == len(vars) {
			out.vals[out.index(assignment)] = f.vals[f.index(assignment)]
			return
		}
		for s := 0; s < card[k]; s++ {
			assignment[vars[k]] = s
			walk(k + 1)
		}
	}
	walk(0)
	return out
}

// sumOut marginalises variable v out of f.
func sumOut(f *factor, v int, states func(int) int) *factor {
	var vars []int
	for _, fv := range f.vars {
		if fv != v {
			vars = append(vars, fv)
		}
	}
	card := make([]int, len(vars))
	size := 1
	for i, fv := range vars {
		card[i] = states(fv)
		size *= card[i]
	}
	out := &factor{vars: vars, card: card, vals: make([]float64, size)}
	assignment := make(map[int]int, len(f.vars))
	var walk func(k int)
	walk = func(k int) {
		if k == len(vars) {
			sum := 0.0
			for s := 0; s < states(v); s++ {
				assignment[v] = s
				sum += f.vals[f.index(assignment)]
			}
			delete(assignment, v)
			out.vals[out.index(assignment)] = sum
			return
		}
		for s := 0; s < card[k]; s++ {
			assignment[vars[k]] = s
			walk(k + 1)
		}
	}
	walk(0)
	return out
}

// scope returns node i's factor scope: its parents and itself, ascending.
func (n *Network) scope(i int) []int {
	vars := append(append([]int{}, n.nodes[i].Parents...), i)
	sort.Ints(vars)
	return vars
}

// nodeFactor tabulates P(node i | parents) as a factor over scope(i).
func (n *Network) nodeFactor(i int) *factor {
	vars := n.scope(i)
	card := make([]int, len(vars))
	size := 1
	for k, v := range vars {
		card[k] = n.nodes[v].States
		size *= card[k]
	}
	f := &factor{vars: vars, card: card, vals: make([]float64, size)}
	assignment := make(map[int]int, len(vars))
	full := make([]int, len(n.nodes))
	var walk func(k int)
	walk = func(k int) {
		if k == len(vars) {
			for v, s := range assignment {
				full[v] = s
			}
			row, _ := n.parentConfig(i, full)
			f.vals[f.index(assignment)] = n.Prob(i, row, assignment[i])
			return
		}
		for s := 0; s < card[k]; s++ {
			assignment[vars[k]] = s
			walk(k + 1)
		}
	}
	walk(0)
	return f
}

// PosteriorVE computes P(query | evidence) by variable elimination with a
// min-degree-style ordering (fewest-factors-first). Exact; asymptotically
// much faster than enumeration on chain- and tree-like networks.
func (n *Network) PosteriorVE(query int, ev Evidence) ([]float64, error) {
	if query < 0 || query >= len(n.nodes) {
		return nil, fmt.Errorf("%w: query %d", ErrBadNode, query)
	}
	if err := n.validateEvidence(ev); err != nil {
		return nil, err
	}
	if qs, observed := ev[query]; observed {
		dist := make([]float64, n.nodes[query].States)
		dist[qs] = 1
		return dist, nil
	}
	states := func(v int) int { return n.nodes[v].States }

	// Build one factor per node, P(node | parents), then apply evidence
	// by REDUCING each observed variable out of the factor (slicing at
	// the observed state). Reduction — rather than masking — keeps the
	// final product factor small even when almost everything is
	// observed, which is the common case for the pose networks.
	factors := make([]*factor, 0, len(n.nodes))
	for i := range n.nodes {
		f := n.nodeFactor(i)
		vars := f.vars
		for _, v := range vars {
			if s, observed := ev[v]; observed {
				f = reduce(f, v, s, states)
			}
		}
		factors = append(factors, f)
	}

	// Eliminate every hidden non-query variable, smallest-involvement
	// first.
	hidden := make(map[int]bool)
	for i := range n.nodes {
		if _, observed := ev[i]; !observed && i != query {
			hidden[i] = true
		}
	}
	for len(hidden) > 0 {
		// Pick the hidden variable appearing in the fewest factors.
		best, bestCount := -1, 1<<30
		for v := range hidden {
			c := 0
			for _, f := range factors {
				for _, fv := range f.vars {
					if fv == v {
						c++
						break
					}
				}
			}
			if c < bestCount || (c == bestCount && v < best) {
				best, bestCount = v, c
			}
		}
		v := best
		delete(hidden, v)
		// Multiply all factors containing v, sum v out.
		var prod *factor
		rest := factors[:0]
		for _, f := range factors {
			contains := false
			for _, fv := range f.vars {
				if fv == v {
					contains = true
					break
				}
			}
			if !contains {
				rest = append(rest, f)
				continue
			}
			if prod == nil {
				prod = f
			} else {
				prod = multiply(prod, f, states)
			}
		}
		factors = rest
		if prod != nil {
			factors = append(factors, sumOut(prod, v, states))
		}
	}

	// Multiply the survivors and read off the query distribution.
	var prod *factor
	for _, f := range factors {
		if prod == nil {
			prod = f
		} else {
			prod = multiply(prod, f, states)
		}
	}
	dist := make([]float64, n.nodes[query].States)
	if prod == nil {
		for s := range dist {
			dist[s] = 1 / float64(len(dist))
		}
		return dist, nil
	}
	assignment := map[int]int{}
	total := 0.0
	for s := 0; s < n.nodes[query].States; s++ {
		assignment[query] = s
		// Any remaining vars beyond the query would indicate a bug; the
		// elimination above removes everything else, and evidence vars
		// were restricted. Sum over leftovers defensively.
		dist[s] = sumAll(prod, assignment, states)
		total += dist[s]
	}
	if total == 0 {
		for s := range dist {
			dist[s] = 1 / float64(len(dist))
		}
		return dist, nil
	}
	for s := range dist {
		dist[s] /= total
	}
	return dist, nil
}

// sumAll sums f over all variables not pinned in assignment.
func sumAll(f *factor, pinned map[int]int, states func(int) int) float64 {
	var free []int
	for _, v := range f.vars {
		if _, ok := pinned[v]; !ok {
			free = append(free, v)
		}
	}
	assignment := make(map[int]int, len(f.vars))
	for k, v := range pinned {
		assignment[k] = v
	}
	total := 0.0
	var walk func(k int)
	walk = func(k int) {
		if k == len(free) {
			total += f.vals[f.index(assignment)]
			return
		}
		for s := 0; s < states(free[k]); s++ {
			assignment[free[k]] = s
			walk(k + 1)
		}
	}
	walk(0)
	return total
}
