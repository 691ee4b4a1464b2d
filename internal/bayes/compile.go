package bayes

import (
	"errors"
	"fmt"
	"slices"
)

// Compiled inference. A classifier asks one network the same question
// over and over: the posterior of one query node with a fixed set of
// nodes observed. For such a pattern, PosteriorVE's elimination order —
// and so every multiplication and sum it performs — depends only on
// which nodes are observed, never on their states. Compile runs that
// schedule once: factors that variable elimination sums out contain no
// evidence, so their sums become constant vectors; every other factor
// is reduced by its observed states, so it becomes a table with one row
// per evidence combination. Compiled.Posterior multiplies one row of
// each table, in PosteriorVE's order, and normalises as PosteriorVE
// does, so its result is bit-identical to PosteriorVE's.

// ErrNotCompilable reports an evidence pattern that variable elimination
// cannot evaluate as a product of table rows: a hidden node's sum would
// involve a factor that depends on the evidence.
var ErrNotCompilable = errors.New("bayes: evidence pattern not compilable")

// Compiled is one network's posterior for a query node under a fixed set
// of observed nodes, flattened into linear-domain tables. It is
// immutable and safe for concurrent use.
type Compiled struct {
	// card is the query node's cardinality: the width of every row.
	card int
	// terms are the factors of the final product, in PosteriorVE's
	// multiplication order.
	terms []term
	// vals backs every term's rows.
	vals []float64
}

// term is one factor of the posterior's product. Its row is selected by
// the states of its key nodes (mixed radix, first key most significant)
// and holds one value per query state; a term without keys is a
// constant row.
type term struct {
	off  int // start of row 0 in Compiled.vals
	keys []key
}

// key is one observed node that selects a term's row.
type key struct{ node, card int }

// pending is one factor of the replayed elimination: the source node's
// CPT (node >= 0) or the result of summing a hidden node out (f set).
type pending struct {
	node int
	keys []int // observed variables of the scope, ascending
	free []int // hidden variables of the scope, ascending
	f    *factor
}

// values returns the factor's table; only valid for factors without
// observed variables.
func (p pending) values(n *Network) *factor {
	if p.f != nil {
		return p.f
	}
	return n.nodeFactor(p.node)
}

// Compile flattens P(query | observed nodes) for Posterior. observed
// lists the nodes whose states the caller will supply; every other
// non-query node is summed out.
func (n *Network) Compile(query int, observed []int) (*Compiled, error) {
	if query < 0 || query >= len(n.nodes) {
		return nil, fmt.Errorf("%w: query %d", ErrBadNode, query)
	}
	isObs := make([]bool, len(n.nodes))
	for _, v := range observed {
		if v < 0 || v >= len(n.nodes) {
			return nil, fmt.Errorf("%w: observed node %d", ErrBadNode, v)
		}
		isObs[v] = true
	}
	if isObs[query] {
		return nil, fmt.Errorf("%w: query node %d is observed", ErrNotCompilable, query)
	}
	states := func(v int) int { return n.nodes[v].States }

	// One factor per node, in node order, with the observed variables
	// split off as PosteriorVE's reduction removes them.
	fs := make([]pending, len(n.nodes))
	var hidden []int
	for i := range n.nodes {
		fs[i].node = i
		for _, v := range n.scope(i) {
			if isObs[v] {
				fs[i].keys = append(fs[i].keys, v)
			} else {
				fs[i].free = append(fs[i].free, v)
			}
		}
		if !isObs[i] && i != query {
			hidden = append(hidden, i)
		}
	}

	// Replay the elimination: the hidden node in the fewest factors goes
	// first (lowest index on ties); the factors holding it are multiplied
	// in list order and the sum replaces them at the end of the list.
	for len(hidden) > 0 {
		best, bestCount := 0, -1
		for k, v := range hidden {
			c := 0
			for _, p := range fs {
				if slices.Contains(p.free, v) {
					c++
				}
			}
			if bestCount < 0 || c < bestCount {
				best, bestCount = k, c
			}
		}
		v := hidden[best]
		hidden = slices.Delete(hidden, best, best+1)
		var prod *factor
		rest := fs[:0]
		for _, p := range fs {
			if !slices.Contains(p.free, v) {
				rest = append(rest, p)
				continue
			}
			if len(p.keys) > 0 {
				return nil, fmt.Errorf("%w: summing out node %d involves observed node %d",
					ErrNotCompilable, v, p.keys[0])
			}
			if prod == nil {
				prod = p.values(n)
			} else {
				prod = multiply(prod, p.values(n), states)
			}
		}
		sum := sumOut(prod, v, states)
		fs = append(rest, pending{node: -1, free: sum.vars, f: sum})
	}

	// Every survivor now depends on at most the query and its own
	// observed nodes: tabulate it.
	c := &Compiled{card: states(query), terms: make([]term, len(fs))}
	full := make([]int, len(n.nodes))
	for k, p := range fs {
		t := term{off: len(c.vals)}
		for _, v := range p.keys {
			t.keys = append(t.keys, key{v, states(v)})
		}
		var f *factor
		if len(p.keys) == 0 {
			f = p.values(n)
		}
		for r := 0; r < t.rows(); r++ {
			t.decode(r, full)
			for s := 0; s < c.card; s++ {
				full[query] = s
				switch {
				case f == nil:
					row, _ := n.parentConfig(p.node, full)
					c.vals = append(c.vals, n.Prob(p.node, row, full[p.node]))
				case len(f.vars) == 0:
					c.vals = append(c.vals, f.vals[0])
				default:
					c.vals = append(c.vals, f.vals[s])
				}
			}
		}
		c.terms[k] = t
	}
	return c, nil
}

// rows returns the number of rows of the term's table.
func (t *term) rows() int {
	r := 1
	for _, k := range t.keys {
		r *= k.card
	}
	return r
}

// decode writes the node states of row r into ev.
func (t *term) decode(r int, ev []int) {
	for i := len(t.keys) - 1; i >= 0; i-- {
		ev[t.keys[i].node] = r % t.keys[i].card
		r /= t.keys[i].card
	}
}

// row returns the term's row for the evidence, or false when a state is
// out of range.
func (c *Compiled) row(t *term, ev []int) ([]float64, bool) {
	r := 0
	for _, k := range t.keys {
		s := ev[k.node]
		if s < 0 || s >= k.card {
			return nil, false
		}
		r = r*k.card + s
	}
	off := t.off + r*c.card
	return c.vals[off : off+c.card], true
}

// Posterior writes P(query | ev) into dist, which must have the query's
// cardinality. ev is indexed by node and must hold a state for every
// observed node of the pattern; other entries are ignored. It returns
// ErrBadState when an observed state is out of range. It does not
// allocate.
func (c *Compiled) Posterior(ev []int, dist []float64) error {
	dist = dist[:c.card]
	for s := range dist {
		dist[s] = 1
	}
	for i := range c.terms {
		row, ok := c.row(&c.terms[i], ev)
		if !ok {
			return ErrBadState
		}
		for s := range dist {
			dist[s] *= row[s]
		}
	}
	// PosteriorVE reads each state's mass into a zero accumulator (so a
	// -0 product becomes +0) and normalises by their running sum.
	total := 0.0
	for s := range dist {
		dist[s] = 0 + dist[s]
		total += dist[s]
	}
	if total == 0 {
		for s := range dist {
			dist[s] = 1 / float64(len(dist))
		}
		return nil
	}
	for s := range dist {
		dist[s] /= total
	}
	return nil
}
