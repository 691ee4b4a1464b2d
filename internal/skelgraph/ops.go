package skelgraph

import "repro/internal/imaging"

// A branch, per the paper, is "a simple path from an end vertex to a
// junction vertex". These operations implement the Figure 4 pruning step.

// branch identifies a prunable segment: one end of kind End, the other of
// kind Junction, shorter than the threshold.
func (g *Graph) shortBranches(minLen int) []int {
	out := g.scr.branches[:0]
	for si := range g.Segments {
		if g.dead[si] {
			continue
		}
		s := &g.Segments[si]
		if s.Len() >= minLen {
			continue
		}
		da, db := g.Degree(s.A), g.Degree(s.B)
		if (da == 1 && db >= 3) || (db == 1 && da >= 3) {
			out = append(out, si)
		}
	}
	g.scr.branches = out
	return out
}

// PruneOnce deletes the single shortest noisy branch (length < minLen,
// running from an end vertex to a junction vertex), then re-merges any
// junction that dropped to degree 2 so the surviving branches join into
// longer segments. It reports whether a branch was deleted.
//
// Deleting one branch at a time is the paper's explicit rule: "Only one
// branch can be deleted at a time. Otherwise, both the noisy branch and
// the correct branch could be removed at the same time."
func (g *Graph) PruneOnce(minLen int) bool {
	cands := g.shortBranches(minLen)
	if len(cands) == 0 {
		return false
	}
	best := cands[0]
	for _, si := range cands[1:] {
		if g.Segments[si].Len() < g.Segments[best].Len() {
			best = si
		}
	}
	g.removeSegment(best)
	g.mergeChains()
	return true
}

// Prune repeatedly applies PruneOnce until no noisy branch remains and
// returns the number of branches deleted.
func (g *Graph) Prune(minLen int) int {
	n := 0
	for g.PruneOnce(minLen) {
		n++
	}
	g.Compact()
	return n
}

// PruneNaive deletes ALL branches shorter than minLen simultaneously — the
// Figure 4(b) failure mode kept for the ablation experiment. It returns
// the number of branches deleted.
func (g *Graph) PruneNaive(minLen int) int {
	cands := g.shortBranches(minLen)
	for _, si := range cands {
		g.removeSegment(si)
	}
	g.mergeChains()
	g.Compact()
	return len(cands)
}

// mergeChains joins the two segments of every degree-2 node into one,
// eliminating chain nodes introduced by pruning or loop cutting. The
// merged path is assembled in a side buffer (s1's own Path is one of the
// inputs) and then copied back into s1's slot, preserving the one-backing-
// array-per-slot invariant the arena relies on.
func (g *Graph) mergeChains() {
	buf := g.scr.pathBuf[:0]
	for ni := range g.Nodes {
		for g.Degree(ni) == 2 {
			s1i, s2i := g.Nodes[ni].Segs[0], g.Nodes[ni].Segs[1]
			if s1i == s2i {
				break // self-loop; forbidden by the forest invariant, but stay safe
			}
			buf = appendPathTo(buf[:0], &g.Segments[s1i], ni)   // ends at ni
			buf = appendPathFromSkip(buf, &g.Segments[s2i], ni) // continues from ni
			a := otherEnd(g.Segments[s1i], ni)
			b := otherEnd(g.Segments[s2i], ni)
			// Replace s1 with the merged segment, kill s2 and the node.
			g.unlink(a, s1i)
			g.unlink(ni, s1i)
			g.unlink(ni, s2i)
			g.unlink(b, s2i)
			g.dead[s2i] = true
			s1 := &g.Segments[s1i]
			s1.A, s1.B = a, b
			s1.Bridge = s1.Bridge && g.Segments[s2i].Bridge
			s1.Path = append(s1.Path[:0], buf...)
			g.Nodes[a].Segs = append(g.Nodes[a].Segs, s1i)
			g.Nodes[b].Segs = append(g.Nodes[b].Segs, s1i)
		}
	}
	g.scr.pathBuf = buf
}

func otherEnd(s Segment, n int) int {
	if s.A == n {
		return s.B
	}
	return s.A
}

// appendPathTo appends s's path onto dst oriented so it ENDS at node n.
func appendPathTo(dst []imaging.Point, s *Segment, n int) []imaging.Point {
	if s.B == n { //slj:alloc-ok appends into the caller's arena path buffer, amortised across frames
		return append(dst, s.Path...)
	}
	for i := len(s.Path) - 1; i >= 0; i-- {
		dst = append(dst, s.Path[i]) //slj:alloc-ok appends into the caller's arena path buffer, amortised across frames
	}
	return dst
}

// appendPathFromSkip appends s's path onto dst oriented so it STARTS at
// node n, omitting n's own pixel (the caller already emitted it).
func appendPathFromSkip(dst []imaging.Point, s *Segment, n int) []imaging.Point {
	if s.A == n { //slj:alloc-ok appends into the caller's arena path buffer, amortised across frames
		return append(dst, s.Path[1:]...)
	}
	for i := len(s.Path) - 2; i >= 0; i-- {
		dst = append(dst, s.Path[i]) //slj:alloc-ok appends into the caller's arena path buffer, amortised across frames
	}
	return dst
}

// NodePath returns the unique tree path between nodes a and b as a node
// sequence plus the segments traversed, or ok=false when they lie in
// different components. The returned slices alias the graph's arena and
// are valid only until its next NodePath or PixelPath query.
func (g *Graph) NodePath(a, b int) (nodes []int, segs []int, ok bool) {
	if a == b {
		return []int{a}, nil, true //slj:alloc-ok degenerate a == b query; per-frame path walks query distinct nodes
	}
	sc := g.scr
	prevNode := grabInts(sc.prevNode, len(g.Nodes))
	sc.prevNode = prevNode
	prevSeg := grabInts(sc.prevSeg, len(g.Nodes))
	sc.prevSeg = prevSeg
	queue := sc.queue[:0]
	for i := range prevNode {
		prevNode[i] = -1
		prevSeg[i] = -1
	}
	prevNode[a] = a
	queue = append(queue, a)
bfs:
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, si := range g.Nodes[cur].Segs {
			if g.dead[si] {
				continue
			}
			nxt := otherEnd(g.Segments[si], cur)
			if prevNode[nxt] != -1 {
				continue
			}
			prevNode[nxt] = cur
			prevSeg[nxt] = si
			if nxt == b {
				break bfs
			}
			queue = append(queue, nxt)
		}
	}
	sc.queue = queue
	if prevNode[b] == -1 {
		return nil, nil, false
	}
	nodes = sc.pathNodes[:0]
	segs = sc.pathSegs[:0]
	for cur := b; cur != a; cur = prevNode[cur] {
		nodes = append(nodes, cur)
		segs = append(segs, prevSeg[cur])
	}
	nodes = append(nodes, a)
	reverseInts(nodes)
	reverseInts(segs)
	sc.pathNodes = nodes
	sc.pathSegs = segs
	return nodes, segs, true
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// PixelPath returns the full pixel path between nodes a and b, or ok=false
// when disconnected. The path starts at a's pixel and ends at b's pixel.
// The slice aliases the graph's arena and is valid only until its next
// NodePath or PixelPath query.
func (g *Graph) PixelPath(a, b int) ([]imaging.Point, bool) {
	nodes, segs, ok := g.NodePath(a, b)
	if !ok {
		return nil, false
	}
	out := append(g.scr.pathOut[:0], g.Nodes[a].P)
	for i, si := range segs {
		out = appendPathFromSkip(out, &g.Segments[si], nodes[i])
	}
	g.scr.pathOut = out
	return out, true
}

// Components returns the node sets of each connected component that has at
// least one live segment or is an isolated node with degree > 0 (i.e.
// nodes stranded with no segments are skipped).
func (g *Graph) Components() [][]int {
	uf := g.scr.uf.reset(len(g.Nodes))
	for i, s := range g.Segments {
		if !g.dead[i] {
			uf.union(s.A, s.B)
		}
	}
	groups := make(map[int][]int)
	// Collect components in order of their lowest node index so the
	// result (and every tie-break downstream) is deterministic.
	var roots []int
	for i := range g.Nodes {
		if g.Degree(i) == 0 {
			continue
		}
		r := uf.find(i)
		if _, seen := groups[r]; !seen {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// MarkLargestComponent writes membership of the largest component — the
// one with the greatest summed live-segment pixel length, ties broken by
// lowest node index, the order Components lists them in — into a
// node-indexed mask and returns it. The provided mask is reused when it
// has capacity (pass nil to allocate fresh); nodes with no live segment
// are never marked, and an all-false mask means the graph has no live
// segments.
func (g *Graph) MarkLargestComponent(mask []bool) []bool {
	n := len(g.Nodes)
	if cap(mask) < n {
		mask = make([]bool, n) //slj:alloc-ok mask regrow when the caller's mask is too small, amortised across frames
	} else {
		mask = mask[:n]
		clear(mask)
	}
	uf := g.scr.uf.reset(n)
	for si := range g.Segments {
		if !g.dead[si] {
			uf.union(g.Segments[si].A, g.Segments[si].B)
		}
	}
	// Summed live pixel length per component root.
	total := grabInts(g.scr.compLen, n)
	g.scr.compLen = total
	clear(total)
	for si := range g.Segments {
		if !g.dead[si] {
			total[uf.find(g.Segments[si].A)] += g.Segments[si].Len()
		}
	}
	// Scanning nodes in ascending order and replacing only on strictly
	// greater totals keeps Components' lowest-node-index tie-break.
	best, bestLen := -1, -1
	for i := 0; i < n; i++ {
		if g.Degree(i) == 0 {
			continue
		}
		if r := uf.find(i); total[r] > bestLen {
			best, bestLen = r, total[r]
		}
	}
	if best < 0 {
		return mask
	}
	for i := 0; i < n; i++ {
		if g.Degree(i) > 0 && uf.find(i) == best {
			mask[i] = true
		}
	}
	return mask
}
