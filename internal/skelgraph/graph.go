// Package skelgraph converts a raw thinning result into the simplified
// skeleton graph of Section 3 of the paper:
//
//  1. the thinned pixel set becomes a graph (8-adjacency, with redundant
//     diagonal links suppressed),
//  2. "adjacent junction vertices" — vertices with more than one junction
//     vertex among their eight neighbours — are removed, capping every
//     degree at 4 and breaking lines around junction clusters,
//  3. a MAXIMUM spanning tree over the resulting segments (with short
//     bridge edges re-connecting the broken lines) cuts every loop, and
//  4. noisy branches shorter than a threshold are pruned, strictly one
//     branch at a time so a true branch next to a noisy one survives
//     (Figure 4).
//
// The graph is represented in contracted form: nodes are the distinguished
// pixels (endpoints, junctions, isolated pixels and cut points) and each
// segment carries the full pixel path between its two nodes, so the
// original geometry is never lost and the skeleton can be rasterised back
// into an image.
package skelgraph

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/imaging"
)

// DefaultPruneLen is the paper's noisy-branch threshold: "If the branch
// consists of less than 10 vertices, it might be a noisy (redundant)
// branch and needs to be deleted."
const DefaultPruneLen = 10

// DefaultBridgeRadius is the maximum Euclidean distance over which two
// broken-line endpoints may be re-joined after adjacent-junction-vertex
// removal. Removal deletes at most a 1-pixel rim around a junction
// cluster, so 3 pixels of slack is enough in practice.
const DefaultBridgeRadius = 3.0

// ErrEmptySkeleton reports that the input image had no foreground pixels.
var ErrEmptySkeleton = errors.New("skelgraph: empty skeleton")

// NodeKind classifies a node of the contracted skeleton graph.
type NodeKind int

// Node kinds. Kinds reflect the CURRENT degree of the node and are kept up
// to date by the mutating operations.
const (
	// KindEnd is a node with exactly one incident segment (a limb tip).
	KindEnd NodeKind = iota + 1
	// KindJunction has three or more incident segments (a body-part
	// intersection, e.g. "head and hand" per the paper).
	KindJunction
	// KindIsolated has no incident segments.
	KindIsolated
	// KindChain has exactly two incident segments; it appears where a
	// loop cut or a bridge left a degree-2 node that was once
	// distinguished.
	KindChain
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case KindEnd:
		return "end"
	case KindJunction:
		return "junction"
	case KindIsolated:
		return "isolated"
	case KindChain:
		return "chain"
	default:
		return "unknown-kind"
	}
}

// Node is a distinguished skeleton pixel.
type Node struct {
	// P is the pixel position.
	P imaging.Point
	// Segs lists indices into Graph.Segments of the incident live
	// segments.
	Segs []int
}

// Segment is a maximal pixel path between two nodes. Path[0] is node A's
// pixel and Path[len-1] is node B's pixel; interior pixels have degree 2.
type Segment struct {
	// A and B are node indices; A == B only transiently during
	// construction (self-loops are cut before Build returns).
	A, B int
	// Path is the full pixel path including both node pixels.
	Path []imaging.Point
	// Bridge marks a reconnection edge synthesised after
	// adjacent-junction-vertex removal rather than traced from pixels.
	Bridge bool
}

// Len returns the number of pixels of the segment, the "vertices" count
// the paper's pruning rule speaks of.
func (s *Segment) Len() int { return len(s.Path) }

// Graph is the contracted skeleton graph. After Build it is always a
// forest (loop-free); mutating operations preserve that invariant.
type Graph struct {
	// Nodes holds the distinguished pixels. Node indices are stable;
	// removed nodes keep their slot but have no incident segments.
	Nodes []Node
	// Segments holds the live segments. Removed segments are excised
	// from the slice by Compact; during mutation they are marked dead.
	Segments []Segment
	// W, H are the dimensions of the source image, kept so the graph
	// can be rasterised back.
	W, H int

	// Stats records the repairs Build applied; see BuildStats.
	Stats BuildStats

	dead []bool // parallel to Segments; true = removed

	// scr is the frame arena this graph was built from (nil when the
	// graph owns its memory). When set, every mutating operation and
	// path query draws its working buffers from the arena instead of
	// allocating, and the graph itself lives inside the arena.
	scr *Scratch
}

// BuildStats counts the Section 3 repairs Build performed on one
// skeleton. The pipeline's observability layer aggregates these into
// the pipeline.junctions_merged / pipeline.loops_cut health counters:
// persistent jumps mean the thinning stage is handing over much noisier
// skeletons than usual.
type BuildStats struct {
	// JunctionsRemoved is the number of adjacent junction vertices
	// deleted by the step-2 simplification.
	JunctionsRemoved int
	// Bridges is the number of reconnection edges synthesised after
	// junction removal.
	Bridges int
	// LoopsCut is the number of segments the spanning-tree step
	// rejected (each one closed a loop and was detached or removed).
	LoopsCut int
}

// Options configures Build.
type Options struct {
	// RemoveAdjacentJunctions applies step 2 (the paper's
	// simplification). On by default.
	RemoveAdjacentJunctions bool
	// MaxSpanning selects the maximum spanning tree of step 3; when
	// false a minimum spanning tree is used instead (ablation — the
	// paper argues max is required).
	MaxSpanning bool
	// BridgeRadius bounds reconnection distance; <= 0 disables bridges.
	BridgeRadius float64
}

// Option mutates Options.
type Option func(*Options)

// WithAdjacentJunctionRemoval toggles step 2.
func WithAdjacentJunctionRemoval(v bool) Option {
	return func(o *Options) { o.RemoveAdjacentJunctions = v }
}

// WithMaxSpanning toggles maximum (true) versus minimum (false) spanning
// tree loop cutting.
func WithMaxSpanning(v bool) Option { return func(o *Options) { o.MaxSpanning = v } }

// WithBridgeRadius overrides the reconnection radius.
func WithBridgeRadius(r float64) Option { return func(o *Options) { o.BridgeRadius = r } }

// pixelAdj is the raw pixel graph in fixed-stride adjacency form: pixel
// v's neighbours are nbr[8v : 8v+deg[v]], in the imaging.Neighbors8 scan
// order. The flat layout replaces the per-pixel []int32 slices that used
// to dominate the per-frame allocation count (one allocation per skeleton
// pixel); now the whole graph costs two allocations regardless of size.
type pixelAdj struct {
	nbr []int32
	deg []uint8
}

// neighbors returns pixel v's adjacency list.
func (a *pixelAdj) neighbors(v int32) []int32 {
	return a.nbr[8*int(v) : 8*int(v)+int(a.deg[v])]
}

// pixelGrid numbers the foreground pixels of a skeleton over its
// foreground bounding rectangle grown by one pixel: idx[(y−y0)·w + x−x0]
// is pixel (x, y)'s index into the pixel list, or −1 for background. The
// border of −1 lets every neighbour lookup of a foreground pixel skip
// the bounds check.
type pixelGrid struct {
	idx    []int32
	x0, y0 int // image coordinates of idx[0]
	w      int // row stride of idx
}

// cell returns the position of pixel (x, y) in idx.
func (g pixelGrid) cell(x, y int) int { return (y-g.y0)*g.w + x - g.x0 }

// at returns the index of pixel (x, y), or −1 for background.
func (g pixelGrid) at(x, y int) int32 { return g.idx[g.cell(x, y)] }

// newPixelGrid marks skel's foreground in a grid (0 for foreground, −1
// for background) for pixelAdjacency to number. With a scratch the grid
// aliases sc.idx.
func newPixelGrid(skel *imaging.Binary, sc *Scratch) pixelGrid {
	fg := skel.ForegroundBounds()
	g := pixelGrid{x0: fg.Min.X - 1, y0: fg.Min.Y - 1, w: fg.Dx() + 2}
	n := g.w * (fg.Dy() + 2)
	if sc != nil {
		g.idx = grabInt32(sc.idx, n)
		sc.idx = g.idx
	} else {
		g.idx = make([]int32, n) //slj:alloc-ok nil-scratch fallback for one-shot callers; arena callers take grabInt32
	}
	for i := range g.idx {
		g.idx[i] = -1
	}
	for y := fg.Min.Y; y < fg.Max.Y; y++ {
		out := g.idx[(y-g.y0)*g.w+1:]
		for i, v := range skel.Pix[y*skel.W+fg.Min.X : y*skel.W+fg.Max.X] {
			if v != 0 {
				out[i] = 0
			}
		}
	}
	return g
}

// pixelAdjacency numbers the grid's foreground pixels in row-major order
// and builds the raw pixel graph: for every foreground pixel its
// adjacent foreground pixels under 8-connectivity, with a diagonal link
// suppressed when the two pixels already share an orthogonal 2-path (the
// same reduction used by the thinning metrics; it prevents phantom
// triangle cycles at corners).
func pixelAdjacency(g pixelGrid, sc *Scratch) (pts []imaging.Point, adj pixelAdj) {
	if sc != nil {
		pts = sc.pts[:0]
	}
	for y := 1; y < len(g.idx)/g.w-1; y++ {
		row := g.idx[y*g.w+1 : (y+1)*g.w-1]
		for i, v := range row {
			if v >= 0 {
				row[i] = int32(len(pts))
				pts = append(pts, imaging.Point{X: g.x0 + 1 + i, Y: g.y0 + y})
			}
		}
	}
	if sc != nil {
		sc.pts = pts
		adj = pixelAdj{nbr: grabInt32(sc.nbr, 8*len(pts)), deg: grabBytes(sc.deg, len(pts))}
		sc.nbr, sc.deg = adj.nbr, adj.deg
	} else {
		adj = pixelAdj{nbr: make([]int32, 8*len(pts)), deg: make([]uint8, len(pts))} //slj:alloc-ok nil-scratch fallback for one-shot callers; arena callers take the grab helpers
	}
	for vi, p := range pts {
		x, y := p.X, p.Y
		for _, d := range imaging.Neighbors8 {
			j := g.at(x+d.X, y+d.Y)
			if j < 0 {
				continue
			}
			if d.X != 0 && d.Y != 0 {
				// Diagonal: suppress when an orthogonal 2-path exists.
				if g.at(x+d.X, y) >= 0 || g.at(x, y+d.Y) >= 0 {
					continue
				}
			}
			adj.nbr[8*vi+int(adj.deg[vi])] = j
			adj.deg[vi]++
		}
	}
	return pts, adj
}

// AdjacentJunctionVertices returns the pixels the paper's simplification
// removes: vertices with more than one junction vertex (degree >= 3) among
// their eight neighbours. Exposed for the Figure 3 experiment.
func AdjacentJunctionVertices(skel *imaging.Binary) []imaging.Point {
	g := newPixelGrid(skel, nil)
	pts, adj := pixelAdjacency(g, nil)
	return adjacentJunctionVertices(g, pts, adj, nil)
}

// adjacentJunctionVertices is AdjacentJunctionVertices over a numbered
// grid and its pixel graph; with a scratch the returned slice aliases
// sc.remove and is valid only until the arena's next use.
func adjacentJunctionVertices(g pixelGrid, pts []imaging.Point, adj pixelAdj, sc *Scratch) []imaging.Point {
	var out []imaging.Point
	if sc != nil {
		out = sc.remove[:0]
	}
	for _, p := range pts {
		n := 0
		for _, d := range imaging.Neighbors8 {
			if j := g.at(p.X+d.X, p.Y+d.Y); j >= 0 && adj.deg[j] >= 3 {
				n++
			}
		}
		if n > 1 {
			out = append(out, p)
		}
	}
	if sc != nil {
		sc.remove = out
	}
	return out
}

// pixelGraph builds skel's pixel graph, first deleting the adjacent
// junction vertices when removeJunctions is set (the paper's step-2
// simplification), and returns it with the number of pixels deleted.
func pixelGraph(skel *imaging.Binary, sc *Scratch, removeJunctions bool) ([]imaging.Point, pixelAdj, int) {
	grid := newPixelGrid(skel, sc)
	pts, adj := pixelAdjacency(grid, sc)
	if !removeJunctions {
		return pts, adj, 0
	}
	remove := adjacentJunctionVertices(grid, pts, adj, sc)
	if len(remove) == 0 {
		return pts, adj, 0
	}
	// Drop the removed pixels from the grid and renumber the rest. This
	// reuses the arena's adjacency slabs a second time; the junction scan
	// above is done with them by now.
	for _, p := range remove {
		grid.idx[grid.cell(p.X, p.Y)] = -1
	}
	pts, adj = pixelAdjacency(grid, sc)
	return pts, adj, len(remove)
}

// applyOptions runs the option closures against a copy of o. Passing
// &o to unknown closures forces o to the heap, so the escape is
// quarantined here, off the no-option fast path.
func applyOptions(o Options, opts []Option) Options {
	for _, fn := range opts {
		fn(&o) //slj:alloc-ok caller-supplied option closures; the hot path passes none, so the loop body never runs
	}
	return o
}

// Build converts a thinned binary image into a loop-free contracted
// skeleton graph, applying the Section 3 pipeline (simplify → maximum
// spanning tree loop cut). Pruning is left to the caller (Prune) because
// the paper treats it as a separate, iterative step.
func Build(skel *imaging.Binary, opts ...Option) (*Graph, error) {
	return BuildScratch(skel, nil, opts...)
}

// BuildScratch is Build backed by a per-worker frame arena. With a nil
// scratch it behaves exactly like Build (fresh allocations, caller owns
// the graph); with a scratch the returned graph and everything reachable
// from it live inside the arena and are valid only until the next
// BuildScratch call on the same arena.
//
//slj:hotpath
func BuildScratch(skel *imaging.Binary, sc *Scratch, opts ...Option) (*Graph, error) {
	o := Options{
		RemoveAdjacentJunctions: true,
		MaxSpanning:             true,
		BridgeRadius:            DefaultBridgeRadius,
	}
	if len(opts) > 0 {
		// Applied out of line so that on the common no-option hot path the
		// Options value never has its address taken and stays on the stack.
		o = applyOptions(o, opts)
	}

	pts, adj, junctionsRemoved := pixelGraph(skel, sc, o.RemoveAdjacentJunctions)
	if len(pts) == 0 {
		return nil, ErrEmptySkeleton
	}

	g := sc.graph(skel.W, skel.H)
	g.Stats.JunctionsRemoved = junctionsRemoved
	g.traceSegments(pts, adj)
	if o.BridgeRadius > 0 {
		g.addBridges(o.BridgeRadius)
	}
	g.spanningCut(o.MaxSpanning)
	g.mergeChains()
	g.Compact()
	return g, nil
}

// traceSegments contracts the pixel graph into nodes and segments.
func (g *Graph) traceSegments(pts []imaging.Point, adj pixelAdj) {
	// Nodes: every pixel whose degree != 2.
	var nodeOf []int32
	if g.scr != nil {
		nodeOf = grabInt32(g.scr.nodeOf, len(pts))
		g.scr.nodeOf = nodeOf
	} else {
		nodeOf = make([]int32, len(pts)) //slj:alloc-ok nil-scratch fallback for one-shot callers
	}
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	for i := range pts {
		if adj.deg[i] != 2 {
			nodeOf[i] = int32(g.newNode(pts[i]))
		}
	}

	// visited[a] bit k set means the edge from a to its k-th neighbour
	// has been traced. Edges are marked in both directions, so one flat
	// byte per pixel replaces the map of pixel pairs the tracer used to
	// allocate per edge.
	var visited []uint8
	if g.scr != nil {
		visited = grabBytes(g.scr.visited, len(pts))
		g.scr.visited = visited
	} else {
		visited = make([]uint8, len(pts)) //slj:alloc-ok nil-scratch fallback for one-shot callers
	}
	markDir := func(a, b int32) {
		for k, w := range adj.neighbors(a) {
			if w == b {
				visited[a] |= 1 << uint(k)
				return
			}
		}
	}
	mark := func(a, b int32) {
		markDir(a, b)
		markDir(b, a)
	}
	seen := func(a, b int32) bool {
		for k, w := range adj.neighbors(a) {
			if w == b {
				return visited[a]&(1<<uint(k)) != 0
			}
		}
		return false
	}

	// One path buffer serves every segment trace: the tracer builds a
	// path here and addSegment copies it into the segment's own (reused)
	// backing.
	var path []imaging.Point
	if g.scr != nil {
		path = g.scr.pathBuf[:0]
	}

	// Walk each segment starting from every node pixel.
	for vi := range pts {
		if nodeOf[vi] < 0 {
			continue
		}
		for _, next := range adj.neighbors(int32(vi)) {
			if seen(int32(vi), next) {
				continue
			}
			path = append(path[:0], pts[vi])
			prev, cur := int32(vi), next
			mark(prev, cur)
			for nodeOf[cur] < 0 {
				path = append(path, pts[cur])
				// Degree-2 interior: step to the neighbour that is not prev.
				var nxt int32 = -1
				for _, w := range adj.neighbors(cur) {
					if w != prev {
						nxt = w
						break
					}
				}
				if nxt < 0 {
					break // dead end; degree data inconsistent, stop
				}
				mark(cur, nxt)
				prev, cur = cur, nxt
			}
			if nodeOf[cur] >= 0 {
				path = append(path, pts[cur])
				g.addSegment(int(nodeOf[vi]), int(nodeOf[cur]), path, false)
			}
		}
	}

	// Pure cycles: rings whose every pixel has degree 2 contain no node;
	// break each by promoting an arbitrary pixel to a node and tracing
	// the ring as a self-loop (cut later by spanningCut).
	for vi := range pts {
		if adj.deg[vi] != 2 || nodeOf[vi] >= 0 {
			continue
		}
		// Already traced as part of a segment?
		nb := adj.neighbors(int32(vi))
		if seen(int32(vi), nb[0]) && seen(int32(vi), nb[1]) {
			continue
		}
		nodeOf[vi] = int32(g.newNode(pts[vi]))
		path = append(path[:0], pts[vi])
		prev, cur := int32(vi), nb[0]
		mark(prev, cur)
		for cur != int32(vi) {
			path = append(path, pts[cur])
			var nxt int32 = -1
			for _, w := range adj.neighbors(cur) {
				if w != prev {
					nxt = w
					break
				}
			}
			if nxt < 0 {
				break
			}
			mark(cur, nxt)
			prev, cur = cur, nxt
		}
		path = append(path, pts[vi])
		g.addSegment(int(nodeOf[vi]), int(nodeOf[vi]), path, false)
	}
	if g.scr != nil {
		g.scr.pathBuf = path
	}
}

// newNode appends a node for pixel p, reusing the slot's Segs backing
// when the arena still has the slot in capacity. Node slots are never
// copied between indices, so per-slot reuse is safe.
func (g *Graph) newNode(p imaging.Point) int {
	ni := len(g.Nodes)
	if cap(g.Nodes) > ni {
		g.Nodes = g.Nodes[:ni+1]
		n := &g.Nodes[ni]
		n.P = p
		n.Segs = n.Segs[:0]
	} else {
		g.Nodes = append(g.Nodes, Node{P: p})
	}
	return ni
}

// addSegment appends a segment whose path is COPIED from the caller's
// buffer into the slot's own backing array. Per-slot Path reuse demands
// an invariant: no two slots may ever share a backing array, which is why
// Compact swaps segments instead of copying them.
func (g *Graph) addSegment(a, b int, path []imaging.Point, bridge bool) int {
	si := len(g.Segments)
	if cap(g.Segments) > si {
		g.Segments = g.Segments[:si+1]
		s := &g.Segments[si]
		s.A, s.B, s.Bridge = a, b, bridge
		s.Path = append(s.Path[:0], path...)
	} else {
		g.Segments = append(g.Segments, Segment{
			A: a, B: b, Bridge: bridge,
			Path: append(make([]imaging.Point, 0, len(path)), path...), //slj:alloc-ok segment-slot growth while the arena warms; steady frames reuse each slot's Path
		})
	}
	g.dead = append(g.dead, false)
	// A self-loop contributes 2 to its node's degree, so it is listed
	// twice; unlink removes one occurrence at a time.
	g.Nodes[a].Segs = append(g.Nodes[a].Segs, si)
	g.Nodes[b].Segs = append(g.Nodes[b].Segs, si)
	return si
}

// addBridges synthesises candidate reconnection edges between every pair of
// nodes in *different* pixel-connected pieces that lie within radius of
// each other. The pixel path of a bridge is a straight Bresenham line.
func (g *Graph) addBridges(radius float64) {
	// Union-find over current segments to know existing pieces.
	uf := g.newUF(len(g.Nodes))
	for i := range g.Segments {
		uf.union(g.Segments[i].A, g.Segments[i].B)
	}
	var line []imaging.Point
	if g.scr != nil {
		line = g.scr.pathBuf[:0]
	}
	for i := 0; i < len(g.Nodes); i++ {
		for j := i + 1; j < len(g.Nodes); j++ {
			if uf.find(i) == uf.find(j) {
				continue
			}
			pi, pj := g.Nodes[i].P, g.Nodes[j].P
			dx, dy := float64(pi.X-pj.X), float64(pi.Y-pj.Y)
			if math.Sqrt(dx*dx+dy*dy) > radius {
				continue
			}
			line = appendBresenham(line[:0], pi, pj)
			g.addSegment(i, j, line, true)
			g.Stats.Bridges++
		}
	}
	if g.scr != nil {
		g.scr.pathBuf = line
	}
}

// spanningCut keeps a spanning forest of the segment multigraph. With max
// true (the paper's choice) segments are considered longest-first, so every
// cycle is cut at its SHORTEST member; with max false the opposite
// (ablation). A rejected segment is not discarded: its far end is detached
// onto a fresh end node one pixel short of the old attachment — the "green
// dot" separation of Figure 3(b) — leaving a dangling branch for the
// pruning step to judge.
func (g *Graph) spanningCut(max bool) {
	// Order segments by (length, original index) packed into one uint64
	// key: a single slices.Sort over integers replaces the old
	// sort.SliceStable closure (whose reflect-based swapper allocates) and
	// yields the exact same order — the unique low-word index reproduces
	// stability.
	var keys []uint64
	if g.scr != nil {
		keys = g.scr.order[:0]
	}
	for si := range g.Segments {
		l := uint64(uint32(g.Segments[si].Len()))
		if max {
			l = uint64(^uint32(0)) - l // descending by length
		}
		keys = append(keys, l<<32|uint64(uint32(si)))
	}
	slices.Sort(keys)
	if g.scr != nil {
		g.scr.order = keys
	}
	uf := g.newUF(len(g.Nodes))
	for _, k := range keys {
		si := int(uint32(k))
		s := &g.Segments[si]
		if uf.union(s.A, s.B) {
			continue // tree edge, kept intact
		}
		// Would close a loop: cut by detaching end B.
		g.Stats.LoopsCut++
		g.detach(si)
	}
}

// detach separates segment si from its B node, re-attaching it to a fresh
// end node at the pixel just before B on the path. Segments of length < 3
// (nothing between the nodes) are removed outright.
func (g *Graph) detach(si int) {
	s := &g.Segments[si]
	if s.Len() < 3 {
		g.removeSegment(si)
		return
	}
	// Unlink from B.
	g.unlink(s.B, si)
	s.Path = s.Path[:len(s.Path)-1]
	ni := g.newNode(s.Path[len(s.Path)-1])
	g.Nodes[ni].Segs = append(g.Nodes[ni].Segs, si)
	s.B = ni
}

func (g *Graph) unlink(node, seg int) {
	list := g.Nodes[node].Segs
	for i, v := range list {
		if v == seg {
			g.Nodes[node].Segs = append(list[:i], list[i+1:]...)
			return
		}
	}
}

func (g *Graph) removeSegment(si int) {
	s := g.Segments[si]
	g.unlink(s.A, si)
	g.unlink(s.B, si)
	g.dead[si] = true
}

// Degree returns the number of live segments incident to node i (a
// self-loop would count twice, but the build invariant forbids them).
func (g *Graph) Degree(i int) int { return len(g.Nodes[i].Segs) }

// Kind classifies node i by its current degree.
func (g *Graph) Kind(i int) NodeKind {
	switch g.Degree(i) {
	case 0:
		return KindIsolated
	case 1:
		return KindEnd
	case 2:
		return KindChain
	default:
		return KindJunction
	}
}

// Endpoints returns the indices of all end nodes (degree 1).
func (g *Graph) Endpoints() []int {
	var out []int
	for i := range g.Nodes {
		if g.Degree(i) == 1 {
			out = append(out, i)
		}
	}
	return out
}

// Junctions returns the indices of all junction nodes (degree >= 3).
func (g *Graph) Junctions() []int {
	var out []int
	for i := range g.Nodes {
		if g.Degree(i) >= 3 {
			out = append(out, i)
		}
	}
	return out
}

// LiveSegments returns the indices of all segments that have not been
// removed.
func (g *Graph) LiveSegments() []int {
	var out []int
	for i := range g.Segments {
		if !g.dead[i] {
			out = append(out, i)
		}
	}
	return out
}

// TotalLength returns the summed pixel count of all live segments
// (shared node pixels counted once per incident segment).
func (g *Graph) TotalLength() int {
	n := 0
	for i, s := range g.Segments {
		if !g.dead[i] {
			n += s.Len()
		}
	}
	return n
}

// Compact drops dead segments and renumbers; node slots are preserved.
// Live segments are SWAPPED down rather than copied: a copy would leave
// two slots pointing at one Path backing array, which the arena's
// per-slot reuse would then corrupt on a later frame.
func (g *Graph) Compact() {
	var remap []int
	if g.scr != nil {
		remap = grabInts(g.scr.remap, len(g.Segments))
		g.scr.remap = remap
	} else {
		remap = make([]int, len(g.Segments)) //slj:alloc-ok nil-scratch fallback for one-shot callers
	}
	n := 0
	for i := range g.Segments {
		if g.dead[i] {
			remap[i] = -1
			continue
		}
		remap[i] = n
		if n != i {
			g.Segments[n], g.Segments[i] = g.Segments[i], g.Segments[n]
		}
		n++
	}
	g.Segments = g.Segments[:n]
	g.dead = g.dead[:n]
	clear(g.dead)
	for ni := range g.Nodes {
		segs := g.Nodes[ni].Segs[:0]
		for _, si := range g.Nodes[ni].Segs {
			if remap[si] >= 0 {
				segs = append(segs, remap[si])
			}
		}
		g.Nodes[ni].Segs = segs
	}
}

// ToBinary rasterises the live skeleton back into a binary image.
func (g *Graph) ToBinary() *imaging.Binary {
	return g.ToBinaryInto(imaging.NewBinary(g.W, g.H))
}

// ToBinaryInto rasterises the live skeleton into out, which must be a
// zeroed g.W×g.H image (NewBinary, GetBinary, or Binary.Reset provide
// one), and returns out.
func (g *Graph) ToBinaryInto(out *imaging.Binary) *imaging.Binary {
	for i, s := range g.Segments {
		if g.dead[i] {
			continue
		}
		for _, p := range s.Path {
			if p.In(g.W, g.H) {
				out.Set(p.X, p.Y, 1)
			}
		}
	}
	for i := range g.Nodes {
		if g.Degree(i) > 0 {
			p := g.Nodes[i].P
			if p.In(g.W, g.H) {
				out.Set(p.X, p.Y, 1)
			}
		}
	}
	return out
}

// IsForest verifies the loop-free invariant: the live segment set contains
// no cycle.
func (g *Graph) IsForest() bool {
	uf := g.newUF(len(g.Nodes))
	for i, s := range g.Segments {
		if g.dead[i] {
			continue
		}
		if !uf.union(s.A, s.B) {
			return false
		}
	}
	return true
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("skelgraph{nodes=%d segments=%d endpoints=%d junctions=%d len=%d}",
		len(g.Nodes), len(g.LiveSegments()), len(g.Endpoints()), len(g.Junctions()), g.TotalLength())
}

// unionFind is a standard disjoint-set with path halving and union by size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	return (&unionFind{}).reset(n)
}

// reset re-initialises the structure for n elements, reusing its arrays
// when they are large enough.
func (u *unionFind) reset(n int) *unionFind {
	if cap(u.parent) < n {
		u.parent = make([]int, n) //slj:alloc-ok union-find regrow on first use or a larger graph, amortised across frames
		u.size = make([]int, n)
	}
	u.parent = u.parent[:n]
	u.size = u.size[:n]
	for i := range u.parent {
		u.parent[i] = i
		u.size[i] = 1
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// union merges the sets of a and b, reporting whether they were distinct.
func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	return true
}

// appendBresenham appends the pixel line from a to b inclusive onto out.
func appendBresenham(out []imaging.Point, a, b imaging.Point) []imaging.Point {
	dx := abs(b.X - a.X)
	dy := -abs(b.Y - a.Y)
	sx, sy := 1, 1
	if a.X > b.X {
		sx = -1
	}
	if a.Y > b.Y {
		sy = -1
	}
	err := dx + dy
	x, y := a.X, a.Y
	for {
		out = append(out, imaging.Point{X: x, Y: y}) //slj:alloc-ok appends into the caller's arena path buffer, capacity amortised across frames
		if x == b.X && y == b.Y {
			return out
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x += sx
		}
		if e2 <= dx {
			err += dx
			y += sy
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
