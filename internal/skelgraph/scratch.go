// Frame-scratch arena. Building one skeleton graph used to cost ~80
// allocations: the pixel-adjacency slabs, the node/segment slices and
// their per-segment pixel paths, the BFS and union-find arrays, the
// spanning-cut sort order and the Compact remap. A Scratch owns all of
// that memory and is reused frame after frame by one worker, so the
// steady-state Build (and the Prune / key-point queries that follow it)
// allocates nothing.
//
// Contract: a Scratch serves ONE worker at a time — it is not safe for
// concurrent use, exactly like extract.Extractor's buffers. A *Graph
// returned by BuildScratch, and every slice derived from it (PixelPath,
// NodePath, MarkLargestComponent), is owned by the scratch and valid
// only until the next BuildScratch call on the same Scratch; callers
// that need a frame's graph to outlive the next frame must copy what
// they keep. GetScratch/PutScratch recycle whole arenas through a
// sync.Pool with the same pairing discipline as the imaging buffer pool
// (policed by the pooldiscipline analyzer): after PutScratch the arena —
// and any graph built from it — must not be touched again.
package skelgraph

import (
	"sync"

	"repro/internal/imaging"
)

// Scratch is a per-worker frame arena for graph construction. The zero
// value is ready to use; a nil *Scratch is accepted everywhere and means
// "allocate fresh", which is exactly the pre-arena behaviour.
type Scratch struct {
	g Graph // the reused graph; Nodes/Segments slots keep their backing

	// pixel adjacency (newPixelGrid, pixelAdjacency)
	idx []int32
	pts []imaging.Point
	nbr []int32
	deg []uint8

	// adjacent-junction removal
	remove []imaging.Point

	// segment tracing
	nodeOf  []int32
	visited []uint8
	pathBuf []imaging.Point // one segment's path under construction

	// spanning cut: packed (length, index) sort keys
	order []uint64

	// Compact
	remap []int

	// pruning candidates
	branches []int

	// union-find (loop cut, bridges, components, IsForest)
	uf unionFind

	// NodePath / PixelPath / MarkLargestComponent query buffers
	prevNode  []int
	prevSeg   []int
	queue     []int
	pathNodes []int
	pathSegs  []int
	pathOut   []imaging.Point
	compLen   []int
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a frame arena from the pool. Pair with PutScratch
// when the worker that owns it shuts down; holding one for the lifetime
// of a long-lived worker (annotated //slj:pool-escapes) is also fine —
// an unreturned arena is never unsafe, merely unrecycled.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns an arena to the pool. The caller must not touch the
// arena — or any Graph built from it — afterwards. nil is ignored.
func PutScratch(sc *Scratch) {
	if sc == nil {
		return
	}
	scratchPool.Put(sc)
}

// graph re-aims the arena's graph at a new w×h frame. Node and segment
// slots are truncated, not cleared: newNode and addSegment reuse each
// slot's Segs / Path backing arrays, which is where most of the arena's
// win comes from.
//
//slj:hotpath
func (sc *Scratch) graph(w, h int) *Graph {
	if sc == nil {
		return &Graph{W: w, H: h} //slj:alloc-ok nil-scratch fallback for one-shot callers
	}
	g := &sc.g
	g.W, g.H = w, h
	g.Stats = BuildStats{}
	g.Nodes = g.Nodes[:0]
	g.Segments = g.Segments[:0]
	g.dead = g.dead[:0]
	g.scr = sc
	return g
}

// grabInt32 resizes buf to n elements, reallocating only on capacity
// growth. Contents are unspecified; callers initialise.
func grabInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n) //slj:alloc-ok arena regrow on first use or a larger frame, amortised across frames
	}
	return buf[:n]
}

// grabInts is grabInt32 for []int.
func grabInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n) //slj:alloc-ok arena regrow on first use or a larger frame, amortised across frames
	}
	return buf[:n]
}

// grabBytes resizes buf to n ZEROED bytes.
func grabBytes(buf []uint8, n int) []uint8 {
	if cap(buf) < n {
		return make([]uint8, n) //slj:alloc-ok arena regrow on first use or a larger frame, amortised across frames
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// grabBools resizes buf to n false entries.
func grabBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// newUF returns a union-find over n elements, reusing the arena's arrays
// when the graph carries one.
func (g *Graph) newUF(n int) *unionFind {
	if g.scr != nil {
		return g.scr.uf.reset(n)
	}
	return newUnionFind(n)
}
