package skelgraph

import (
	"slices"
	"testing"

	"repro/internal/imaging"
	"repro/internal/imaging/imagingtest"
	"repro/internal/thinning"
)

// This file keeps the full-frame pixel graph that pixelGraph replaced as
// a test oracle: a W×H index map filled with −1, bounds checks on every
// neighbour, and junction removal on a full-frame copy of the skeleton.

// pixelAdjacencyRef builds skel's pixel graph over the whole frame.
func pixelAdjacencyRef(skel *imaging.Binary) (idx []int32, pts []imaging.Point, adj pixelAdj) {
	idx = make([]int32, len(skel.Pix))
	for i := range idx {
		idx[i] = -1
	}
	for y := 0; y < skel.H; y++ {
		for x := 0; x < skel.W; x++ {
			if skel.Pix[y*skel.W+x] != 0 {
				idx[y*skel.W+x] = int32(len(pts))
				pts = append(pts, imaging.Point{X: x, Y: y})
			}
		}
	}
	at := func(x, y int) bool {
		return x >= 0 && x < skel.W && y >= 0 && y < skel.H && skel.Pix[y*skel.W+x] != 0
	}
	adj = pixelAdj{nbr: make([]int32, 8*len(pts)), deg: make([]uint8, len(pts))}
	for vi, p := range pts {
		x, y := p.X, p.Y
		for _, d := range imaging.Neighbors8 {
			xx, yy := x+d.X, y+d.Y
			if !at(xx, yy) {
				continue
			}
			if d.X != 0 && d.Y != 0 && (at(x+d.X, y) || at(x, y+d.Y)) {
				continue
			}
			adj.nbr[8*vi+int(adj.deg[vi])] = idx[yy*skel.W+xx]
			adj.deg[vi]++
		}
	}
	return idx, pts, adj
}

// adjacentJunctionVerticesRef finds the adjacent junction vertices over
// the whole frame.
func adjacentJunctionVerticesRef(skel *imaging.Binary) []imaging.Point {
	idx, pts, adj := pixelAdjacencyRef(skel)
	var out []imaging.Point
	for _, p := range pts {
		n := 0
		for _, d := range imaging.Neighbors8 {
			xx, yy := p.X+d.X, p.Y+d.Y
			if xx < 0 || xx >= skel.W || yy < 0 || yy >= skel.H {
				continue
			}
			if j := idx[yy*skel.W+xx]; j >= 0 && adj.deg[j] >= 3 {
				n++
			}
		}
		if n > 1 {
			out = append(out, p)
		}
	}
	return out
}

// pixelGraphRef is pixelGraph with the junction removal done on a
// full-frame copy of the skeleton.
func pixelGraphRef(skel *imaging.Binary, removeJunctions bool) ([]imaging.Point, pixelAdj, int) {
	work, removed := skel, 0
	if removeJunctions {
		remove := adjacentJunctionVerticesRef(skel)
		removed = len(remove)
		work = skel.Clone()
		for _, p := range remove {
			work.Set(p.X, p.Y, 0)
		}
	}
	_, pts, adj := pixelAdjacencyRef(work)
	return pts, adj, removed
}

// sameAdjacency reports whether two pixel graphs list the same
// neighbours, in the same order, for every pixel.
func sameAdjacency(a, b pixelAdj, n int) bool {
	for v := int32(0); v < int32(n); v++ {
		if !slices.Equal(a.neighbors(v), b.neighbors(v)) {
			return false
		}
	}
	return true
}

// TestPixelGraphBoundedEdgeCases checks the bounded pixel graph against
// the full-frame oracle, with and without junction removal and on a
// fresh arena and on one arena reused across every case, on masks whose
// foreground touches every edge and corner, spans the frame, or is
// absent, and on their Zhang–Suen skeletons.
func TestPixelGraphBoundedEdgeCases(t *testing.T) {
	sc := new(Scratch)
	for _, c := range imagingtest.Cases() {
		for _, in := range []struct {
			name string
			b    *imaging.Binary
		}{
			{c.Name, c.B},
			{c.Name + ", thinned", thinning.Thin(c.B, thinning.ZhangSuen)},
		} {
			if got, want := AdjacentJunctionVertices(in.b), adjacentJunctionVerticesRef(in.b); !slices.Equal(got, want) {
				t.Errorf("%s: AdjacentJunctionVertices = %v, want %v", in.name, got, want)
			}
			for _, remove := range []bool{false, true} {
				wantPts, wantAdj, wantRemoved := pixelGraphRef(in.b, remove)
				for _, arena := range []*Scratch{new(Scratch), sc} {
					pts, adj, removed := pixelGraph(in.b, arena, remove)
					if !slices.Equal(pts, wantPts) || removed != wantRemoved ||
						!slices.Equal(adj.deg, wantAdj.deg) || !sameAdjacency(adj, wantAdj, len(pts)) {
						t.Errorf("%s (remove junctions %v, reused arena %v): pixel graph differs from the full-frame oracle",
							in.name, remove, arena == sc)
					}
				}
			}
		}
	}
}
