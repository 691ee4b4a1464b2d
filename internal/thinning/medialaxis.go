package thinning

import "repro/internal/imaging"

// Medial-axis skeletonisation. The paper chooses iterative thinning over
// alternatives; the classical competitor is the medial-axis transform
// (centres of maximal discs, computed from a distance transform), which
// the literature the paper cites (Kegl & Krzyzak 2002) positions itself
// against. It is provided here as a second ablation: distance-ridge
// extraction followed by a Zhang–Suen pass to reduce the ridge to unit
// width. Its characteristic weakness — ridge fragmentation on noisy
// boundaries — is measurable with Measure and motivates the paper's
// choice.

// Chamfer weights for the 3-4 distance transform (a good integer
// approximation of Euclidean distance: 3 per orthogonal step, 4 per
// diagonal step).
const (
	chamferOrtho = 3
	chamferDiag  = 4
)

// DistanceTransform computes the two-pass 3-4 chamfer distance of every
// foreground pixel to the nearest background pixel (background pixels get
// 0). Pixels outside the image count as background.
func DistanceTransform(b *imaging.Binary) []int32 {
	const inf = int32(1 << 30)
	w, h := b.W, b.H
	d := make([]int32, w*h) //slj:alloc-ok medial axis is the opt-in algorithm (default Zhang-Suen); its distance map is per call by design
	for i, v := range b.Pix {
		if v != 0 {
			d[i] = inf
		}
	}
	at := func(x, y int) int32 {
		if x < 0 || x >= w || y < 0 || y >= h {
			return 0
		}
		return d[y*w+x]
	}
	// Forward pass: N, NW, NE, W.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			if d[i] == 0 {
				continue
			}
			m := d[i]
			if v := at(x-1, y) + chamferOrtho; v < m {
				m = v
			}
			if v := at(x, y-1) + chamferOrtho; v < m {
				m = v
			}
			if v := at(x-1, y-1) + chamferDiag; v < m {
				m = v
			}
			if v := at(x+1, y-1) + chamferDiag; v < m {
				m = v
			}
			d[i] = m
		}
	}
	// Backward pass: S, SE, SW, E.
	for y := h - 1; y >= 0; y-- {
		for x := w - 1; x >= 0; x-- {
			i := y*w + x
			if d[i] == 0 {
				continue
			}
			m := d[i]
			if v := at(x+1, y) + chamferOrtho; v < m {
				m = v
			}
			if v := at(x, y+1) + chamferOrtho; v < m {
				m = v
			}
			if v := at(x+1, y+1) + chamferDiag; v < m {
				m = v
			}
			if v := at(x-1, y+1) + chamferDiag; v < m {
				m = v
			}
			d[i] = m
		}
	}
	return d
}

// medialAxisRidge marks foreground pixels that are chamfer-distance
// ridges: no 8-neighbour is deeper by more than one orthogonal step.
// These approximate the centres of maximal discs.
func medialAxisRidge(b *imaging.Binary) *imaging.Binary {
	d := DistanceTransform(b)
	out := imaging.NewBinary(b.W, b.H)
	at := func(x, y int) int32 {
		if x < 0 || x >= b.W || y < 0 || y >= b.H {
			return 0
		}
		return d[y*b.W+x]
	}
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			v := at(x, y)
			if v == 0 {
				continue
			}
			ridge := true
			for _, n := range imaging.Neighbors8 {
				step := int32(chamferOrtho)
				if n.X != 0 && n.Y != 0 {
					step = chamferDiag
				}
				if at(x+n.X, y+n.Y) >= v+step {
					ridge = false
					break
				}
			}
			if ridge {
				out.Pix[y*out.W+x] = 1
			}
		}
	}
	return out
}

// medialAxis produces the medial-axis skeleton: the distance ridge,
// reduced to unit width by a Zhang–Suen pass. The result, unlike the Z-S
// skeleton of the full shape, may be fragmented on noisy silhouettes.
func medialAxis(b *imaging.Binary) *imaging.Binary {
	ridge := medialAxisRidge(b)
	peel(ridge, ridge, zhangSuenTables)
	return ridge
}
