// Package thinning implements the skeletonisation stage of Section 3: the
// Zhang–Suen ("Z-S") iterative thinning algorithm the paper uses, plus the
// Guo–Hall variant as an ablation. Both peel boundary pixels layer by layer
// until only a (mostly) one-pixel-wide skeleton remains, preserving
// 8-connectivity — the "peeling approach ... fast and it can avoid the
// break-line problem" of the paper.
//
// The package also provides artefact metrics (loops, thick T-corners,
// short spurs) used by the Figure 2 experiment, since the paper's whole
// Section 3 post-processing exists to repair exactly those artefacts.
package thinning

import (
	"sync"

	"repro/internal/imaging"
)

// Algorithm selects a thinning variant.
type Algorithm int

// Supported variants.
const (
	// ZhangSuen is the paper's Z-S algorithm (Zhang & Suen 1984).
	ZhangSuen Algorithm = iota + 1
	// GuoHall is the Guo–Hall (1989) two-subiteration variant, provided
	// as an ablation; it tends to produce fewer staircase artefacts.
	GuoHall
	// MedialAxis is the distance-transform medial-axis skeleton (see
	// medialaxis.go), the classical alternative the thinning approach
	// competes with; it fragments on noisy boundaries.
	MedialAxis
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case ZhangSuen:
		return "zhang-suen"
	case GuoHall:
		return "guo-hall"
	case MedialAxis:
		return "medial-axis"
	default:
		return "unknown-algorithm"
	}
}

// Thin skeletonises the binary image with the requested algorithm and
// returns a new image; the input is not modified. Unknown algorithms fall
// back to Zhang–Suen.
func Thin(src *imaging.Binary, alg Algorithm) *imaging.Binary {
	return ThinInto(nil, src, alg)
}

// ThinInto is Thin writing into dst, which is resized as needed (nil
// allocates a fresh image; imaging.GetBinary hands back a pooled one).
// dst must not alias src. It returns dst, so the per-frame hot path can
// recycle the skeleton buffer instead of cloning the silhouette every
// frame.
func ThinInto(dst *imaging.Binary, src *imaging.Binary, alg Algorithm) *imaging.Binary {
	dst, _ = ThinIntoCounted(dst, src, alg)
	return dst
}

// ThinIntoCounted is ThinInto additionally reporting how many full
// peel iterations the algorithm ran before the skeleton stabilised
// (one iteration = both subiterations; the final no-change sweep
// counts). Iteration counts feed the pipeline.thin_passes health
// counter — a jump in passes-per-frame flags silhouettes much thicker
// than the extractor normally emits. MedialAxis is not iterative and
// reports 1.
//
//slj:hotpath
func ThinIntoCounted(dst *imaging.Binary, src *imaging.Binary, alg Algorithm) (*imaging.Binary, int) {
	if dst == nil {
		dst = &imaging.Binary{} //slj:alloc-ok nil-dst fallback for one-shot callers; hot callers pass a recycled dst
	}
	dst.W, dst.H = src.W, src.H
	if need := src.W * src.H; cap(dst.Pix) < need {
		dst.Pix = make([]uint8, need) //slj:alloc-ok dst regrow on first use or a larger frame, amortised across frames
	} else {
		dst.Pix = dst.Pix[:need]
	}
	passes := 1
	switch alg {
	case GuoHall:
		passes = peel(dst, src, guoHallTables)
	case MedialAxis:
		m := medialAxis(src)
		copy(dst.Pix, m.Pix)
	default:
		passes = peel(dst, src, zhangSuenTables)
	}
	return dst, passes
}

// neighborhood gathers the classical P2..P9 neighbourhood of (x, y) in
// Zhang–Suen order (N, NE, E, SE, S, SW, W, NW). Out-of-bounds pixels read
// as background.
func neighborhood(b *imaging.Binary, x, y int) (p [8]uint8) {
	for i, d := range imaging.Neighbors8 {
		xx, yy := x+d.X, y+d.Y
		if xx >= 0 && xx < b.W && yy >= 0 && yy < b.H {
			p[i] = b.Pix[yy*b.W+xx]
		}
	}
	return p
}

// transitions counts A(P1): the number of 0→1 patterns in the ordered
// circular sequence P2, P3, ..., P9, P2.
func transitions(p [8]uint8) int {
	n := 0
	for i := 0; i < 8; i++ {
		if p[i] == 0 && p[(i+1)%8] == 1 {
			n++
		}
	}
	return n
}

// sumNeighbors counts B(P1): the number of foreground neighbours.
func sumNeighbors(p [8]uint8) int {
	n := 0
	for _, v := range p {
		n += int(v)
	}
	return n
}

// zhangSuenDeletes is the Zhang–Suen deletion rule for a foreground
// pixel with neighbourhood p (P2..P9 order: N, NE, E, SE, S, SW, W, NW).
// Subiteration 0 deletes P1 if:
//
//	(a) 2 <= B(P1) <= 6
//	(b) A(P1) == 1
//	(c) P2 * P4 * P6 == 0   (north × east × south)
//	(d) P4 * P6 * P8 == 0   (east × south × west)
//
// Subiteration 1 replaces (c)/(d) with P2*P4*P8 == 0 and P2*P6*P8 == 0.
func zhangSuenDeletes(p [8]uint8, sub int) bool {
	// Indices into the P2..P9 ordering: P2=0 (N), P3=1, P4=2 (E), P5=3,
	// P6=4 (S), P7=5, P8=6 (W), P9=7.
	const (
		pN = 0
		pE = 2
		pS = 4
		pW = 6
	)
	if bN := sumNeighbors(p); bN < 2 || bN > 6 {
		return false
	}
	if transitions(p) != 1 {
		return false
	}
	if sub == 0 {
		return p[pN]*p[pE]*p[pS] == 0 && p[pE]*p[pS]*p[pW] == 0
	}
	return p[pN]*p[pE]*p[pW] == 0 && p[pN]*p[pS]*p[pW] == 0
}

// guoHallDeletes is the Guo–Hall (1989) deletion rule for a foreground
// pixel with neighbourhood p. Guo–Hall's p1..p8 = N, NE, E, SE, S, SW, W,
// NW matches the P2..P9 ordering exactly.
func guoHallDeletes(p [8]uint8, sub int) bool {
	c := 0
	for i := 0; i < 4; i++ {
		a, b1, b2 := p[2*i], p[(2*i+1)%8], p[(2*i+2)%8]
		if a == 0 && (b1 == 1 || b2 == 1) {
			c++
		}
	}
	n1 := 0
	n2 := 0
	for i := 0; i < 4; i++ {
		if p[(2*i+7)%8] == 1 || p[2*i] == 1 {
			n1++
		}
		if p[2*i] == 1 || p[(2*i+1)%8] == 1 {
			n2++
		}
	}
	n := min(n1, n2)
	// m of Guo–Hall: subiteration 0 uses (p6 ∨ p7 ∨ ¬p9) ∧ p8,
	// subiteration 1 the 180°-rotated (p2 ∨ p3 ∨ ¬p5) ∧ p4.
	var cond bool
	if sub == 0 {
		cond = (p[4] == 1 || p[5] == 1 || p[7] == 0) && p[6] == 1
	} else {
		cond = (p[0] == 1 || p[1] == 1 || p[3] == 0) && p[2] == 1
	}
	return c == 1 && n >= 2 && n <= 3 && !cond
}

// deletionTables tabulates a two-subiteration deletion rule: entry
// [sub][m] says whether subiteration sub deletes a foreground pixel whose
// neighbourhood byte is m, bit i of m set when neighbour i (P2..P9 order)
// is foreground. A peel then decides each pixel with one lookup.
type deletionTables [2][256]bool

var (
	zhangSuenTables = tabulate(zhangSuenDeletes)
	guoHallTables   = tabulate(guoHallDeletes)
)

// tabulate evaluates rule on all 256 neighbourhoods per subiteration.
func tabulate(rule func(p [8]uint8, sub int) bool) *deletionTables {
	t := new(deletionTables)
	for sub := range t {
		for m := range t[sub] {
			var p [8]uint8
			for i := range p {
				p[i] = uint8(m >> i & 1)
			}
			t[sub][m] = rule(p, sub)
		}
	}
	return t
}

// peelScratch is the working state of one peel, recycled through
// peelFree so steady-state thinning allocates nothing.
type peelScratch struct {
	pad  []uint8    // the image with a 1-pixel zero border
	mark []uint8    // 1 while a pixel sits in cand; all zero between peels
	cand []int32    // pixels to re-test in the current subiteration
	del  [2][]int32 // deletions of the last two subiterations, by parity
}

// peelFree holds the idle peel scratch. It is a free list rather than a
// sync.Pool: a pool keeps one private item per P and empties at every
// other GC, so a thinning goroutine that moves between Ps would now and
// then allocate a fresh scratch of twice the frame. The free list keeps
// one scratch per concurrent peel for the life of the process.
var peelFree struct {
	sync.Mutex
	idle []*peelScratch
}

// getPeel takes an idle scratch, or a new one when none is idle.
func getPeel() *peelScratch {
	peelFree.Lock()
	defer peelFree.Unlock()
	n := len(peelFree.idle)
	if n == 0 {
		return new(peelScratch)
	}
	sc := peelFree.idle[n-1]
	peelFree.idle = peelFree.idle[:n-1]
	return sc
}

// putPeel returns a scratch to the free list.
func putPeel(sc *peelScratch) {
	peelFree.Lock()
	defer peelFree.Unlock()
	peelFree.idle = append(peelFree.idle, sc)
}

// grow reslices buf to n elements, reallocating when capacity is short.
// The contents are not cleared.
func grow(buf []uint8, n int) []uint8 {
	if cap(buf) < n {
		return make([]uint8, n) //slj:alloc-ok peel scratch regrow on first use or a larger frame, amortised across frames
	}
	return buf[:n]
}

// peel thins src into dst (which may be src) with the two-subiteration
// rule in tab, repeating until an iteration deletes nothing. It returns
// the number of iterations run, including the final stable one.
//
// Thinning only deletes, so the skeleton lies inside src's foreground
// bounding rectangle fg. peel works on a copy of fg with a 1-pixel zero
// border, which gives every foreground pixel the neighbourhood it has in
// the frame, and writes fg back into dst, zero everywhere else.
//
// Subiteration t decides every pixel against the image as it stood
// before t and then deletes the chosen set at once. A pixel's verdict
// depends only on its own value, its eight neighbours and t's parity, so
// subiteration t can only reach a different verdict than t−2 (same
// parity) for a pixel whose 3×3 neighbourhood changed since — that is,
// one next to a deletion made in t−1 or t−2. Subiterations 0 and 1 test
// every foreground pixel (0 by scanning fg, 1 from the foreground list 0
// collected); each later one re-tests only the pixels next to those
// deletions, which gives exactly the deletions of testing every pixel
// every time.
func peel(dst, src *imaging.Binary, tab *deletionTables) int {
	sc := getPeel() //slj:alloc-ok free-list round trip under a mutex; allocates only the first scratch per concurrent peel
	fg := src.ForegroundBounds()
	w, h := fg.Dx(), fg.Dy()
	pw := w + 2
	pad := grow(sc.pad, pw*(h+2))
	clear(pad)
	for y := 0; y < h; y++ {
		i := (fg.Min.Y+y)*src.W + fg.Min.X
		copy(pad[(y+1)*pw+1:], src.Pix[i:i+w])
	}
	mark := grow(sc.mark, len(pad))
	// Neighbour offsets in P2..P9 order; bit i of a neighbourhood byte
	// is pad[q+nb[i]].
	nb := [8]int{-pw, -pw + 1, 1, pw + 1, pw, pw - 1, -1, -pw - 1}
	code := func(q int) uint8 {
		return pad[q+nb[0]] | pad[q+nb[1]]<<1 | pad[q+nb[2]]<<2 | pad[q+nb[3]]<<3 |
			pad[q+nb[4]]<<4 | pad[q+nb[5]]<<5 | pad[q+nb[6]]<<6 | pad[q+nb[7]]<<7
	}
	around := [9]int{-pw - 1, -pw, -pw + 1, -1, 0, 1, pw - 1, pw, pw + 1}
	cand := sc.cand[:0]
	passes := 0
	for t := 0; ; t++ {
		sub := t & 1
		rule := &tab[sub]
		del := sc.del[sub][:0] // t−2's deletions, still read below for t >= 2
		switch t {
		case 0:
			// Scan fg once, keeping the foreground as subiteration 1's
			// candidates.
			for y := 1; y <= h; y++ {
				for x, v := range pad[y*pw+1 : y*pw+1+w] {
					if v == 0 {
						continue
					}
					q := y*pw + 1 + x
					cand = append(cand, int32(q))
					if rule[code(q)] {
						del = append(del, int32(q))
					}
				}
			}
		case 1:
			for _, q := range cand {
				if pad[q] != 0 && rule[code(int(q))] {
					del = append(del, q)
				}
			}
		default:
			// Queue the foreground neighbours of the last two
			// subiterations' deletions, each once.
			cand = cand[:0]
			for _, list := range sc.del {
				for _, d := range list {
					for _, o := range around {
						if q := int(d) + o; pad[q] != 0 && mark[q] == 0 {
							mark[q] = 1
							cand = append(cand, int32(q))
						}
					}
				}
			}
			for _, q := range cand {
				mark[q] = 0
				if rule[code(int(q))] {
					del = append(del, q)
				}
			}
		}
		for _, q := range del {
			pad[q] = 0
		}
		sc.del[sub] = del
		if sub == 1 {
			passes++
			if len(sc.del[0]) == 0 && len(del) == 0 {
				break
			}
		}
	}
	dst.W, dst.H = src.W, src.H
	clear(dst.Pix)
	for y := 0; y < h; y++ {
		i := (fg.Min.Y+y)*src.W + fg.Min.X
		copy(dst.Pix[i:i+w], pad[(y+1)*pw+1:])
	}
	sc.pad, sc.mark, sc.cand = pad, mark, cand
	putPeel(sc) //slj:alloc-ok free-list round trip under a mutex; the list grows once per concurrent peel
	return passes
}

// Metrics quantifies the artefacts of a raw thinning result, matching the
// problem classes of Figure 2: loops, corners and redundant short branches,
// plus general shape statistics.
type Metrics struct {
	// Pixels is the number of skeleton pixels.
	Pixels int
	// Endpoints counts pixels with exactly one 8-neighbour.
	Endpoints int
	// Junctions counts pixels with three or more 8-neighbours.
	Junctions int
	// Loops is the number of independent cycles of the skeleton,
	// computed per 8-connected component as E - V + 1.
	Loops int
	// Components is the number of 8-connected skeleton components.
	Components int
	// MaxWidthViolations counts pixels whose 2×2 block is entirely
	// foreground — places where the skeleton is not one pixel wide
	// ("corner" artefacts of Figure 2(b)).
	MaxWidthViolations int
}

// Measure computes skeleton quality metrics for a thinned image.
func Measure(skel *imaging.Binary) Metrics {
	var m Metrics
	// Count pixels, endpoints, junctions.
	for y := 0; y < skel.H; y++ {
		for x := 0; x < skel.W; x++ {
			if skel.Pix[y*skel.W+x] == 0 {
				continue
			}
			m.Pixels++
			n := sumNeighbors(neighborhood(skel, x, y))
			switch {
			case n == 1:
				m.Endpoints++
			case n >= 3:
				m.Junctions++
			}
		}
	}
	// 2x2 solid blocks.
	for y := 0; y+1 < skel.H; y++ {
		for x := 0; x+1 < skel.W; x++ {
			if skel.Pix[y*skel.W+x] == 1 && skel.Pix[y*skel.W+x+1] == 1 &&
				skel.Pix[(y+1)*skel.W+x] == 1 && skel.Pix[(y+1)*skel.W+x+1] == 1 {
				m.MaxWidthViolations++
			}
		}
	}
	// Cycle count per component. Edges are unordered 8-adjacent pairs,
	// except that a diagonal edge is ignored when the two pixels are
	// already joined by an orthogonal 2-path (otherwise every thick
	// corner would read as a spurious triangle cycle).
	at := func(x, y int) uint8 {
		if x < 0 || x >= skel.W || y < 0 || y >= skel.H {
			return 0
		}
		return skel.Pix[y*skel.W+x]
	}
	edges := 0
	for y := 0; y < skel.H; y++ {
		for x := 0; x < skel.W; x++ {
			if at(x, y) == 0 {
				continue
			}
			// Count each edge once: only to the 4 "forward" neighbours
			// (E, SE, S, SW).
			if at(x+1, y) == 1 {
				edges++
			}
			if at(x, y+1) == 1 {
				edges++
			}
			if at(x+1, y+1) == 1 && at(x+1, y) == 0 && at(x, y+1) == 0 {
				edges++
			}
			if at(x-1, y+1) == 1 && at(x-1, y) == 0 && at(x, y+1) == 0 {
				edges++
			}
		}
	}
	_, comps := imaging.Components(skel, imaging.Connect8)
	m.Components = len(comps)
	// For a graph with V vertices, E edges and C components the number of
	// independent cycles is E - V + C.
	m.Loops = edges - m.Pixels + m.Components
	if m.Loops < 0 {
		m.Loops = 0
	}
	return m
}
