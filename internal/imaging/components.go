package imaging

// Connectivity selects the pixel adjacency used by connected-component
// labelling and hole filling.
type Connectivity int

// Supported adjacencies.
const (
	// Connect4 treats only N/E/S/W neighbours as adjacent.
	Connect4 Connectivity = iota + 1
	// Connect8 additionally treats diagonal neighbours as adjacent.
	Connect8
)

// String implements fmt.Stringer.
func (c Connectivity) String() string {
	switch c {
	case Connect4:
		return "4-connected"
	case Connect8:
		return "8-connected"
	default:
		return "unknown-connectivity"
	}
}

func (c Connectivity) offsets() []Point {
	if c == Connect4 {
		return Neighbors4[:]
	}
	return Neighbors8[:]
}

// Component is one connected region of foreground pixels.
type Component struct {
	// Label is the 1-based label assigned by Components.
	Label int
	// Size is the pixel count of the region.
	Size int
	// Bounds is the tight bounding rectangle.
	Bounds Rect
	// Seed is an arbitrary pixel of the region (the first visited).
	Seed Point
}

// ComponentScratch carries the labelling state of LargestComponentInto
// between calls so the per-frame hot path (extract.Smooth's
// largest-component isolation) can relabel every frame without
// allocating. The zero value is ready to use; a nil *ComponentScratch
// falls back to fresh allocations. Not safe for concurrent use — callers
// own one per worker, exactly like extract.Extractor's other scratch
// buffers.
type ComponentScratch struct {
	labels []int32 // label map of the foreground bounding rectangle
	comps  []Component
	stack  []Point
}

// grabLabels returns the scratch label map resized to n zeroed entries.
func (s *ComponentScratch) grabLabels(n int) []int32 {
	if s == nil {
		return make([]int32, n) //slj:alloc-ok nil-scratch fallback for one-shot callers without a ComponentScratch
	}
	if cap(s.labels) < n {
		s.labels = make([]int32, n) //slj:alloc-ok scratch regrow on first use or a larger foreground, amortised across frames
	}
	s.labels = s.labels[:n]
	clear(s.labels)
	return s.labels
}

// Components labels the foreground regions of b under the given
// connectivity. It returns the label map (0 = background, 1.. = region
// labels, row-major, same size as b) and per-region metadata ordered by
// label. The returned slices are freshly allocated and owned by the
// caller.
func Components(b *Binary, conn Connectivity) ([]int32, []Component) {
	local, fg, comps := componentsInto(nil, b, conn)
	labels := make([]int32, len(b.Pix))
	fw := fg.Dx()
	for y := fg.Min.Y; y < fg.Max.Y; y++ {
		ly := y - fg.Min.Y
		copy(labels[y*b.W+fg.Min.X:], local[ly*fw:(ly+1)*fw])
	}
	return labels, comps
}

// componentsInto labels b's foreground inside its bounding rectangle fg,
// the only place it can be. The label map is fg.Dx()×fg.Dy(), row-major
// from fg.Min. Scanning fg row by row meets the foreground in the same
// order as scanning the whole frame, so every label, Seed and Bounds is
// the one a full-frame scan gives.
func componentsInto(sc *ComponentScratch, b *Binary, conn Connectivity) (labels []int32, fg Rect, comps []Component) {
	fg = b.ForegroundBounds()
	fw := fg.Dx()
	labels = sc.grabLabels(fw * fg.Dy())
	var stack []Point
	if sc != nil {
		comps = sc.comps[:0]
		stack = sc.stack[:0]
	}
	local := func(p Point) int { return (p.Y-fg.Min.Y)*fw + p.X - fg.Min.X }
	offs := conn.offsets()
	next := int32(0)
	for y := fg.Min.Y; y < fg.Max.Y; y++ {
		row := b.Pix[y*b.W+fg.Min.X : y*b.W+fg.Max.X]
		lrow := labels[(y-fg.Min.Y)*fw : (y-fg.Min.Y+1)*fw]
		for i, v := range row {
			if v == 0 || lrow[i] != 0 {
				continue
			}
			x := fg.Min.X + i
			next++
			comp := Component{
				Label:  int(next),
				Bounds: NewRect(x, y, x+1, y+1),
				Seed:   Point{x, y},
			}
			stack = append(stack[:0], Point{x, y})
			lrow[i] = next
			for len(stack) > 0 {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				comp.Size++
				comp.Bounds = comp.Bounds.Union(NewRect(p.X, p.Y, p.X+1, p.Y+1))
				for _, d := range offs {
					q := p.Add(d)
					if !fg.Contains(q) {
						continue
					}
					if qi := local(q); b.Pix[q.Y*b.W+q.X] != 0 && labels[qi] == 0 {
						labels[qi] = next
						stack = append(stack, q)
					}
				}
			}
			comps = append(comps, comp)
		}
	}
	if sc != nil {
		// The buffers may have been regrown by append; keep the larger
		// backing arrays for the next frame.
		sc.comps = comps
		sc.stack = stack
	}
	return labels, fg, comps
}

// LargestComponent returns a copy of b that keeps only its largest
// foreground region (ties broken by lowest label, i.e. scan order). The
// extraction stage uses it to isolate the jumper from residual background
// speckle. Returns an all-background image when b has no foreground.
func LargestComponent(b *Binary, conn Connectivity) *Binary {
	return LargestComponentInto(NewBinary(b.W, b.H), b, conn, nil)
}

// LargestComponentInto writes b's largest foreground region into dst,
// which must be a zeroed image of b's size (NewBinary or GetBinary
// provide one), and returns dst. sc (optionally nil) supplies reusable
// labelling scratch so the steady-state call allocates nothing. Only the
// winner's bounding rectangle of dst is written.
func LargestComponentInto(dst, b *Binary, conn Connectivity, sc *ComponentScratch) *Binary {
	labels, fg, comps := componentsInto(sc, b, conn)
	if len(comps) == 0 {
		return dst
	}
	best := comps[0]
	for _, c := range comps[1:] {
		if c.Size > best.Size {
			best = c
		}
	}
	want := int32(best.Label)
	r, fw := best.Bounds, fg.Dx()
	for y := r.Min.Y; y < r.Max.Y; y++ {
		i := (y-fg.Min.Y)*fw + r.Min.X - fg.Min.X
		out := dst.Pix[y*b.W+r.Min.X : y*b.W+r.Max.X]
		for x, l := range labels[i : i+len(out)] {
			if l == want {
				out[x] = 1
			}
		}
	}
	return dst
}

// FillHoles fills background regions not connected to the image border,
// i.e. interior holes of the silhouette. Holes are detected with the dual
// connectivity of the foreground (8-connected foreground ⇒ 4-connected
// background), which is the topologically consistent pairing.
func FillHoles(b *Binary, conn Connectivity) *Binary {
	dual := Connect4
	if conn == Connect4 {
		dual = Connect8
	}
	// Flood the background from every border pixel; anything 0 that the
	// flood cannot reach is a hole.
	reached := make([]bool, len(b.Pix))
	var stack []Point
	push := func(x, y int) {
		i := y*b.W + x
		if b.Pix[i] == 0 && !reached[i] {
			reached[i] = true
			stack = append(stack, Point{x, y})
		}
	}
	for x := 0; x < b.W; x++ {
		push(x, 0)
		push(x, b.H-1)
	}
	for y := 0; y < b.H; y++ {
		push(0, y)
		push(b.W-1, y)
	}
	offs := dual.offsets()
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range offs {
			q := p.Add(d)
			if q.In(b.W, b.H) {
				push(q.X, q.Y)
			}
		}
	}
	out := b.Clone()
	for i := range out.Pix {
		if out.Pix[i] == 0 && !reached[i] {
			out.Pix[i] = 1
		}
	}
	return out
}

// CountHoles returns the number of interior background regions (holes) of
// the silhouette, a quality metric used by the Figure 1 experiment to show
// the effect of the median filter.
func CountHoles(b *Binary, conn Connectivity) int {
	inv := b.Clone()
	inv.Invert()
	dual := Connect4
	if conn == Connect4 {
		dual = Connect8
	}
	labels, comps := Components(inv, dual)
	touches := make(map[int32]bool)
	for x := 0; x < b.W; x++ {
		touches[labels[x]] = true
		touches[labels[(b.H-1)*b.W+x]] = true
	}
	for y := 0; y < b.H; y++ {
		touches[labels[y*b.W]] = true
		touches[labels[y*b.W+b.W-1]] = true
	}
	holes := 0
	for _, c := range comps {
		if !touches[int32(c.Label)] {
			holes++
		}
	}
	return holes
}
