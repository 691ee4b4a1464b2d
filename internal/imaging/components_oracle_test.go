package imaging

// This file keeps the full-frame labelling that componentsInto replaced
// as a test oracle: it labels every pixel of the frame, where the
// production routine labels only the foreground bounding rectangle.

// componentsRef labels b's foreground over the whole frame, returning a
// full-frame label map and the components in label order.
func componentsRef(b *Binary, conn Connectivity) ([]int32, []Component) {
	labels := make([]int32, len(b.Pix))
	var comps []Component
	var stack []Point
	offs := conn.offsets()
	next := int32(0)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			idx := y*b.W + x
			if b.Pix[idx] == 0 || labels[idx] != 0 {
				continue
			}
			next++
			comp := Component{
				Label:  int(next),
				Bounds: NewRect(x, y, x+1, y+1),
				Seed:   Point{x, y},
			}
			stack = append(stack[:0], Point{x, y})
			labels[idx] = next
			for len(stack) > 0 {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				comp.Size++
				comp.Bounds = comp.Bounds.Union(NewRect(p.X, p.Y, p.X+1, p.Y+1))
				for _, d := range offs {
					q := p.Add(d)
					if !q.In(b.W, b.H) {
						continue
					}
					qi := q.Y*b.W + q.X
					if b.Pix[qi] != 0 && labels[qi] == 0 {
						labels[qi] = next
						stack = append(stack, q)
					}
				}
			}
			comps = append(comps, comp)
		}
	}
	return labels, comps
}

// largestComponentRef keeps b's largest region (lowest label on ties),
// scanning the whole label map.
func largestComponentRef(b *Binary, conn Connectivity) *Binary {
	dst := NewBinary(b.W, b.H)
	labels, comps := componentsRef(b, conn)
	if len(comps) == 0 {
		return dst
	}
	best := comps[0]
	for _, c := range comps[1:] {
		if c.Size > best.Size {
			best = c
		}
	}
	for i, l := range labels {
		if l == int32(best.Label) {
			dst.Pix[i] = 1
		}
	}
	return dst
}
