package imaging

// MaxBoxWindow is the largest window BoxAverageRGB accepts. Any window
// up to it has a clipped area below 2^23, the range over which the box
// average's multiply-shift division is exact (see recip).
const MaxBoxWindow = 2895

// FilterScratch is the reusable per-column state of the sliding-window
// filters (BoxAverageRGBInto, BoxRow, MedianFilterBinaryInto): running
// sums over the window's rows and the exact-division multipliers for the
// current window height. Hot paths keep one per worker so steady-state
// filtering allocates nothing; the zero value is ready. Not safe for
// concurrent use.
type FilterScratch struct {
	cols []uint32 // per-column sums over the window rows (3 per column for RGB)
	// mul[b] and half[b] divide a window sum by its area a·b (a window
	// rows tall, b columns wide) with rounding; rows is the a they were
	// computed for, 0 when stale.
	mul, half []uint64
	rows      int
	zero      []uint8 // an all-zero row, standing in for a missing one
}

// grabCols returns the column-sum scratch resized to n elements.
func (sc *FilterScratch) grabCols(n int) []uint32 {
	if cap(sc.cols) < n {
		sc.cols = make([]uint32, n) //slj:alloc-ok column-sum scratch regrow on first use or a wider frame, amortised across frames
	}
	sc.cols = sc.cols[:n]
	return sc.cols
}

// span is the part of an image a sliding window reads: rows [y0, y1)
// of pix, each the n samples at off within a row of stride samples
// (RGB channels, or 0/1 binary pixels). Everything outside it reads as
// zeros.
type span struct {
	pix                    []uint8
	stride, off, n, y0, y1 int
}

// row returns image row y's part of the span.
func (s span) row(y int) []uint8 {
	i := y*s.stride + s.off
	return s.pix[i : i+s.n]
}

// window prepares output row y of a sliding window of radius r over s.
// Row s.y0 zeroes the per-column sums and adds the window's first r
// rows. It returns the row entering the window at y (row y+r) and the
// row leaving it (row y−r−1), either reading as zeros when outside s.
// The caller moves each column's sum down a row,
// cols[j] += in[j] − out[j], when its horizontal window first reaches
// column j, so the vertical and horizontal slides share one pass.
func (sc *FilterScratch) window(s span, y, r int) (in, out []uint8) {
	if y == s.y0 {
		clear(sc.grabCols(s.n))
		for yy := s.y0; yy < s.y0+r && yy < s.y1; yy++ {
			addRow(sc.cols, s.row(yy))
		}
		if cap(sc.zero) < s.n {
			sc.zero = make([]uint8, s.n) //slj:alloc-ok zero-row scratch regrow on first use or a wider frame, amortised across frames
		}
		sc.rows = 0
	}
	in, out = sc.zero[:s.n], sc.zero[:s.n]
	if yy := y + r; yy < s.y1 {
		in = s.row(yy)
	}
	if yy := y - r - 1; yy >= s.y0 {
		out = s.row(yy)
	}
	return in, out
}

// clipped returns how many of the 2r+1 indices centred on i lie in
// [0, n): a window's height or width after clipping at the border.
func clipped(i, r, n int) int { return min(i+r, n-1) - max(i-r, 0) + 1 }

// addRow adds one row of samples to the per-column sums.
func addRow(cols []uint32, row []uint8) {
	cols = cols[:len(row)]
	for i, v := range row {
		cols[i] += uint32(v)
	}
}

// recip returns m = ⌈2^55/d⌉ for d >= 1, so that divide(x, m) = ⌊x/d⌋
// exactly for every x < 256·d whenever d < 2^23. Write x = q·d + ρ with
// ρ <= d−1 and m·d = 2^55 + e with e < d. Then
// x·m/2^55 = q + ρ/d + x·e/(d·2^55), and x·e < 256·d² < 2^55 keeps the
// last term below 1/d, so the floor is q; x·m < 256·(2^55 + d) also fits
// in 64 bits. A window sum is at most 255·d, so x = sum + d/2 < 256·d
// always holds, and d, a clipped window area, is at most MaxBoxWindow².
func recip(d uint64) uint64 { return (1<<55 + d - 1) / d }

// divide returns ⌊x·m/2^55⌋, the quotient recip's multiplier encodes.
func divide(x, m uint64) uint8 { return uint8(x * m >> 55) }

// BoxAverageRGB computes, for every pixel and channel, the mean over an n×n
// window centred on the pixel, exactly the moving-window average matrices
// A_ave and B_ave of Section 2 (steps i–ii). n must be odd, positive and
// at most MaxBoxWindow. Windows are clipped at the border and averaged
// over the in-bounds pixels, rounding half up: (sum + area/2) / area.
func BoxAverageRGB(src *RGB, n int) *RGB {
	return BoxAverageRGBInto(nil, src, n, nil)
}

// BoxAverageRGBInto is BoxAverageRGB writing into dst (resized as needed;
// nil allocates) with sc as column-sum scratch (nil allocates). dst must
// not alias src. It returns dst so a hot path can thread one destination
// through successive frames.
func BoxAverageRGBInto(dst *RGB, src *RGB, n int, sc *FilterScratch) *RGB {
	if dst == nil {
		dst = &RGB{}
	}
	if sc == nil {
		sc = &FilterScratch{}
	}
	w, h := src.W, src.H
	dst.W, dst.H = w, h
	if need := 3 * w * h; cap(dst.Pix) < need { //slj:alloc-ok dst regrow on first use or a larger frame, amortised across frames
		dst.Pix = make([]uint8, need)
	} else {
		dst.Pix = dst.Pix[:need]
	}
	for y := 0; y < h; y++ {
		sc.BoxRow(dst.Pix[3*y*w:3*(y+1)*w], src, n, y)
	}
	return dst
}

// BoxRow writes row y of BoxAverageRGB(src, n) — 3·src.W bytes — into dst.
// Calls must visit y = 0, 1, …, src.H−1 in order for one src and n: row 0
// sums the first window rows into per-column channel sums, and each later
// row slides them down by adding the row entering the window and
// subtracting the one leaving it. Along the row an n-column sum slides the
// same way, and the rounding division by the clipped area is an exact
// multiply-shift (see recip), so the cost is O(W) per row for any n with
// no hardware division per pixel. Streaming rows lets a caller consume
// each averaged row while it is still in cache.
func (sc *FilterScratch) BoxRow(dst []uint8, src *RGB, n, y int) {
	if n < 1 || n%2 == 0 || n > MaxBoxWindow {
		panic("imaging.BoxAverageRGB: window size must be odd, positive and at most MaxBoxWindow")
	}
	w, h, r := src.W, src.H, n/2
	stride := 3 * w
	in, out := sc.window(span{pix: src.Pix, stride: stride, n: stride, y1: h}, y, r)
	if a := clipped(y, r, h); a != sc.rows {
		sc.setRows(a, min(n, w))
	}
	// Along the row, s holds the channel sums of columns [x−r, x+r−1]
	// on entering x. The border columns, whose windows are clipped, take
	// the general step; the interior, where every window is n wide, runs
	// on fixed slices with one divisor.
	cols, mul, half := sc.cols[:stride], sc.mul, sc.half
	dst = dst[:stride]
	var s0, s1, s2 uint64
	enter := func(j int) {
		c0 := cols[3*j] + uint32(in[3*j]) - uint32(out[3*j])
		c1 := cols[3*j+1] + uint32(in[3*j+1]) - uint32(out[3*j+1])
		c2 := cols[3*j+2] + uint32(in[3*j+2]) - uint32(out[3*j+2])
		cols[3*j], cols[3*j+1], cols[3*j+2] = c0, c1, c2
		s0 += uint64(c0)
		s1 += uint64(c1)
		s2 += uint64(c2)
	}
	for j := 0; j < r && j < w; j++ {
		enter(j)
	}
	step := func(x int) {
		if j := x + r; j < w {
			enter(j)
		}
		b := clipped(x, r, w)
		m, hb := mul[b], half[b]
		dst[3*x] = divide(s0+hb, m)
		dst[3*x+1] = divide(s1+hb, m)
		dst[3*x+2] = divide(s2+hb, m)
		if j := x - r; j >= 0 {
			s0 -= uint64(cols[3*j])
			s1 -= uint64(cols[3*j+1])
			s2 -= uint64(cols[3*j+2])
		}
	}
	lo, hi := interior(w, r)
	for x := 0; x < lo; x++ {
		step(x)
	}
	if hi > lo {
		m, hb := mul[n], half[n]
		enterCols := cols[3*(lo+r) : 3*(hi+r)] // the column entering each window
		inRow, outRow := in[3*(lo+r):3*(hi+r)], out[3*(lo+r):3*(hi+r)]
		leaveCols := cols[3*(lo-r) : 3*(hi-r)] // the column leaving it
		row := dst[3*lo : 3*hi]
		for i := 0; i+2 < len(row) && i+2 < len(enterCols) && i+2 < len(inRow) && i+2 < len(outRow) && i+2 < len(leaveCols); i += 3 {
			c0 := enterCols[i] + uint32(inRow[i]) - uint32(outRow[i])
			c1 := enterCols[i+1] + uint32(inRow[i+1]) - uint32(outRow[i+1])
			c2 := enterCols[i+2] + uint32(inRow[i+2]) - uint32(outRow[i+2])
			enterCols[i], enterCols[i+1], enterCols[i+2] = c0, c1, c2
			s0 += uint64(c0)
			s1 += uint64(c1)
			s2 += uint64(c2)
			row[i] = divide(s0+hb, m)
			row[i+1] = divide(s1+hb, m)
			row[i+2] = divide(s2+hb, m)
			s0 -= uint64(leaveCols[i])
			s1 -= uint64(leaveCols[i+1])
			s2 -= uint64(leaveCols[i+2])
		}
	}
	for x := hi; x < w; x++ {
		step(x)
	}
}

// interior returns [lo, hi), the columns of a w-wide row whose radius-r
// window lies wholly inside the row (empty when the row is narrower than
// the window).
func interior(w, r int) (lo, hi int) {
	lo = min(r, w)
	return lo, max(w-r, lo)
}

// setRows recomputes the division multipliers for windows a rows tall
// and 1..maxB columns wide. A row's height changes only in the first and
// last n/2 rows, so this runs a handful of times per image.
func (sc *FilterScratch) setRows(a, maxB int) {
	if cap(sc.mul) < maxB+1 {
		sc.mul = make([]uint64, maxB+1)  //slj:alloc-ok multiplier scratch regrow on first use or a wider window, amortised across frames
		sc.half = make([]uint64, maxB+1) //slj:alloc-ok multiplier scratch regrow on first use or a wider window, amortised across frames
	}
	sc.mul, sc.half = sc.mul[:maxB+1], sc.half[:maxB+1]
	for b := 1; b <= maxB; b++ {
		d := uint64(a * b)
		sc.mul[b], sc.half[b] = recip(d), d/2
	}
	sc.rows = a
}

// MedianFilterBinary applies a k×k median filter to a binary image; k must be
// odd and >= 1. For bi-level data the median reduces to majority voting, so
// the filter fills pinholes and shaves ridged edges exactly as the paper uses
// it on the extracted silhouette (Figure 1(c)). Pixels whose window leaves
// the image are computed over the in-bounds part of the window.
func MedianFilterBinary(src *Binary, k int) *Binary {
	return MedianFilterBinaryInto(nil, src, k, nil)
}

// MedianFilterBinaryInto is MedianFilterBinary writing into dst, which is
// resized as needed (nil allocates a fresh image) and may hold anything,
// with sc as column-count scratch (nil allocates). dst must not alias
// src. It returns dst, so hot paths can recycle one destination buffer
// across frames instead of allocating per call.
//
// Only the rectangle around src's foreground bounds, grown by k/2 and
// clipped to the image, is computed: every window outside it holds no
// ones, so dst is 0 there. Inside it the filter counts the ones of each
// column over the window rows, sliding those counts down one row at a
// time, and slides a k-column sum of the counts along each row, in one
// pass per row (see window). A pixel is set when its window's ones are a
// strict majority of the window's in-bounds pixels, 2·ones > a·b for a
// window a rows tall and b columns wide, clipped at the image border, so
// the cost is O(rectangle) for any k.
func MedianFilterBinaryInto(dst *Binary, src *Binary, k int, sc *FilterScratch) *Binary {
	if k < 1 || k%2 == 0 {
		panic("imaging.MedianFilterBinary: kernel size must be odd and positive")
	}
	if dst == nil {
		dst = &Binary{} //slj:alloc-ok nil-dst fallback for one-shot callers; hot callers pass a recycled dst
	}
	if sc == nil {
		sc = &FilterScratch{}
	}
	w, h, r := src.W, src.H, k/2
	dst.W, dst.H = w, h
	if n := w * h; cap(dst.Pix) < n { //slj:alloc-ok dst regrow on first use or a larger frame, amortised across frames
		dst.Pix = make([]uint8, n)
	} else {
		dst.Pix = dst.Pix[:n]
	}
	clear(dst.Pix)
	fg := src.ForegroundBounds()
	if fg.Empty() {
		return dst
	}
	x0, x1 := max(fg.Min.X-r, 0), min(fg.Max.X+r, w)
	s := span{pix: src.Pix, stride: w, off: x0, n: x1 - x0, y0: max(fg.Min.Y-r, 0), y1: min(fg.Max.Y+r, h)}
	// Along a row, j and x are columns relative to x0; the window's
	// clipped width still comes from the image border.
	lo, hi := interior(s.n, r)
	for y := s.y0; y < s.y1; y++ {
		in, out := sc.window(s, y, r)
		a := clipped(y, r, h)
		cols, row := sc.cols[:s.n], dst.Pix[y*w+x0:y*w+x1]
		ones := uint32(0)
		enter := func(j int) {
			c := cols[j] + uint32(in[j]) - uint32(out[j])
			cols[j] = c
			ones += c
		}
		for j := 0; j < r && j < s.n; j++ {
			enter(j)
		}
		step := func(x int) {
			if j := x + r; j < s.n {
				enter(j)
			}
			row[x] = majority(ones, a*clipped(x0+x, r, w))
			if j := x - r; j >= 0 {
				ones -= cols[j]
			}
		}
		for x := 0; x < lo; x++ {
			step(x)
		}
		if hi > lo {
			area := a * k
			enterCols, inRow, outRow := cols[lo+r:hi+r], in[lo+r:hi+r], out[lo+r:hi+r]
			leaveCols, mid := cols[lo-r:hi-r], row[lo:hi]
			for i := range mid {
				c := enterCols[i] + uint32(inRow[i]) - uint32(outRow[i])
				enterCols[i] = c
				ones += c
				mid[i] = majority(ones, area)
				ones -= leaveCols[i]
			}
		}
		for x := hi; x < s.n; x++ {
			step(x)
		}
	}
	return dst
}

// majority returns 1 when ones is more than half of area, else 0.
func majority(ones uint32, area int) uint8 {
	if 2*int(ones) > area {
		return 1
	}
	return 0
}

// Erode returns the binary erosion of src with a 3×3 square structuring
// element: a pixel stays foreground only if its whole 8-neighbourhood is
// foreground. Pixels on the image border are eroded (treated as touching
// background).
func Erode(src *Binary) *Binary {
	out := NewBinary(src.W, src.H)
	for y := 0; y < src.H; y++ {
	pixels:
		for x := 0; x < src.W; x++ {
			if src.Pix[y*src.W+x] == 0 {
				continue
			}
			for _, d := range Neighbors8 {
				xx, yy := x+d.X, y+d.Y
				if xx < 0 || xx >= src.W || yy < 0 || yy >= src.H || src.Pix[yy*src.W+xx] == 0 {
					continue pixels
				}
			}
			out.Pix[y*out.W+x] = 1
		}
	}
	return out
}
