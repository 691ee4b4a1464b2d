// Package imaging provides the low-level image substrate used by the
// standing-long-jump pipeline: 8-bit grayscale, RGB and binary images,
// smoothing filters, connected-component analysis, simple morphology,
// rasterisation primitives for the synthetic renderer, and text codecs
// (PGM/PPM/PBM) for persisting frames.
//
// The package is deliberately self-contained (stdlib only) and allocation
// conscious: images store their pixels in a single backing slice, and the
// hot-path filters reuse caller-provided destination buffers where offered.
package imaging

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Common errors returned by this package.
var (
	// ErrBounds reports an access or operation outside image bounds.
	ErrBounds = errors.New("imaging: out of bounds")
	// ErrDimensionMismatch reports two images whose sizes differ where
	// identical sizes are required.
	ErrDimensionMismatch = errors.New("imaging: dimension mismatch")
	// ErrBadDimensions reports a non-positive width or height.
	ErrBadDimensions = errors.New("imaging: non-positive dimensions")
)

// Point is an integer pixel coordinate. X grows rightward, Y grows downward
// (screen convention), matching the paper's frames.
type Point struct {
	X, Y int
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// In reports whether p lies inside a w×h image.
func (p Point) In(w, h int) bool { return p.X >= 0 && p.X < w && p.Y >= 0 && p.Y < h }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Rect is an axis-aligned integer rectangle, inclusive of Min and exclusive
// of Max, following the image.Rectangle convention.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning [x0,x1)×[y0,y1).
func NewRect(x0, y0, x1, y1 int) Rect {
	return Rect{Min: Point{x0, y0}, Max: Point{x1, y1}}
}

// Dx returns the rectangle width.
func (r Rect) Dx() int { return r.Max.X - r.Min.X }

// Dy returns the rectangle height.
func (r Rect) Dy() int { return r.Max.Y - r.Min.Y }

// Empty reports whether the rectangle contains no pixels.
func (r Rect) Empty() bool { return r.Dx() <= 0 || r.Dy() <= 0 }

// Contains reports whether p lies inside r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X < r.Max.X && p.Y >= r.Min.Y && p.Y < r.Max.Y
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	if s.Min.X < r.Min.X {
		r.Min.X = s.Min.X
	}
	if s.Min.Y < r.Min.Y {
		r.Min.Y = s.Min.Y
	}
	if s.Max.X > r.Max.X {
		r.Max.X = s.Max.X
	}
	if s.Max.Y > r.Max.Y {
		r.Max.Y = s.Max.Y
	}
	return r
}

// Intersect returns the largest rectangle contained in both r and s.
// The result may be empty.
func (r Rect) Intersect(s Rect) Rect {
	if s.Min.X > r.Min.X {
		r.Min.X = s.Min.X
	}
	if s.Min.Y > r.Min.Y {
		r.Min.Y = s.Min.Y
	}
	if s.Max.X < r.Max.X {
		r.Max.X = s.Max.X
	}
	if s.Max.Y < r.Max.Y {
		r.Max.Y = s.Max.Y
	}
	if r.Empty() {
		return Rect{}
	}
	return r
}

// Gray is an 8-bit single-channel image. Pixels are stored row-major in Pix,
// one byte per pixel; the zero value is an empty image.
type Gray struct {
	W, H int
	Pix  []uint8
}

// NewGray allocates a zeroed w×h grayscale image.
func NewGray(w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging.NewGray: bad dimensions %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel value at (x, y). It panics outside bounds, matching
// slice-index semantics; use In for guarded access.
func (g *Gray) At(x, y int) uint8 { return g.Pix[y*g.W+x] }

// Set writes the pixel value at (x, y).
func (g *Gray) Set(x, y int, v uint8) { g.Pix[y*g.W+x] = v }

// In reports whether (x, y) is inside the image.
func (g *Gray) In(x, y int) bool { return x >= 0 && x < g.W && y >= 0 && y < g.H }

// Bounds returns the image rectangle.
func (g *Gray) Bounds() Rect { return NewRect(0, 0, g.W, g.H) }

// Clone returns a deep copy of the image.
func (g *Gray) Clone() *Gray {
	out := &Gray{W: g.W, H: g.H, Pix: make([]uint8, len(g.Pix))}
	copy(out.Pix, g.Pix)
	return out
}

// Fill sets every pixel to v.
func (g *Gray) Fill(v uint8) {
	for i := range g.Pix {
		g.Pix[i] = v
	}
}

// RGB is an 8-bit three-channel image with interleaved R, G, B samples.
// Pix holds 3*W*H bytes, row-major.
type RGB struct {
	W, H int
	Pix  []uint8
}

// NewRGB allocates a zeroed (black) w×h colour image.
func NewRGB(w, h int) *RGB {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging.NewRGB: bad dimensions %dx%d", w, h))
	}
	return &RGB{W: w, H: h, Pix: make([]uint8, 3*w*h)}
}

// At returns the (r, g, b) triple at (x, y).
func (m *RGB) At(x, y int) (r, g, b uint8) {
	i := 3 * (y*m.W + x)
	return m.Pix[i], m.Pix[i+1], m.Pix[i+2]
}

// Set writes the (r, g, b) triple at (x, y).
func (m *RGB) Set(x, y int, r, g, b uint8) {
	i := 3 * (y*m.W + x)
	m.Pix[i], m.Pix[i+1], m.Pix[i+2] = r, g, b
}

// In reports whether (x, y) is inside the image.
func (m *RGB) In(x, y int) bool { return x >= 0 && x < m.W && y >= 0 && y < m.H }

// Bounds returns the image rectangle.
func (m *RGB) Bounds() Rect { return NewRect(0, 0, m.W, m.H) }

// Clone returns a deep copy of the image.
func (m *RGB) Clone() *RGB {
	out := &RGB{W: m.W, H: m.H, Pix: make([]uint8, len(m.Pix))}
	copy(out.Pix, m.Pix)
	return out
}

// Fill sets every pixel to the (r, g, b) triple.
func (m *RGB) Fill(r, g, b uint8) {
	for i := 0; i < len(m.Pix); i += 3 {
		m.Pix[i], m.Pix[i+1], m.Pix[i+2] = r, g, b
	}
}

// Gray converts the image to grayscale using the integer Rec.601 luma
// approximation (299r + 587g + 114b) / 1000.
func (m *RGB) Gray() *Gray {
	out := NewGray(m.W, m.H)
	for p, i := 0, 0; p < len(out.Pix); p, i = p+1, i+3 {
		r, g, b := int(m.Pix[i]), int(m.Pix[i+1]), int(m.Pix[i+2])
		out.Pix[p] = uint8((299*r + 587*g + 114*b) / 1000)
	}
	return out
}

// Binary is a bi-level image. Pixels are stored one byte each and MUST be
// 0 (background) or 1 (foreground); storing other values is a programmer
// error that the filters are free to mangle.
type Binary struct {
	W, H int
	Pix  []uint8
	// pooled marks an image currently resident in the buffer pool;
	// PutBinary uses it to turn a double Put into a no-op instead of an
	// aliasing bug (see pool.go).
	pooled bool
}

// NewBinary allocates a zeroed (all background) w×h binary image.
func NewBinary(w, h int) *Binary {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging.NewBinary: bad dimensions %dx%d", w, h))
	}
	return &Binary{W: w, H: h, Pix: make([]uint8, w*h)} //slj:alloc-ok constructor runs on skeletonInto's first frame only; steady frames take the Reset branch
}

// Reset resizes b to a zeroed w×h image, reusing the backing pixel
// slice when its capacity suffices. It is the scratch-buffer idiom of
// the per-frame arenas: the same image object is re-aimed at each frame
// without going through the allocator.
func (b *Binary) Reset(w, h int) {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging.(*Binary).Reset: bad dimensions %dx%d", w, h))
	}
	b.W, b.H = w, h
	n := w * h
	if cap(b.Pix) < n {
		b.Pix = make([]uint8, n) //slj:alloc-ok backing regrow on a larger frame, amortised across frames
		return
	}
	b.Pix = b.Pix[:n]
	clear(b.Pix)
}

// At returns the pixel at (x, y): 0 or 1.
func (b *Binary) At(x, y int) uint8 { return b.Pix[y*b.W+x] }

// Set writes the pixel at (x, y); v must be 0 or 1.
func (b *Binary) Set(x, y int, v uint8) { b.Pix[y*b.W+x] = v }

// In reports whether (x, y) is inside the image.
func (b *Binary) In(x, y int) bool { return x >= 0 && x < b.W && y >= 0 && y < b.H }

// Bounds returns the image rectangle.
func (b *Binary) Bounds() Rect { return NewRect(0, 0, b.W, b.H) }

// Clone returns a deep copy of the image.
func (b *Binary) Clone() *Binary {
	out := &Binary{W: b.W, H: b.H, Pix: make([]uint8, len(b.Pix))}
	copy(out.Pix, b.Pix)
	return out
}

// Count returns the number of foreground (1) pixels.
func (b *Binary) Count() int {
	n := 0
	for _, v := range b.Pix {
		if v != 0 {
			n++
		}
	}
	return n
}

// ForegroundBounds returns the tight bounding rectangle of foreground pixels,
// or an empty Rect if the image has no foreground. It reads each row from
// both ends 32 pixels at a time (four 64-bit loads), so an empty row
// costs W/8 loads and a row with foreground stops near its first and
// last pixel.
func (b *Binary) ForegroundBounds() Rect {
	minX, minY := b.W, b.H
	maxX, maxY := -1, -1
	for y := 0; y < b.H; y++ {
		row := b.Pix[y*b.W : (y+1)*b.W]
		lo := firstSet(row)
		if lo < 0 {
			continue
		}
		if minY > y {
			minY = y
		}
		maxY = y
		minX = min(minX, lo)
		maxX = max(maxX, lastSet(row))
	}
	if maxX < 0 {
		return Rect{}
	}
	return NewRect(minX, minY, maxX+1, maxY+1)
}

// zero32 reports whether the 32 bytes of w are all zero.
func zero32(w []uint8) bool {
	w = w[:32]
	return binary.LittleEndian.Uint64(w)|binary.LittleEndian.Uint64(w[8:])|
		binary.LittleEndian.Uint64(w[16:])|binary.LittleEndian.Uint64(w[24:]) == 0
}

// firstSet returns the index of row's first non-zero byte, or -1.
func firstSet(row []uint8) int {
	i := 0
	for i+32 <= len(row) && zero32(row[i:]) {
		i += 32
	}
	for ; i+8 <= len(row); i += 8 {
		if v := binary.LittleEndian.Uint64(row[i:]); v != 0 {
			return i + bits.TrailingZeros64(v)/8
		}
	}
	for ; i < len(row); i++ {
		if row[i] != 0 {
			return i
		}
	}
	return -1
}

// lastSet returns the index of row's last non-zero byte, or -1.
func lastSet(row []uint8) int {
	i := len(row)
	for i >= 32 && zero32(row[i-32:]) {
		i -= 32
	}
	for ; i >= 8; i -= 8 {
		if v := binary.LittleEndian.Uint64(row[i-8:]); v != 0 {
			return i - 1 - bits.LeadingZeros64(v)/8
		}
	}
	for i--; i >= 0; i-- {
		if row[i] != 0 {
			return i
		}
	}
	return -1
}

// Points returns the coordinates of all foreground pixels in row-major order.
func (b *Binary) Points() []Point {
	pts := make([]Point, 0, 256)
	for y := 0; y < b.H; y++ {
		row := b.Pix[y*b.W : (y+1)*b.W]
		for x, v := range row {
			if v != 0 {
				pts = append(pts, Point{x, y})
			}
		}
	}
	return pts
}

// Equal reports whether two binary images have identical size and pixels.
func (b *Binary) Equal(o *Binary) bool {
	if b.W != o.W || b.H != o.H {
		return false
	}
	for i, v := range b.Pix {
		if (v != 0) != (o.Pix[i] != 0) {
			return false
		}
	}
	return true
}

// Invert flips foreground and background in place.
func (b *Binary) Invert() {
	for i, v := range b.Pix {
		if v == 0 {
			b.Pix[i] = 1
		} else {
			b.Pix[i] = 0
		}
	}
}

// FlipH returns the image mirrored horizontally.
func (b *Binary) FlipH() *Binary {
	out := NewBinary(b.W, b.H)
	for y := 0; y < b.H; y++ {
		row := b.Pix[y*b.W : (y+1)*b.W]
		orow := out.Pix[y*out.W : (y+1)*out.W]
		for x, v := range row {
			orow[b.W-1-x] = v
		}
	}
	return out
}

// Crop returns a copy of the sub-image spanned by r (clipped to bounds).
// An empty intersection yields a 1x1 black image.
func (m *RGB) Crop(r Rect) *RGB {
	return m.CropInto(nil, r)
}

// CropInto is Crop writing into dst, which is resized as needed (nil
// allocates a fresh image). dst must not alias m. It returns dst so hot
// paths can recycle the crop buffer across frames.
func (m *RGB) CropInto(dst *RGB, r Rect) *RGB {
	r = r.Intersect(m.Bounds())
	if dst == nil {
		dst = &RGB{} //slj:alloc-ok nil-dst fallback for one-shot callers; hot callers pass a recycled dst
	}
	w, h := r.Dx(), r.Dy()
	if r.Empty() {
		w, h = 1, 1
	}
	dst.W, dst.H = w, h
	if need := 3 * w * h; cap(dst.Pix) < need {
		dst.Pix = make([]uint8, need) //slj:alloc-ok dst regrow on first use or a larger crop, amortised across frames
	} else {
		dst.Pix = dst.Pix[:need]
	}
	if r.Empty() {
		dst.Pix[0], dst.Pix[1], dst.Pix[2] = 0, 0, 0
		return dst
	}
	out := dst
	for y := 0; y < out.H; y++ {
		srcOff := 3 * ((r.Min.Y+y)*m.W + r.Min.X)
		dstOff := 3 * y * out.W
		copy(out.Pix[dstOff:dstOff+3*out.W], m.Pix[srcOff:srcOff+3*out.W])
	}
	return out
}

// FlipH returns the image mirrored horizontally.
func (m *RGB) FlipH() *RGB {
	out := NewRGB(m.W, m.H)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			r, g, b := m.At(x, y)
			out.Set(m.W-1-x, y, r, g, b)
		}
	}
	return out
}

// Neighbors8 lists the 8-connected neighbourhood offsets in the clockwise
// order used by the Zhang–Suen algorithm, starting from north:
// P2 P3 P4 P5 P6 P7 P8 P9 in the classical labelling.
var Neighbors8 = [8]Point{
	{0, -1}, {1, -1}, {1, 0}, {1, 1},
	{0, 1}, {-1, 1}, {-1, 0}, {-1, -1},
}

// Neighbors4 lists the 4-connected neighbourhood offsets (N, E, S, W).
var Neighbors4 = [4]Point{{0, -1}, {1, 0}, {0, 1}, {-1, 0}}
