// Package imagingtest builds the edge-case masks that the bounded
// post-threshold stages (median filter, largest component, thinning,
// pixel graph) are checked on against their full-frame oracles: each
// stage works only on its input's foreground bounding rectangle, so the
// cases put the foreground against every border and corner, spread it
// over the whole frame, or leave the frame empty.
package imagingtest

import (
	"fmt"
	"math/rand"

	"repro/internal/imaging"
)

// Case is one named mask.
type Case struct {
	Name string
	B    *imaging.Binary
}

// figure draws a thick cross with a diagonal arm, plus deterministic
// noise, into the 11×11 box centred on (cx, cy), clipped to b.
func figure(b *imaging.Binary, cx, cy int, r *rand.Rand) {
	for dy := -5; dy <= 5; dy++ {
		for dx := -5; dx <= 5; dx++ {
			x, y := cx+dx, cy+dy
			if !b.In(x, y) {
				continue
			}
			cross := (dx >= -1 && dx <= 1) || (dy >= -1 && dy <= 1)
			arm := dx-dy >= -1 && dx-dy <= 1 && dx > 0
			if cross || arm || r.Intn(4) == 0 {
				b.Set(x, y, 1)
			}
		}
	}
}

// Cases returns the edge cases: a figure against each edge and in each
// corner, a single pixel in each corner, a solid block one pixel in from
// each corner, two figures in opposite
// corners (so the bounds span the frame), an empty mask, and noisy
// 1×N and N×1 frames.
func Cases() []Case {
	const w, h = 29, 23
	r := rand.New(rand.NewSource(1))
	var out []Case
	add := func(name string, b *imaging.Binary) { out = append(out, Case{name, b}) }
	spots := []struct {
		name   string
		cx, cy int
	}{
		{"top", w / 2, 1}, {"bottom", w / 2, h - 2}, {"left", 1, h / 2}, {"right", w - 2, h / 2},
		{"top-left", 0, 0}, {"top-right", w - 1, 0}, {"bottom-left", 0, h - 1}, {"bottom-right", w - 1, h - 1},
	}
	for _, s := range spots {
		b := imaging.NewBinary(w, h)
		figure(b, s.cx, s.cy, r)
		add("figure at "+s.name, b)
	}
	for _, s := range spots[4:] {
		b := imaging.NewBinary(w, h)
		b.Set(s.cx, s.cy, 1)
		add("pixel at "+s.name, b)
	}
	// A solid block one pixel in from a corner: the median's clipped
	// border windows then set pixels outside the foreground bounds.
	for _, s := range spots[4:] {
		b := imaging.NewBinary(w, h)
		x0, y0 := min(max(s.cx-6, 1), w-7), min(max(s.cy-6, 1), h-7)
		for y := y0; y < y0+6; y++ {
			for x := x0; x < x0+6; x++ {
				b.Set(x, y, 1)
			}
		}
		add("block next to "+s.name, b)
	}
	for _, pair := range [][2]int{{4, 7}, {5, 6}} {
		b := imaging.NewBinary(w, h)
		figure(b, spots[pair[0]].cx+3, spots[pair[0]].cy+3, r)
		figure(b, spots[pair[1]].cx-3, spots[pair[1]].cy-3, r)
		add(fmt.Sprintf("figures at %s and %s", spots[pair[0]].name, spots[pair[1]].name), b)
	}
	add("empty", imaging.NewBinary(w, h))
	for _, n := range []int{1, 2, 9, 17} {
		row, col := imaging.NewBinary(n, 1), imaging.NewBinary(1, n)
		for i := 0; i < n; i++ {
			if i == 0 || i == n-1 || r.Intn(3) > 0 {
				row.Pix[i], col.Pix[i] = 1, 1
			}
		}
		add(fmt.Sprintf("%dx1", n), row)
		add(fmt.Sprintf("1x%d", n), col)
	}
	return out
}

// Dirty returns a w×h image with every pixel set, to stand in for a
// recycled destination buffer that still holds an earlier frame.
func Dirty(w, h int) *imaging.Binary {
	b := imaging.NewBinary(w, h)
	for i := range b.Pix {
		b.Pix[i] = 1
	}
	return b
}

// ZeroOutside reports whether every pixel of b outside r is 0.
func ZeroOutside(b *imaging.Binary, r imaging.Rect) bool {
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			if b.Pix[y*b.W+x] != 0 && !r.Contains(imaging.Point{X: x, Y: y}) {
				return false
			}
		}
	}
	return true
}
