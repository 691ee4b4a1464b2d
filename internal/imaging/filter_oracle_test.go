package imaging

import (
	"math/rand"
	"sort"
	"testing"
)

// This file keeps the previous filter kernels as test oracles: the
// summed-area-table box average and the per-window median. The production
// kernels in filter.go must match them byte for byte. It also keeps the
// filters that only tests use: dilation, opening, closing and the
// grayscale median.

// boxAverageRGBRef is the summed-area-table box average that BoxRow
// replaced: per-channel int64 tables, then one hardware division per
// pixel and channel.
func boxAverageRGBRef(src *RGB, n int) *RGB {
	w, h := src.W, src.H
	out := NewRGB(w, h)
	sw, sh := w+1, h+1
	var tab [3][]int64
	for c := range tab {
		tab[c] = make([]int64, sw*sh)
	}
	for y := 0; y < h; y++ {
		var run [3]int64
		for x := 0; x < w; x++ {
			i := 3 * (y*w + x)
			for c := 0; c < 3; c++ {
				run[c] += int64(src.Pix[i+c])
				tab[c][(y+1)*sw+x+1] = tab[c][y*sw+x+1] + run[c]
			}
		}
	}
	r := n / 2
	for y := 0; y < h; y++ {
		y0, y1 := max(y-r, 0), min(y+r+1, h)
		for x := 0; x < w; x++ {
			x0, x1 := max(x-r, 0), min(x+r+1, w)
			area := int64((y1 - y0) * (x1 - x0))
			o := 3 * (y*w + x)
			for c := 0; c < 3; c++ {
				s := tab[c][y1*sw+x1] - tab[c][y0*sw+x1] - tab[c][y1*sw+x0] + tab[c][y0*sw+x0]
				out.Pix[o+c] = uint8((s + area/2) / area)
			}
		}
	}
	return out
}

// medianFilterBinaryRef is the per-window majority vote that
// MedianFilterBinaryInto replaced: k² reads per pixel.
func medianFilterBinaryRef(src *Binary, k int) *Binary {
	out := NewBinary(src.W, src.H)
	r := k / 2
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			ones, total := 0, 0
			for yy := max(y-r, 0); yy <= min(y+r, src.H-1); yy++ {
				for xx := max(x-r, 0); xx <= min(x+r, src.W-1); xx++ {
					total++
					if src.Pix[yy*src.W+xx] != 0 {
						ones++
					}
				}
			}
			if 2*ones > total {
				out.Pix[y*out.W+x] = 1
			}
		}
	}
	return out
}

// dilate returns the binary dilation of src with a 3×3 square structuring
// element: a pixel is foreground if any pixel in its 8-neighbourhood (or
// itself) is foreground.
func dilate(src *Binary) *Binary {
	out := NewBinary(src.W, src.H)
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			if src.Pix[y*src.W+x] != 0 {
				out.Pix[y*out.W+x] = 1
				continue
			}
			for _, d := range Neighbors8 {
				xx, yy := x+d.X, y+d.Y
				if xx >= 0 && xx < src.W && yy >= 0 && yy < src.H && src.Pix[yy*src.W+xx] != 0 {
					out.Pix[y*out.W+x] = 1
					break
				}
			}
		}
	}
	return out
}

// openBinary performs erosion followed by dilation (removes small speckle).
func openBinary(src *Binary) *Binary { return dilate(Erode(src)) }

// closeBinary performs dilation followed by erosion (fills small holes).
func closeBinary(src *Binary) *Binary { return Erode(dilate(src)) }

// medianFilterGray applies a k×k median filter to a grayscale image; k
// must be odd. Border pixels use the in-bounds part of the window.
func medianFilterGray(src *Gray, k int) *Gray {
	out := NewGray(src.W, src.H)
	r := k / 2
	window := make([]uint8, 0, k*k)
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			window = window[:0]
			for yy := max(y-r, 0); yy <= min(y+r, src.H-1); yy++ {
				for xx := max(x-r, 0); xx <= min(x+r, src.W-1); xx++ {
					window = append(window, src.Pix[yy*src.W+xx])
				}
			}
			sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
			out.Pix[y*out.W+x] = window[len(window)/2]
		}
	}
	return out
}

// oracleSide draws a frame side for the oracle cases: mostly 1–40, with
// the 1-pixel extremes over-represented.
func oracleSide(r *rand.Rand) int {
	if r.Intn(8) == 0 {
		return 1
	}
	return 1 + r.Intn(40)
}

// oracleWindows are the window and kernel sizes every oracle covers; 9
// exceeds the small sides, so some frames are one clipped window.
var oracleWindows = []int{1, 3, 5, 7, 9}

func TestDivideExact(t *testing.T) {
	// Every quotient the box average can ask for, for small areas.
	for d := uint64(1); d <= 300; d++ {
		m := recip(d)
		for x := uint64(0); x < 256*d; x++ {
			if got := divide(x, m); uint64(got) != x/d {
				t.Fatalf("divide(%d, recip(%d)) = %d, want %d", x, d, got, x/d)
			}
		}
	}
	// Large areas: the residues next to every quotient boundary, where a
	// multiplier that is too coarse fails first.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		d := 1 + uint64(r.Int63n(MaxBoxWindow*MaxBoxWindow))
		if i == 0 {
			d = MaxBoxWindow * MaxBoxWindow
		}
		m := recip(d)
		for _, q := range []uint64{0, 1, 127, 128, 254, 255} {
			for _, x := range []uint64{q * d, q*d + d/2, q*d + d - 1} {
				if got := divide(x, m); uint64(got) != q {
					t.Fatalf("divide(%d, recip(%d)) = %d, want %d", x, d, got, q)
				}
			}
		}
	}
}

func TestBoxAverageMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var sc FilterScratch
	var dst *RGB
	for i := 0; i < 10000; i++ {
		w, h := oracleSide(r), oracleSide(r)
		n := oracleWindows[i/10%len(oracleWindows)]
		src := NewRGB(w, h)
		switch i % 10 {
		case 0: // all black
		case 1: // all white, the largest sums
			src.Fill(255, 255, 255)
		default:
			for j := range src.Pix {
				src.Pix[j] = uint8(r.Intn(256))
			}
		}
		want := boxAverageRGBRef(src, n)
		// One scratch and destination across every case, as the
		// extractor threads them across frames of changing size.
		dst = BoxAverageRGBInto(dst, src, n, &sc)
		if dst.W != w || dst.H != h || string(dst.Pix) != string(want.Pix) {
			t.Fatalf("case %d (%dx%d, n=%d): box average differs from the summed-area oracle", i, w, h, n)
		}
	}
}

func TestMedianFilterBinaryMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var sc FilterScratch
	dst := &Binary{}
	for i := 0; i < 10000; i++ {
		w, h := oracleSide(r), oracleSide(r)
		k := oracleWindows[i/10%len(oracleWindows)]
		density := r.Float64()
		switch i % 10 {
		case 0:
			density = 0
		case 1:
			density = 1
		}
		src := quickBinary(r, w, h, density)
		want := medianFilterBinaryRef(src, k)
		dst = MedianFilterBinaryInto(dst, src, k, &sc)
		if !dst.Equal(want) {
			t.Fatalf("case %d (%dx%d, k=%d, density %.2f): median differs from the per-window oracle", i, w, h, k, density)
		}
	}
}
