package imaging_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/imaging"
	"repro/internal/imaging/imagingtest"
)

// The median filter and the largest-component isolation work only on
// their input's foreground bounding rectangle. These tests hold them to
// the full-frame oracles on masks whose foreground touches every edge
// and corner, spans the frame, or is absent.

// naiveBounds is ForegroundBounds by a pixel-by-pixel scan.
func naiveBounds(b *imaging.Binary) imaging.Rect {
	var r imaging.Rect
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			if b.Pix[y*b.W+x] != 0 {
				r = r.Union(imaging.NewRect(x, y, x+1, y+1))
			}
		}
	}
	return r
}

func TestForegroundBoundsEdgeCases(t *testing.T) {
	for _, c := range imagingtest.Cases() {
		if got, want := c.B.ForegroundBounds(), naiveBounds(c.B); got != want {
			t.Errorf("%s: ForegroundBounds = %v, want %v", c.Name, got, want)
		}
	}
	// Rows of every length mod 32 (ForegroundBounds skips 32 pixels at
	// a time, then 8, then 1), with one pixel at each column.
	for w := 1; w <= 72; w++ {
		for x := 0; x < w; x++ {
			b := imaging.NewBinary(w, 3)
			b.Set(x, 1, 1)
			if got, want := b.ForegroundBounds(), imaging.NewRect(x, 1, x+1, 2); got != want {
				t.Fatalf("%dx3 with pixel (%d,1): ForegroundBounds = %v, want %v", w, x, got, want)
			}
		}
	}
}

func TestBoundedMedianMatchesOracle(t *testing.T) {
	var sc imaging.FilterScratch
	for _, c := range imagingtest.Cases() {
		fg := c.B.ForegroundBounds()
		for _, k := range []int{1, 3, 5, 7} {
			want := imaging.MedianFilterBinaryRef(c.B, k)
			got := imaging.MedianFilterBinaryInto(imagingtest.Dirty(c.B.W, c.B.H), c.B, k, &sc)
			if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
				t.Errorf("%s, k=%d: bounded median differs from the full-frame oracle", c.Name, k)
			}
			// A window reaches k/2 pixels past the foreground.
			reach := fg
			if !fg.Empty() {
				r := k / 2
				reach = imaging.NewRect(fg.Min.X-r, fg.Min.Y-r, fg.Max.X+r, fg.Max.Y+r)
			}
			if !imagingtest.ZeroOutside(got, reach) {
				t.Errorf("%s, k=%d: dirty dst left set outside %v", c.Name, k, reach)
			}
		}
	}
}

func TestBoundedComponentsMatchOracle(t *testing.T) {
	var sc imaging.ComponentScratch
	for _, c := range imagingtest.Cases() {
		for _, conn := range []imaging.Connectivity{imaging.Connect4, imaging.Connect8} {
			labels, comps := imaging.Components(c.B, conn)
			wantLabels, wantComps := imaging.ComponentsRef(c.B, conn)
			if !reflect.DeepEqual(labels, wantLabels) || !reflect.DeepEqual(comps, wantComps) {
				t.Errorf("%s, %v: Components differs from the full-frame oracle", c.Name, conn)
			}
			got := imaging.LargestComponentInto(imaging.NewBinary(c.B.W, c.B.H), c.B, conn, &sc)
			if want := imaging.LargestComponentRef(c.B, conn); !bytes.Equal(got.Pix, want.Pix) {
				t.Errorf("%s, %v: LargestComponentInto differs from the full-frame oracle", c.Name, conn)
			}
		}
	}
}
