package extract

import (
	"math/rand"
	"testing"

	"repro/internal/imaging"
	"repro/internal/synth"
)

// boxAverageRef is the summed-area-table box average of steps i–ii that
// imaging.BoxAverageRGB replaced: per-channel int64 tables, then one
// hardware division per pixel and channel.
func boxAverageRef(src *imaging.RGB, n int) *imaging.RGB {
	w, h, r := src.W, src.H, n/2
	sw := w + 1
	var tab [3][]int64
	for c := range tab {
		tab[c] = make([]int64, sw*(h+1))
	}
	for y := 0; y < h; y++ {
		var run [3]int64
		for x := 0; x < w; x++ {
			for c := 0; c < 3; c++ {
				run[c] += int64(src.Pix[3*(y*w+x)+c])
				tab[c][(y+1)*sw+x+1] = tab[c][y*sw+x+1] + run[c]
			}
		}
	}
	out := imaging.NewRGB(w, h)
	for y := 0; y < h; y++ {
		y0, y1 := max(y-r, 0), min(y+r+1, h)
		for x := 0; x < w; x++ {
			x0, x1 := max(x-r, 0), min(x+r+1, w)
			area := int64((y1 - y0) * (x1 - x0))
			for c := 0; c < 3; c++ {
				s := tab[c][y1*sw+x1] - tab[c][y0*sw+x1] - tab[c][y1*sw+x0] + tab[c][y0*sw+x0]
				out.Pix[3*(y*w+x)+c] = uint8((s + area/2) / area)
			}
		}
	}
	return out
}

// extractRawRef is steps i–viii as extractRawInto computed them before
// the row-streamed kernel: full-frame averages, an int difference map,
// then shift, clamp and threshold in that order.
func extractRawRef(bg, frame *imaging.RGB, n, th int) *imaging.Binary {
	bgAve, aAve := boxAverageRef(bg, n), boxAverageRef(frame, n)
	out := imaging.NewBinary(frame.W, frame.H)
	d := make([]int, frame.W*frame.H)
	maxD := 0
	for p := range d {
		i := 3 * p
		sum := 0
		for c := 0; c < 3; c++ {
			diff := int(aAve.Pix[i+c]) - int(bgAve.Pix[i+c])
			if diff < 0 {
				diff = -diff
			}
			sum += diff
		}
		d[p] = sum
		if sum > maxD {
			maxD = sum
		}
	}
	if maxD == 0 {
		return out
	}
	shift := maxD - 255
	for p := range d {
		r := d[p] - shift
		if r < 0 {
			r = 0
		}
		if r > th {
			out.Pix[p] = 1
		}
	}
	return out
}

func TestExtractRawMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	// Sides run 1–40, small ones favoured (the clip test below covers
	// full frames), 1-pixel sides most of all.
	side := func() int {
		if r.Intn(8) == 0 {
			return 1
		}
		return 1 + r.Intn(1+r.Intn(40))
	}
	windows := []int{1, 3, 5, 7, 9}
	for i := 0; i < 10000; i++ {
		w, h := side(), side()
		n := windows[i/10%len(windows)]
		th := r.Intn(256)
		switch i % 7 {
		case 0:
			th = 0
		case 1:
			th = 255
		}
		bg := imaging.NewRGB(w, h)
		for j := range bg.Pix {
			bg.Pix[j] = uint8(r.Intn(256))
		}
		frame := bg.Clone()
		switch i % 10 {
		case 0: // frame equals background: the max-zero guard
		case 1: // every pixel differs
			for j := range frame.Pix {
				frame.Pix[j] = uint8(r.Intn(256))
			}
		default: // an object over part of the frame
			density := r.Float64()
			for p := 0; p < w*h; p++ {
				if r.Float64() < density {
					for c := 0; c < 3; c++ {
						frame.Pix[3*p+c] = uint8(r.Intn(256))
					}
				}
			}
		}
		e, err := NewExtractor(WithWindow(n), WithThObject(th))
		if err != nil {
			t.Fatal(err)
		}
		e.SetBackground(bg)
		got, err := e.ExtractRaw(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(extractRawRef(bg, frame, n, th)) {
			t.Fatalf("case %d (%dx%d, n=%d, th=%d): raw silhouette differs from the oracle", i, w, h, n, th)
		}
	}
}

// TestExtractRawMatchesOracleOnClip checks every frame of a generated
// paper-size clip, through one extractor as the pipeline runs it.
func TestExtractRawMatchesOracleOnClip(t *testing.T) {
	clip, err := synth.Generate(synth.DefaultSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	e := newTestExtractor(t)
	e.SetBackground(clip.Background)
	for i, fr := range clip.Frames {
		got, err := e.ExtractRaw(fr.Image)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(extractRawRef(clip.Background, fr.Image, DefaultWindow, DefaultThObject)) {
			t.Fatalf("frame %d: raw silhouette differs from the oracle", i)
		}
	}
}
