package thinning

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/imaging"
)

func solidRect(w, h, x0, y0, x1, y1 int) *imaging.Binary {
	b := imaging.NewBinary(w, h)
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			b.Set(x, y, 1)
		}
	}
	return b
}

func algorithms() []Algorithm { return []Algorithm{ZhangSuen, GuoHall} }

func TestAlgorithmString(t *testing.T) {
	if ZhangSuen.String() != "zhang-suen" || GuoHall.String() != "guo-hall" {
		t.Error("Algorithm.String mismatch")
	}
	if Algorithm(0).String() != "unknown-algorithm" {
		t.Error("zero Algorithm should stringify as unknown")
	}
}

func TestThinDoesNotModifyInput(t *testing.T) {
	src := solidRect(20, 20, 5, 5, 15, 15)
	want := src.Clone()
	Thin(src, ZhangSuen)
	if !src.Equal(want) {
		t.Fatal("Thin mutated its input")
	}
}

func TestThinEmptyImage(t *testing.T) {
	for _, alg := range algorithms() {
		out := Thin(imaging.NewBinary(10, 10), alg)
		if out.Count() != 0 {
			t.Errorf("%v: thinning empty image produced pixels", alg)
		}
	}
}

func TestThinSinglePixelSurvives(t *testing.T) {
	for _, alg := range algorithms() {
		b := imaging.NewBinary(5, 5)
		b.Set(2, 2, 1)
		out := Thin(b, alg)
		if out.Count() != 1 || out.At(2, 2) != 1 {
			t.Errorf("%v: isolated pixel should survive, got %d pixels", alg, out.Count())
		}
	}
}

func TestThinThinLineIsFixedPoint(t *testing.T) {
	for _, alg := range algorithms() {
		b := imaging.NewBinary(20, 5)
		for x := 2; x < 18; x++ {
			b.Set(x, 2, 1)
		}
		out := Thin(b, alg)
		// A 1-pixel line must keep its endpoints and stay connected;
		// Zhang-Suen may shorten it by at most the endpoint pixels.
		if out.Count() < 14 {
			t.Errorf("%v: 16-pixel line shrank to %d pixels", alg, out.Count())
		}
		_, comps := imaging.Components(out, imaging.Connect8)
		if len(comps) != 1 {
			t.Errorf("%v: line broke into %d components", alg, len(comps))
		}
	}
}

func TestThinRectangleBecomesThinCurve(t *testing.T) {
	for _, alg := range algorithms() {
		src := solidRect(40, 20, 4, 4, 36, 16)
		out := Thin(src, alg)
		m := Measure(out)
		if m.Pixels == 0 {
			t.Fatalf("%v: skeleton vanished", alg)
		}
		if m.Pixels >= src.Count()/2 {
			t.Errorf("%v: skeleton has %d pixels of %d original; not thin", alg, m.Pixels, src.Count())
		}
		if m.MaxWidthViolations > 2 {
			t.Errorf("%v: %d 2x2 solid blocks remain", alg, m.MaxWidthViolations)
		}
		_, comps := imaging.Components(out, imaging.Connect8)
		if len(comps) != 1 {
			t.Errorf("%v: skeleton broke into %d components (break-line problem)", alg, len(comps))
		}
	}
}

func TestThinPreservesConnectivity(t *testing.T) {
	// Property: thinning never increases the number of connected
	// components (the Z-S "avoid the break-line problem" claim), and the
	// skeleton is a subset of the input.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := imaging.NewBinary(32, 32)
		// A few random blobs.
		for k := 0; k < 3; k++ {
			cx, cy := 4+r.Intn(24), 4+r.Intn(24)
			rad := 2 + r.Float64()*4
			imaging.FillDisc(b, imaging.Pointf{X: float64(cx), Y: float64(cy)}, rad)
		}
		_, before := imaging.Components(b, imaging.Connect8)
		for _, alg := range algorithms() {
			out := Thin(b, alg)
			for i := range out.Pix {
				if out.Pix[i] == 1 && b.Pix[i] == 0 {
					return false // grew a pixel
				}
			}
			// "Never increases" exactly: breaking a line apart adds
			// components; a speck thinned away to nothing removes one,
			// which the claim permits.
			_, after := imaging.Components(out, imaging.Connect8)
			if len(after) > len(before) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestThinIdempotent(t *testing.T) {
	// Thinning a skeleton again must not change it (fixed point).
	src := solidRect(30, 30, 5, 5, 25, 25)
	for _, alg := range algorithms() {
		once := Thin(src, alg)
		twice := Thin(once, alg)
		if !once.Equal(twice) {
			t.Errorf("%v: thinning is not idempotent", alg)
		}
	}
}

func TestThinRingKeepsLoop(t *testing.T) {
	// An annulus must thin to a closed curve: one loop, no endpoints.
	b := imaging.NewBinary(40, 40)
	imaging.FillDisc(b, imaging.Pointf{X: 20, Y: 20}, 15)
	inner := imaging.NewBinary(40, 40)
	imaging.FillDisc(inner, imaging.Pointf{X: 20, Y: 20}, 8)
	for i := range b.Pix {
		if inner.Pix[i] == 1 {
			b.Pix[i] = 0
		}
	}
	out := Thin(b, ZhangSuen)
	m := Measure(out)
	if m.Loops != 1 {
		t.Errorf("annulus skeleton has %d loops, want 1", m.Loops)
	}
	if m.Endpoints != 0 {
		t.Errorf("annulus skeleton has %d endpoints, want 0", m.Endpoints)
	}
}

func TestTransitions(t *testing.T) {
	tests := []struct {
		name string
		p    [8]uint8
		want int
	}{
		{"all zero", [8]uint8{}, 0},
		{"all one", [8]uint8{1, 1, 1, 1, 1, 1, 1, 1}, 0},
		{"single run", [8]uint8{1, 1, 0, 0, 0, 0, 0, 0}, 1},
		{"two runs", [8]uint8{1, 0, 1, 0, 0, 0, 0, 0}, 2},
		{"four runs", [8]uint8{1, 0, 1, 0, 1, 0, 1, 0}, 4},
		{"wraparound", [8]uint8{0, 0, 0, 0, 0, 0, 0, 1}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := transitions(tt.p); got != tt.want {
				t.Errorf("transitions(%v) = %d, want %d", tt.p, got, tt.want)
			}
		})
	}
}

func TestNeighborhoodAtBorder(t *testing.T) {
	b := imaging.NewBinary(3, 3)
	b.Set(0, 0, 1)
	b.Set(1, 0, 1)
	p := neighborhood(b, 0, 0)
	// Out-of-bounds reads must be 0; the east neighbour (index 2) is 1.
	if p[2] != 1 {
		t.Error("east neighbour not seen")
	}
	for _, i := range []int{0, 1, 5, 6, 7} { // N, NE, SW, W, NW out of bounds
		if p[i] != 0 {
			t.Errorf("out-of-bounds neighbour %d read as foreground", i)
		}
	}
}

func TestMeasureCross(t *testing.T) {
	// A plus sign: one junction, four endpoints, no loops.
	b := imaging.FromASCII(`
.....#.....
.....#.....
.....#.....
###########
.....#.....
.....#.....
`)
	m := Measure(b)
	if m.Endpoints != 4 {
		t.Errorf("Endpoints = %d, want 4", m.Endpoints)
	}
	if m.Junctions < 1 {
		t.Errorf("Junctions = %d, want >= 1", m.Junctions)
	}
	if m.Loops != 0 {
		t.Errorf("Loops = %d, want 0", m.Loops)
	}
	if m.Components != 1 {
		t.Errorf("Components = %d, want 1", m.Components)
	}
}

func TestMeasureLoopCount(t *testing.T) {
	// A 1-pixel square ring has exactly one independent cycle.
	b := imaging.FromASCII(`
#####
#...#
#...#
#####
`)
	m := Measure(b)
	if m.Loops != 1 {
		t.Errorf("Loops = %d, want 1", m.Loops)
	}
	if m.Endpoints != 0 {
		t.Errorf("Endpoints = %d, want 0", m.Endpoints)
	}
}

func TestMeasureTwoComponents(t *testing.T) {
	b := imaging.FromASCII(`
##...
.....
...##
`)
	m := Measure(b)
	if m.Components != 2 {
		t.Errorf("Components = %d, want 2", m.Components)
	}
	if m.Endpoints != 4 {
		t.Errorf("Endpoints = %d, want 4", m.Endpoints)
	}
}

func TestMeasureWidthViolation(t *testing.T) {
	b := imaging.FromASCII(`
##
##
`)
	m := Measure(b)
	if m.MaxWidthViolations != 1 {
		t.Errorf("MaxWidthViolations = %d, want 1", m.MaxWidthViolations)
	}
}

func TestHumanlikeSilhouetteThinsToTree(t *testing.T) {
	// Rough standing figure: head disc, torso, two arms, two legs.
	b := imaging.NewBinary(60, 100)
	imaging.FillDisc(b, imaging.Pointf{X: 30, Y: 12}, 7)
	imaging.FillCapsule(b, imaging.Pointf{X: 30, Y: 18}, imaging.Pointf{X: 30, Y: 55}, 6)   // torso
	imaging.FillCapsule(b, imaging.Pointf{X: 30, Y: 26}, imaging.Pointf{X: 12, Y: 45}, 3.5) // left arm
	imaging.FillCapsule(b, imaging.Pointf{X: 30, Y: 26}, imaging.Pointf{X: 48, Y: 45}, 3.5) // right arm
	imaging.FillCapsule(b, imaging.Pointf{X: 27, Y: 55}, imaging.Pointf{X: 20, Y: 92}, 4)   // left leg
	imaging.FillCapsule(b, imaging.Pointf{X: 33, Y: 55}, imaging.Pointf{X: 40, Y: 92}, 4)   // right leg
	out := Thin(b, ZhangSuen)
	m := Measure(out)
	if m.Components != 1 {
		t.Fatalf("skeleton has %d components", m.Components)
	}
	// Head, two hands, two feet => at least 5 limb tips, possibly a few
	// extra spurs from thinning noise.
	if m.Endpoints < 5 {
		t.Errorf("Endpoints = %d, want >= 5 for a 5-limbed figure", m.Endpoints)
	}
	if m.Junctions == 0 {
		t.Error("expected at least one junction where limbs meet")
	}
}

func TestGuoHallProducesComparableSkeleton(t *testing.T) {
	src := solidRect(40, 40, 8, 8, 32, 32)
	zs := Measure(Thin(src, ZhangSuen))
	gh := Measure(Thin(src, GuoHall))
	if gh.Pixels == 0 || zs.Pixels == 0 {
		t.Fatal("a variant produced an empty skeleton")
	}
	ratio := float64(gh.Pixels) / float64(zs.Pixels)
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("variants disagree wildly: ZS=%d GH=%d pixels", zs.Pixels, gh.Pixels)
	}
}

func BenchmarkThinZhangSuen(b *testing.B) {
	src := solidRect(160, 120, 20, 10, 140, 110)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Thin(src, ZhangSuen)
	}
}

func BenchmarkThinGuoHall(b *testing.B) {
	src := solidRect(160, 120, 20, 10, 140, 110)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Thin(src, GuoHall)
	}
}

// TestThinConcurrent runs peels from several goroutines at once, as the
// engine's workers do: they share the scratch free list, and each must
// still get the sequential result.
func TestThinConcurrent(t *testing.T) {
	shapes := []*imaging.Binary{
		solidRect(40, 30, 4, 4, 36, 26),
		solidRect(25, 50, 2, 10, 20, 45),
		solidRect(64, 16, 0, 0, 64, 16),
	}
	want := make([]*imaging.Binary, len(shapes))
	for i, s := range shapes {
		want[i] = Thin(s, ZhangSuen)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := &imaging.Binary{}
			for k := 0; k < 30; k++ {
				i := (g + k) % len(shapes)
				dst = ThinInto(dst, shapes[i], ZhangSuen)
				if !dst.Equal(want[i]) {
					t.Errorf("goroutine %d: shape %d differs from the sequential skeleton", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
