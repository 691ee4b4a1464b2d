package thinning

import (
	"math/rand"
	"testing"

	"repro/internal/extract"
	"repro/internal/imaging"
	"repro/internal/imaging/imagingtest"
	"repro/internal/synth"
)

// This file keeps the previous thinning loops as test oracles: every
// subiteration tests every pixel of the unpadded image, with the rule
// evaluated from scratch. peel must match them pixel for pixel and pass
// for pass.

// thinZhangSuen applies the classical two-subiteration Zhang–Suen thinning
// in place until no pixel changes.
//
// Subiteration 1 deletes P1 if:
//
//	(a) 2 <= B(P1) <= 6
//	(b) A(P1) == 1
//	(c) P2 * P4 * P6 == 0   (north × east × south)
//	(d) P4 * P6 * P8 == 0   (east × south × west)
//
// Subiteration 2 replaces (c)/(d) with P2*P4*P8 == 0 and P2*P6*P8 == 0.
//
// Returns the number of iterations run (including the final stable one).
func thinZhangSuen(img *imaging.Binary) int {
	// Indices into the P2..P9 ordering: P2=0 (N), P3=1, P4=2 (E), P5=3,
	// P6=4 (S), P7=5, P8=6 (W), P9=7.
	const (
		pN = 0
		pE = 2
		pS = 4
		pW = 6
	)
	del := make([]int, 0, 256) //slj:alloc-ok one small fixed worklist per frame, counted in the bench-gate baseline
	passes := 0
	for {
		passes++
		changed := false
		for sub := 0; sub < 2; sub++ {
			del = del[:0]
			for y := 0; y < img.H; y++ {
				for x := 0; x < img.W; x++ {
					if img.Pix[y*img.W+x] == 0 {
						continue
					}
					p := neighborhood(img, x, y)
					bN := sumNeighbors(p)
					if bN < 2 || bN > 6 {
						continue
					}
					if transitions(p) != 1 {
						continue
					}
					var c1, c2 bool
					if sub == 0 {
						c1 = p[pN]*p[pE]*p[pS] == 0
						c2 = p[pE]*p[pS]*p[pW] == 0
					} else {
						c1 = p[pN]*p[pE]*p[pW] == 0
						c2 = p[pN]*p[pS]*p[pW] == 0
					}
					if c1 && c2 {
						del = append(del, y*img.W+x)
					}
				}
			}
			if len(del) > 0 {
				changed = true
				for _, i := range del {
					img.Pix[i] = 0
				}
			}
		}
		if !changed {
			return passes
		}
	}
}

// thinGuoHall applies Guo–Hall (1989) thinning in place until stable.
// Returns the number of iterations run (including the final stable one).
func thinGuoHall(img *imaging.Binary) int {
	del := make([]int, 0, 256) //slj:alloc-ok one small fixed worklist per frame, counted in the bench-gate baseline
	passes := 0
	for {
		passes++
		changed := false
		for sub := 0; sub < 2; sub++ {
			del = del[:0]
			for y := 0; y < img.H; y++ {
				for x := 0; x < img.W; x++ {
					if img.Pix[y*img.W+x] == 0 {
						continue
					}
					p := neighborhood(img, x, y)
					// Guo–Hall uses p1..p8 = N, NE, E, SE, S, SW, W, NW
					// which matches our ordering exactly.
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
					n := n1
					if n2 < n1 {
						n = n2
					}
					// m of Guo–Hall: subiteration 0 uses
					// (p6 ∨ p7 ∨ ¬p9) ∧ p8, subiteration 1 the
					// 180°-rotated (p2 ∨ p3 ∨ ¬p5) ∧ p4.
					var cond bool
					if sub == 0 {
						cond = (p[4] == 1 || p[5] == 1 || p[7] == 0) && p[6] == 1
					} else {
						cond = (p[0] == 1 || p[1] == 1 || p[3] == 0) && p[2] == 1
					}
					if c == 1 && n >= 2 && n <= 3 && !cond {
						del = append(del, y*img.W+x)
					}
				}
			}
			if len(del) > 0 {
				changed = true
				for _, i := range del {
					img.Pix[i] = 0
				}
			}
		}
		if !changed {
			return passes
		}
	}
}

// oracleShape draws a random mask for the thinning oracles: speckle at any
// density or a few thick capsules (several peel passes), with an all-on
// and an all-off frame every 100 cases, at sides 1–40. Small sides are
// favoured (the oracle rescans the whole frame every subiteration, and
// the clip test covers large frames), 1-pixel sides most of all.
func oracleShape(r *rand.Rand, i int) *imaging.Binary {
	side := func() int {
		if r.Intn(8) == 0 {
			return 1
		}
		return 1 + r.Intn(1+r.Intn(40))
	}
	w, h := side(), side()
	b := imaging.NewBinary(w, h)
	switch {
	case i%100 == 0: // all off
	case i%100 == 1: // all on
		for p := range b.Pix {
			b.Pix[p] = 1
		}
	case i%2 == 0:
		density := r.Float64()
		for p := range b.Pix {
			if r.Float64() < density {
				b.Pix[p] = 1
			}
		}
	default:
		for k := 1 + r.Intn(3); k > 0; k-- {
			a := imaging.Pointf{X: r.Float64() * float64(w), Y: r.Float64() * float64(h)}
			c := imaging.Pointf{X: r.Float64() * float64(w), Y: r.Float64() * float64(h)}
			imaging.FillCapsule(b, a, c, 1+r.Float64()*5)
		}
	}
	return b
}

func TestPeelMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		alg    Algorithm
		oracle func(*imaging.Binary) int
	}{
		{ZhangSuen, thinZhangSuen},
		{GuoHall, thinGuoHall},
	} {
		r := rand.New(rand.NewSource(int64(tc.alg)))
		dst := &imaging.Binary{}
		for i := 0; i < 10000; i++ {
			src := oracleShape(r, i)
			want := src.Clone()
			wantPasses := tc.oracle(want)
			var passes int
			dst, passes = ThinIntoCounted(dst, src, tc.alg)
			if !dst.Equal(want) || passes != wantPasses {
				t.Fatalf("%v case %d (%dx%d): peel gave %d passes, oracle %d; pixels equal: %v",
					tc.alg, i, src.W, src.H, passes, wantPasses, dst.Equal(want))
			}
		}
	}
}

// TestPeelBoundedEdgeCases checks both peels, which work only on the
// foreground bounding rectangle, against the full-frame oracles on masks
// whose foreground touches every edge and corner, spans the frame, or is
// absent. Each peel writes into a dirty destination, which must come back
// zero outside the foreground.
func TestPeelBoundedEdgeCases(t *testing.T) {
	for _, c := range imagingtest.Cases() {
		fg := c.B.ForegroundBounds()
		for _, tc := range []struct {
			alg    Algorithm
			oracle func(*imaging.Binary) int
		}{
			{ZhangSuen, thinZhangSuen},
			{GuoHall, thinGuoHall},
		} {
			want := c.B.Clone()
			wantPasses := tc.oracle(want)
			got, passes := ThinIntoCounted(imagingtest.Dirty(c.B.W, c.B.H), c.B, tc.alg)
			if !got.Equal(want) || passes != wantPasses {
				t.Errorf("%v, %s: peel gave %d passes, oracle %d; pixels equal: %v",
					tc.alg, c.Name, passes, wantPasses, got.Equal(want))
			}
			if !imagingtest.ZeroOutside(got, fg) {
				t.Errorf("%v, %s: dirty dst left set outside the foreground bounds %v", tc.alg, c.Name, fg)
			}
		}
	}
}

// TestPeelMatchesOracleOnClip checks both peels, pixels and pass counts,
// on the smoothed silhouette of every frame of a generated paper-size
// clip — the masks the pipeline actually thins.
func TestPeelMatchesOracleOnClip(t *testing.T) {
	clip, err := synth.Generate(synth.DefaultSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := extract.NewExtractor()
	if err != nil {
		t.Fatal(err)
	}
	ex.SetBackground(clip.Background)
	dst := &imaging.Binary{}
	for i, fr := range clip.Frames {
		sil, err := ex.Extract(fr.Image)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			alg    Algorithm
			oracle func(*imaging.Binary) int
		}{
			{ZhangSuen, thinZhangSuen},
			{GuoHall, thinGuoHall},
		} {
			want := sil.Clone()
			wantPasses := tc.oracle(want)
			var passes int
			dst, passes = ThinIntoCounted(dst, sil, tc.alg)
			if !dst.Equal(want) || passes != wantPasses {
				t.Fatalf("%v frame %d: peel gave %d passes, oracle %d; pixels equal: %v",
					tc.alg, i, passes, wantPasses, dst.Equal(want))
			}
		}
	}
}
