package track

import (
	"errors"
	"math"
	"testing"

	"repro/internal/extract"
	"repro/internal/imaging"
	"repro/internal/pose"
	"repro/internal/synth"
)

func TestAlphaBetaValidation(t *testing.T) {
	for _, g := range [][2]float64{{0, 0.5}, {1.5, 0.5}, {0.5, 0}, {0.5, -1}} {
		if _, err := NewAlphaBeta(g[0], g[1]); !errors.Is(err, ErrBadGain) {
			t.Errorf("gains %v accepted", g)
		}
	}
	if _, err := NewAlphaBeta(0.7, 0.3); err != nil {
		t.Fatal(err)
	}
}

func TestAlphaBetaTracksConstantVelocity(t *testing.T) {
	f, err := NewAlphaBeta(0.6, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Target moves at 3 px/frame; after convergence the velocity
	// estimate should approach 3 and the residual should shrink.
	for i := 0; i < 60; i++ {
		f.Update(float64(3 * i))
	}
	if math.Abs(f.vel-3) > 0.2 {
		t.Errorf("velocity = %v, want ≈ 3", f.vel)
	}
	if math.Abs(f.Position()-3*59) > 2 {
		t.Errorf("position = %v, want ≈ %v", f.Position(), 3*59)
	}
}

func TestAlphaBetaPredictCoasts(t *testing.T) {
	f, err := NewAlphaBeta(0.8, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		f.Update(float64(2 * i))
	}
	p0 := f.Position()
	p1 := f.Predict()
	p2 := f.Predict()
	if p1 <= p0 || p2 <= p1 {
		t.Error("prediction should keep moving with the estimated velocity")
	}
	if math.Abs((p2-p1)-(p1-p0)) > 0.5 {
		t.Error("coasting velocity should be constant")
	}
}

func TestAlphaBetaSmoothsNoise(t *testing.T) {
	f, err := NewAlphaBeta(0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Static target with ±4 px alternating noise: the filtered position
	// must stay closer to the truth than the raw measurements.
	var worst float64
	for i := 0; i < 100; i++ {
		noise := 4.0
		if i%2 == 0 {
			noise = -4.0
		}
		got := f.Update(100 + noise)
		if i > 20 {
			if d := math.Abs(got - 100); d > worst {
				worst = d
			}
		}
	}
	if worst >= 4 {
		t.Errorf("filtered error %v not better than raw noise 4", worst)
	}
}

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker(0.7, 0.3, 0); err == nil {
		t.Error("zero minBlob accepted")
	}
	if _, err := NewTracker(0, 0.3, 10); !errors.Is(err, ErrBadGain) {
		t.Error("bad gains accepted")
	}
}

func blobAt(w, h, cx, cy, r int) *imaging.Binary {
	b := imaging.NewBinary(w, h)
	imaging.FillDisc(b, imaging.Pointf{X: float64(cx), Y: float64(cy)}, float64(r))
	return b
}

func TestTrackerFollowsBlob(t *testing.T) {
	tr := DefaultTracker()
	for i := 0; i < 20; i++ {
		obs := tr.Step(blobAt(200, 100, 30+5*i, 50, 8))
		if !obs.Found {
			t.Fatalf("frame %d: blob not found", i)
		}
	}
	last, err := tr.Last()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(last.Smoothed.X-float64(30+5*19)) > 6 {
		t.Errorf("smoothed X = %v, want ≈ %v", last.Smoothed.X, 30+5*19)
	}
	if tr.fx.vel < 3 {
		t.Errorf("x velocity = %v, want ≈ 5", tr.fx.vel)
	}
}

func TestTrackerIgnoresSmallNoise(t *testing.T) {
	tr := DefaultTracker()
	obs := tr.Step(blobAt(100, 100, 50, 50, 2)) // ~13 px < minBlob 40
	if obs.Found {
		t.Error("tiny blob accepted as target")
	}
	if _, err := tr.ROI(4, 100, 100); !errors.Is(err, ErrNoTrack) {
		t.Error("ROI available before acquisition")
	}
}

func TestTrackerCoastsThroughOcclusion(t *testing.T) {
	tr := DefaultTracker()
	for i := 0; i < 15; i++ {
		tr.Step(blobAt(300, 100, 40+6*i, 50, 8))
	}
	// Two empty frames: the track must coast forward.
	o1 := tr.Step(imaging.NewBinary(300, 100))
	o2 := tr.Step(imaging.NewBinary(300, 100))
	if !o1.Coasting || !o2.Coasting {
		t.Fatal("coasting not flagged")
	}
	if o2.Smoothed.X <= o1.Smoothed.X {
		t.Error("coasting track did not keep moving")
	}
	roi, err := tr.ROI(5, 300, 100)
	if err != nil {
		t.Fatal(err)
	}
	if roi.Empty() {
		t.Error("coasting ROI is empty")
	}
}

func TestTrackerFootPoint(t *testing.T) {
	tr := DefaultTracker()
	// A vertical bar: foot = bottom row centre.
	b := imaging.NewBinary(60, 80)
	for y := 10; y < 70; y++ {
		for x := 28; x < 33; x++ {
			b.Set(x, y, 1)
		}
	}
	obs := tr.Step(b)
	if obs.FootY != 69 {
		t.Errorf("FootY = %v, want 69", obs.FootY)
	}
	if obs.FootX != 30 {
		t.Errorf("FootX = %v, want 30", obs.FootX)
	}
}

func TestROIClipsToFrame(t *testing.T) {
	tr := DefaultTracker()
	tr.Step(blobAt(100, 100, 5, 5, 8))
	roi, err := tr.ROI(20, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if roi.Min.X < 0 || roi.Min.Y < 0 || roi.Max.X > 100 || roi.Max.Y > 100 {
		t.Errorf("ROI %v exceeds frame", roi)
	}
}

func TestMeasureJumpOnSyntheticClip(t *testing.T) {
	// Full integration: generate a clip, extract silhouettes, track, and
	// measure the jump; the distance must match the spec's JumpSpan.
	spec := synth.DefaultSpec(21)
	clip, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := extract.NewExtractor()
	if err != nil {
		t.Fatal(err)
	}
	ex.SetBackground(clip.Background)
	tr := DefaultTracker()
	airborne := make([]bool, len(clip.Frames))
	for i, fr := range clip.Frames {
		sil, err := ex.Extract(fr.Image)
		if err != nil {
			t.Fatal(err)
		}
		tr.Step(sil)
		airborne[i] = fr.Stage == pose.StageAir
	}
	m, err := tr.MeasureJump(airborne)
	if err != nil {
		t.Fatal(err)
	}
	if m.DistancePx < spec.JumpSpan*0.6 || m.DistancePx > spec.JumpSpan*1.5 {
		t.Errorf("measured jump %v px, spec span %v", m.DistancePx, spec.JumpSpan)
	}
	if m.BodyHeights <= 0 {
		t.Error("body-height normalisation missing")
	}
	if m.TakeoffFrame >= m.LandingFrame {
		t.Error("flight boundary frames out of order")
	}
}

func TestMeasureJumpErrors(t *testing.T) {
	tr := DefaultTracker()
	tr.Step(blobAt(100, 100, 50, 50, 8))
	if _, err := tr.MeasureJump([]bool{true, true}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := tr.MeasureJump([]bool{false}); err == nil {
		t.Error("no-flight clip accepted")
	}
	if _, err := tr.MeasureJump([]bool{true}); err == nil {
		t.Error("flight at clip boundary accepted")
	}
}
