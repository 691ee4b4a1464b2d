package extract

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/imaging"
)

// makeScene builds a dark noisy background and the same background with a
// bright rectangular "object" painted over [x0,x1)×[y0,y1).
func makeScene(w, h int, seed int64, x0, y0, x1, y1 int) (bg, frame *imaging.RGB) {
	r := rand.New(rand.NewSource(seed))
	bg = imaging.NewRGB(w, h)
	for i := range bg.Pix {
		bg.Pix[i] = uint8(10 + r.Intn(12)) // dark studio backdrop with noise
	}
	frame = bg.Clone()
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			frame.Set(x, y, 200, 170, 150)
		}
	}
	return bg, frame
}

func newTestExtractor(t *testing.T, opts ...Option) *Extractor {
	t.Helper()
	e, err := NewExtractor(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestExtractRecoversObject(t *testing.T) {
	bg, frame := makeScene(64, 64, 1, 20, 12, 44, 52)
	e := newTestExtractor(t)
	e.SetBackground(bg)
	mask, err := e.Extract(frame)
	if err != nil {
		t.Fatal(err)
	}
	// Interior of the object must be foreground.
	for y := 16; y < 48; y++ {
		for x := 24; x < 40; x++ {
			if mask.At(x, y) != 1 {
				t.Fatalf("object interior (%d,%d) not extracted", x, y)
			}
		}
	}
	// Far background must be clean.
	for _, p := range []imaging.Point{{X: 2, Y: 2}, {X: 60, Y: 2}, {X: 2, Y: 60}, {X: 60, Y: 60}} {
		if mask.At(p.X, p.Y) != 0 {
			t.Errorf("background pixel %v marked foreground", p)
		}
	}
}

func TestExtractBoundsRoughlyMatchObject(t *testing.T) {
	bg, frame := makeScene(80, 60, 2, 10, 10, 30, 50)
	e := newTestExtractor(t)
	e.SetBackground(bg)
	mask, err := e.Extract(frame)
	if err != nil {
		t.Fatal(err)
	}
	b := mask.ForegroundBounds()
	// The moving average blurs edges by ~window/2 pixels; allow slack 3.
	const slack = 3
	if b.Min.X < 10-slack || b.Min.Y < 10-slack || b.Max.X > 30+slack || b.Max.Y > 50+slack {
		t.Fatalf("mask bounds %v stray too far from object [10,10)-(30,50)", b)
	}
}

func TestExtractRequiresBackground(t *testing.T) {
	e := newTestExtractor(t)
	_, err := e.Extract(imaging.NewRGB(8, 8))
	if !errors.Is(err, ErrNoBackground) {
		t.Fatalf("err = %v, want ErrNoBackground", err)
	}
}

func TestExtractDimensionMismatch(t *testing.T) {
	e := newTestExtractor(t)
	e.SetBackground(imaging.NewRGB(16, 16))
	_, err := e.Extract(imaging.NewRGB(8, 8))
	if !errors.Is(err, imaging.ErrDimensionMismatch) {
		t.Fatalf("err = %v, want ErrDimensionMismatch", err)
	}
}

func TestExtractIdenticalFrameYieldsEmptyMask(t *testing.T) {
	bg, _ := makeScene(32, 32, 3, 0, 0, 0, 0)
	e := newTestExtractor(t)
	e.SetBackground(bg)
	mask, err := e.ExtractRaw(bg.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if mask.Count() != 0 {
		t.Fatalf("identical frame produced %d foreground pixels", mask.Count())
	}
}

func TestMaxNormalizationSuppressesUniformNoise(t *testing.T) {
	// With one very bright blob, the shift-to-255 step pushes small
	// background differences below threshold even if they exceed
	// Th_Object in absolute difference terms.
	w, h := 48, 48
	bg := imaging.NewRGB(w, h)
	frame := bg.Clone()
	// Uniform mild change everywhere (e.g. lighting drift of +15/channel = D 45).
	for i := range frame.Pix {
		frame.Pix[i] += 15
	}
	// One strong object.
	for y := 10; y < 20; y++ {
		for x := 10; x < 20; x++ {
			frame.Set(x, y, 255, 255, 255)
		}
	}
	e := newTestExtractor(t, WithKeepLargestOnly(false))
	e.SetBackground(bg)
	mask, err := e.ExtractRaw(frame)
	if err != nil {
		t.Fatal(err)
	}
	if mask.At(15, 15) != 1 {
		t.Error("strong object missed")
	}
	if mask.At(40, 40) != 0 {
		t.Error("lighting drift survived max-normalisation; step vi broken")
	}
}

func TestOptionValidation(t *testing.T) {
	tests := []struct {
		name string
		opts []Option
	}{
		{"even window", []Option{WithWindow(4)}},
		{"zero window", []Option{WithWindow(0)}},
		{"window past the exact-division range", []Option{WithWindow(imaging.MaxBoxWindow + 2)}},
		{"negative threshold", []Option{WithThObject(-1)}},
		{"huge threshold", []Option{WithThObject(300)}},
		{"even median", []Option{WithMedianKernel(2)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewExtractor(tt.opts...); err == nil {
				t.Error("expected constructor error")
			}
		})
	}
}

func TestDefaults(t *testing.T) {
	e := newTestExtractor(t)
	o := e.Options()
	if o.ThObject != DefaultThObject {
		t.Errorf("ThObject = %d, want %d", o.ThObject, DefaultThObject)
	}
	if o.Window != DefaultWindow {
		t.Errorf("Window = %d, want %d", o.Window, DefaultWindow)
	}
	if o.MedianKernel != DefaultMedianKernel {
		t.Errorf("MedianKernel = %d, want %d", o.MedianKernel, DefaultMedianKernel)
	}
	if !o.KeepLargestOnly {
		t.Error("KeepLargestOnly should default to true")
	}
}

func TestSmoothingReducesHoles(t *testing.T) {
	// Build a raw-ish mask with pinholes and speckle, then check the
	// smoothing path improves both metrics — the Figure 1(b)→1(c) claim.
	r := rand.New(rand.NewSource(9))
	raw := imaging.NewBinary(60, 60)
	for y := 10; y < 50; y++ {
		for x := 20; x < 40; x++ {
			raw.Set(x, y, 1)
		}
	}
	// Punch pinholes.
	for i := 0; i < 30; i++ {
		raw.Set(20+r.Intn(20), 10+r.Intn(40), 0)
	}
	// Sprinkle speckle.
	for i := 0; i < 15; i++ {
		raw.Set(r.Intn(15), r.Intn(60), 1)
	}
	e := newTestExtractor(t)
	smooth := e.Smooth(raw)
	if got, before := imaging.CountHoles(smooth, imaging.Connect8), imaging.CountHoles(raw, imaging.Connect8); got > before {
		t.Errorf("holes increased after smoothing: %d -> %d", before, got)
	}
	_, comps := imaging.Components(smooth, imaging.Connect8)
	if len(comps) != 1 {
		t.Errorf("smoothed mask has %d components, want 1 (largest-only)", len(comps))
	}
}

func TestExtractWithStats(t *testing.T) {
	bg, frame := makeScene(64, 64, 5, 16, 16, 48, 48)
	e := newTestExtractor(t)
	e.SetBackground(bg)
	mask, st, err := e.ExtractWithStats(frame)
	if err != nil {
		t.Fatal(err)
	}
	if mask.Count() != st.SmoothPixels {
		t.Errorf("SmoothPixels = %d, mask count = %d", st.SmoothPixels, mask.Count())
	}
	if st.RawPixels == 0 {
		t.Error("RawPixels should be nonzero for a visible object")
	}
	if st.SmoothComponents != 1 {
		t.Errorf("SmoothComponents = %d, want 1", st.SmoothComponents)
	}
}

func TestHoleFillOption(t *testing.T) {
	e := newTestExtractor(t, WithFillHoles(true), WithMedianKernel(0))
	raw := imaging.FromASCII(`
#####
#...#
#####
`)
	smooth := e.Smooth(raw)
	if imaging.CountHoles(smooth, imaging.Connect8) != 0 {
		t.Error("FillHoles option left interior holes")
	}
}

func TestThresholdSensitivity(t *testing.T) {
	bg, frame := makeScene(48, 48, 7, 12, 12, 36, 36)
	lo := newTestExtractor(t, WithThObject(5), WithKeepLargestOnly(false), WithMedianKernel(0))
	hi := newTestExtractor(t, WithThObject(200), WithKeepLargestOnly(false), WithMedianKernel(0))
	lo.SetBackground(bg)
	hi.SetBackground(bg)
	mLo, err := lo.ExtractRaw(frame)
	if err != nil {
		t.Fatal(err)
	}
	mHi, err := hi.ExtractRaw(frame)
	if err != nil {
		t.Fatal(err)
	}
	if mLo.Count() < mHi.Count() {
		t.Errorf("lower threshold yielded smaller mask: %d < %d", mLo.Count(), mHi.Count())
	}
}

// TestExtractConcurrent exercises the package's concurrency contract: an
// Extractor reuses scratch buffers across frames, so concurrent workers
// each own an extractor (sharing the read-only input frames) and must all
// produce the identical silhouette.
func TestExtractConcurrent(t *testing.T) {
	bg, frame := makeScene(48, 48, 8, 12, 12, 36, 36)
	ref := newTestExtractor(t)
	ref.SetBackground(bg)
	want, err := ref.Extract(frame)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		sil *imaging.Binary
		err error
	}
	done := make(chan res)
	for i := 0; i < 8; i++ {
		e := newTestExtractor(t)
		e.SetBackground(bg)
		go func() {
			// Each worker extracts repeatedly to cycle its scratch
			// buffers and the shared imaging pool.
			var sil *imaging.Binary
			var err error
			for k := 0; k < 4 && err == nil; k++ {
				sil, err = e.Extract(frame)
			}
			done <- res{sil, err}
		}()
	}
	for i := 0; i < 8; i++ {
		r := <-done
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !r.sil.Equal(want) {
			t.Fatal("concurrent extraction differs from sequential result")
		}
	}
}

// TestExtractNoCrossFrameBleed releases a silhouette's intermediates back
// to the buffer pool and mutates a later frame's buffers; the earlier
// result must be unaffected (no aliasing between pooled frames).
func TestExtractNoCrossFrameBleed(t *testing.T) {
	bg, frameA := makeScene(48, 48, 8, 12, 12, 36, 36)
	_, frameB := makeScene(48, 48, 8, 4, 4, 20, 44)
	e := newTestExtractor(t)
	e.SetBackground(bg)
	silA, err := e.Extract(frameA)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := silA.Clone()
	// Extract more frames: these recycle the pooled intermediates silA's
	// extraction used and scribble over them.
	for k := 0; k < 3; k++ {
		silB, err := e.Extract(frameB)
		if err != nil {
			t.Fatal(err)
		}
		for i := range silB.Pix {
			silB.Pix[i] = 1 // mutate the newest result as hard as possible
		}
	}
	if !silA.Equal(snapshot) {
		t.Fatal("earlier silhouette changed after later extractions: pooled buffer aliasing")
	}
}

// UpdateBackground adapts the background model toward the current frame
// with an exponential moving average, B = (1-rate)·B + rate·F, skipping
// pixels covered by objMask (pass nil to update everywhere). This is the
// running-average adaptation of the tracking method the paper borrows
// its extraction from; it absorbs slow lighting drift that a static
// model would misclassify as foreground. No pipeline path adapts the
// background, so it lives here, with the tests that exercise it.
func (e *Extractor) UpdateBackground(frame *imaging.RGB, objMask *imaging.Binary, rate float64) error {
	if e.bgRaw == nil {
		return ErrNoBackground
	}
	if frame.W != e.width || frame.H != e.height {
		return fmt.Errorf("extract: frame %dx%d does not match background %dx%d: %w",
			frame.W, frame.H, e.width, e.height, imaging.ErrDimensionMismatch)
	}
	if objMask != nil && (objMask.W != e.width || objMask.H != e.height) {
		return fmt.Errorf("extract: mask %dx%d does not match background %dx%d: %w",
			objMask.W, objMask.H, e.width, e.height, imaging.ErrDimensionMismatch)
	}
	if rate <= 0 || rate > 1 {
		return fmt.Errorf("extract: update rate %v out of (0,1]", rate)
	}
	for p := 0; p < e.width*e.height; p++ {
		if objMask != nil && objMask.Pix[p] != 0 {
			continue
		}
		for c := 0; c < 3; c++ {
			i := 3*p + c
			old := float64(e.bgRaw.Pix[i])
			nw := float64(frame.Pix[i])
			v := old + rate*(nw-old)
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			e.bgRaw.Pix[i] = uint8(v + 0.5)
		}
	}
	e.bgAve = imaging.BoxAverageRGBInto(e.bgAve, e.bgRaw, e.opts.Window, &e.filt)
	return nil
}

func TestUpdateBackgroundAbsorbsDrift(t *testing.T) {
	// A scene with a bright object whose backdrop lighting drifts upward
	// heavily: the max-normalisation keys on the object, and once the
	// backdrop's accumulated difference comes within Th_Object of the
	// normalised range the static model grows ghost foreground. The
	// adaptive model keeps the backdrop difference near zero and stays
	// clean. (Note the extractor assumes an object is present — without
	// one, step vi normalises noise up to 255 by design.)
	w, h := 48, 48
	bg := imaging.NewRGB(w, h)
	for i := range bg.Pix {
		bg.Pix[i] = 20
	}
	paintObject := func(m *imaging.RGB) {
		for y := 10; y < 26; y++ {
			for x := 10; x < 26; x++ {
				m.Set(x, y, 230, 210, 200)
			}
		}
	}
	staticEx := newTestExtractor(t, WithKeepLargestOnly(false), WithMedianKernel(0))
	adaptEx := newTestExtractor(t, WithKeepLargestOnly(false), WithMedianKernel(0))
	staticEx.SetBackground(bg)
	adaptEx.SetBackground(bg)

	base := bg.Clone()
	var staticGhost, adaptGhost int
	for step := 0; step < 20; step++ {
		// Brighten the backdrop by 6 per channel per step.
		for i := range base.Pix {
			if int(base.Pix[i])+6 <= 255 {
				base.Pix[i] += 6
			}
		}
		frame := base.Clone()
		paintObject(frame)
		sMask, err := staticEx.ExtractRaw(frame)
		if err != nil {
			t.Fatal(err)
		}
		aMask, err := adaptEx.ExtractRaw(frame)
		if err != nil {
			t.Fatal(err)
		}
		// Ghost pixels: foreground outside the true object box.
		ghost := func(m *imaging.Binary) int {
			n := 0
			for _, p := range m.Points() {
				if p.X < 8 || p.X > 28 || p.Y < 8 || p.Y > 28 {
					n++
				}
			}
			return n
		}
		staticGhost += ghost(sMask)
		adaptGhost += ghost(aMask)
		if err := adaptEx.UpdateBackground(frame, aMask, 0.6); err != nil {
			t.Fatal(err)
		}
	}
	if staticGhost == 0 {
		t.Fatal("scenario too mild: static model grew no ghost at all")
	}
	if adaptGhost*5 >= staticGhost {
		t.Errorf("adaptive ghost pixels %d not clearly fewer than static %d", adaptGhost, staticGhost)
	}
}

func TestUpdateBackgroundSkipsMaskedObject(t *testing.T) {
	bg, frame := makeScene(48, 48, 11, 12, 12, 36, 36)
	e := newTestExtractor(t)
	e.SetBackground(bg)
	mask, err := e.Extract(frame)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Background()
	if err := e.UpdateBackground(frame, mask, 1.0); err != nil {
		t.Fatal(err)
	}
	after := e.Background()
	// Pixels under the object mask must be unchanged; a pixel well
	// inside the object is (24,24).
	i := 3 * (24*48 + 24)
	if mask.At(24, 24) == 1 && before.Pix[i] != after.Pix[i] {
		t.Error("masked object pixel was blended into the background")
	}
	// An unmasked far corner adopts the frame value at rate 1.
	j := 3 * (2*48 + 2)
	if after.Pix[j] != frame.Pix[j] {
		t.Errorf("unmasked pixel not updated: %d vs frame %d", after.Pix[j], frame.Pix[j])
	}
}

func TestUpdateBackgroundValidation(t *testing.T) {
	e := newTestExtractor(t)
	if err := e.UpdateBackground(imaging.NewRGB(8, 8), nil, 0.5); !errors.Is(err, ErrNoBackground) {
		t.Errorf("err = %v, want ErrNoBackground", err)
	}
	e.SetBackground(imaging.NewRGB(16, 16))
	if err := e.UpdateBackground(imaging.NewRGB(8, 8), nil, 0.5); !errors.Is(err, imaging.ErrDimensionMismatch) {
		t.Errorf("frame mismatch err = %v", err)
	}
	if err := e.UpdateBackground(imaging.NewRGB(16, 16), imaging.NewBinary(8, 8), 0.5); !errors.Is(err, imaging.ErrDimensionMismatch) {
		t.Errorf("mask mismatch err = %v", err)
	}
	if err := e.UpdateBackground(imaging.NewRGB(16, 16), nil, 0); err == nil {
		t.Error("zero rate accepted")
	}
	if err := e.UpdateBackground(imaging.NewRGB(16, 16), nil, 1.5); err == nil {
		t.Error("rate > 1 accepted")
	}
}

func TestBackgroundAccessor(t *testing.T) {
	e := newTestExtractor(t)
	if e.Background() != nil {
		t.Error("Background before SetBackground should be nil")
	}
	bg := imaging.NewRGB(8, 8)
	bg.Set(3, 3, 9, 9, 9)
	e.SetBackground(bg)
	got := e.Background()
	r, _, _ := got.At(3, 3)
	if r != 9 {
		t.Error("Background copy mismatch")
	}
	got.Set(3, 3, 0, 0, 0) // mutating the copy must not affect the model
	again := e.Background()
	if r, _, _ := again.At(3, 3); r != 9 {
		t.Error("Background returned an aliased buffer")
	}
}

func TestWindowOneSkipsAveraging(t *testing.T) {
	bg, frame := makeScene(32, 32, 31, 8, 8, 24, 24)
	e := newTestExtractor(t, WithWindow(1), WithMedianKernel(0), WithKeepLargestOnly(false))
	e.SetBackground(bg)
	mask, err := e.ExtractRaw(frame)
	if err != nil {
		t.Fatal(err)
	}
	if mask.At(16, 16) != 1 {
		t.Error("object missed with window 1")
	}
	// With no averaging, the mask edges are crisp: the exact object
	// boundary pixels are foreground, their outside neighbours are not.
	if mask.At(7, 16) == 1 {
		t.Error("window-1 mask bled outside the object")
	}
}
