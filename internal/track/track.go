// Package track implements the human-detection half of the paper's
// part 1: following the jumper across frames. The extraction algorithm
// of Section 2 is adapted from an object-*tracking* method
// (Polmottawegedara et al., "Tracking Moving Targets", SSST 2006), and a
// practical system needs the track itself — to crop a region of
// interest, to tell the jumper from transient noise, and to measure the
// jump: the horizontal distance between the take-off and landing foot
// positions is the score every PE teacher records.
//
// The tracker is deliberately classical (2008-appropriate): per-frame
// blob detection from the extracted silhouette plus an alpha-beta
// (g-h) filter per axis for smoothing and short-occlusion prediction.
package track

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/imaging"
)

// Errors.
var (
	// ErrNoTrack reports queries against a tracker that has never seen
	// the target.
	ErrNoTrack = errors.New("track: no target acquired")
	// ErrBadGain reports filter gains outside (0, 1].
	ErrBadGain = errors.New("track: filter gains must lie in (0, 1]")
)

// AlphaBeta is a one-dimensional alpha-beta (g-h) tracking filter:
// a fixed-gain steady-state Kalman filter for a constant-velocity
// target. The zero value is not ready; use NewAlphaBeta.
type AlphaBeta struct {
	alpha, beta float64
	pos, vel    float64
	initialized bool
}

// NewAlphaBeta returns a filter with the given gains. Typical smoothing
// gains are alpha ≈ 0.5–0.9, beta ≈ 0.1–0.5.
func NewAlphaBeta(alpha, beta float64) (*AlphaBeta, error) {
	if alpha <= 0 || alpha > 1 || beta <= 0 || beta > 1 {
		return nil, fmt.Errorf("%w: alpha=%v beta=%v", ErrBadGain, alpha, beta)
	}
	return &AlphaBeta{alpha: alpha, beta: beta}, nil
}

// Update folds one measurement in (dt = 1 frame) and returns the
// filtered position.
func (f *AlphaBeta) Update(measured float64) float64 {
	if !f.initialized {
		f.pos, f.vel, f.initialized = measured, 0, true
		return f.pos
	}
	// Predict.
	pred := f.pos + f.vel
	// Correct.
	r := measured - pred
	f.pos = pred + f.alpha*r
	f.vel += f.beta * r
	return f.pos
}

// Predict advances the filter one frame without a measurement (occlusion
// coasting) and returns the predicted position.
func (f *AlphaBeta) Predict() float64 {
	if !f.initialized {
		return 0
	}
	f.pos += f.vel
	return f.pos
}

// Position returns the current filtered position.
func (f *AlphaBeta) Position() float64 { return f.pos }

// Initialized reports whether the filter has seen a measurement.
func (f *AlphaBeta) Initialized() bool { return f.initialized }

// Observation is one frame's detection summary.
type Observation struct {
	// Found reports whether the jumper was detected this frame.
	Found bool
	// Centroid is the raw blob centroid.
	Centroid imaging.Pointf
	// Smoothed is the alpha-beta-filtered centroid.
	Smoothed imaging.Pointf
	// Bounds is the blob's bounding box.
	Bounds imaging.Rect
	// FootX, FootY locate the lowest silhouette point (the foot line),
	// used for jump-distance measurement.
	FootX, FootY float64
	// Coasting reports the track was predicted, not measured.
	Coasting bool
}

// Tracker follows the largest silhouette blob across frames.
type Tracker struct {
	fx, fy   *AlphaBeta
	minBlob  int
	last     Observation
	acquired bool
	// History keeps one observation per processed frame.
	History []Observation
}

// NewTracker builds a tracker. minBlob is the minimum foreground pixel
// count to accept a detection (rejects noise bursts); gains follow
// NewAlphaBeta.
func NewTracker(alpha, beta float64, minBlob int) (*Tracker, error) {
	fx, err := NewAlphaBeta(alpha, beta)
	if err != nil {
		return nil, err
	}
	fy, err := NewAlphaBeta(alpha, beta)
	if err != nil {
		return nil, err
	}
	if minBlob < 1 {
		return nil, fmt.Errorf("track: minBlob %d must be positive", minBlob)
	}
	return &Tracker{fx: fx, fy: fy, minBlob: minBlob}, nil
}

// DefaultTracker returns a tracker with standard gains.
func DefaultTracker() *Tracker {
	t, err := NewTracker(0.7, 0.3, 40)
	if err != nil {
		panic("track: default gains invalid: " + err.Error())
	}
	return t
}

// Step processes one silhouette frame and returns the observation.
func (t *Tracker) Step(sil *imaging.Binary) Observation {
	obs := t.detect(sil)
	if obs.Found {
		obs.Smoothed.X = t.fx.Update(obs.Centroid.X)
		obs.Smoothed.Y = t.fy.Update(obs.Centroid.Y)
		t.acquired = true
	} else if t.acquired {
		obs.Smoothed.X = t.fx.Predict()
		obs.Smoothed.Y = t.fy.Predict()
		obs.Coasting = true
	}
	t.last = obs
	t.History = append(t.History, obs)
	return obs
}

// detect finds the largest blob and its foot point.
func (t *Tracker) detect(sil *imaging.Binary) Observation {
	labels, comps := imaging.Components(sil, imaging.Connect8)
	best := -1
	for i, c := range comps {
		if c.Size >= t.minBlob && (best < 0 || c.Size > comps[best].Size) {
			best = i
		}
	}
	if best < 0 {
		return Observation{}
	}
	c := comps[best]
	want := int32(c.Label)
	var sumX, sumY, n float64
	footY := -1
	footXSum, footXN := 0.0, 0.0
	for y := c.Bounds.Min.Y; y < c.Bounds.Max.Y; y++ {
		for x := c.Bounds.Min.X; x < c.Bounds.Max.X; x++ {
			if labels[y*sil.W+x] != want {
				continue
			}
			sumX += float64(x)
			sumY += float64(y)
			n++
			if y > footY {
				footY = y
				footXSum, footXN = float64(x), 1
			} else if y == footY {
				footXSum += float64(x)
				footXN++
			}
		}
	}
	return Observation{
		Found:    true,
		Centroid: imaging.Pointf{X: sumX / n, Y: sumY / n},
		Bounds:   c.Bounds,
		FootX:    footXSum / footXN,
		FootY:    float64(footY),
	}
}

// Last returns the most recent observation.
func (t *Tracker) Last() (Observation, error) {
	if len(t.History) == 0 {
		return Observation{}, ErrNoTrack
	}
	return t.last, nil
}

// ROI returns the last bounding box expanded by margin pixels and
// clipped to a w×h frame — the crop window for the next frame's
// extraction.
func (t *Tracker) ROI(margin, w, h int) (imaging.Rect, error) {
	if !t.acquired {
		return imaging.Rect{}, ErrNoTrack
	}
	b := t.last.Bounds
	if t.last.Coasting || !t.last.Found {
		// Centre a window of the last box size on the predicted
		// position.
		cw, ch := b.Dx(), b.Dy()
		cx, cy := int(t.fx.Position()), int(t.fy.Position())
		b = imaging.NewRect(cx-cw/2, cy-ch/2, cx+cw/2, cy+ch/2)
	}
	r := imaging.NewRect(b.Min.X-margin, b.Min.Y-margin, b.Max.X+margin, b.Max.Y+margin)
	return r.Intersect(imaging.NewRect(0, 0, w, h)), nil
}

// JumpMeasurement is the geometric outcome of a tracked jump.
type JumpMeasurement struct {
	// TakeoffX and LandingX are the foot positions at the last grounded
	// frame before flight and the first grounded frame after it.
	TakeoffX, LandingX float64
	// DistancePx is the horizontal jump length in pixels.
	DistancePx float64
	// BodyHeights is the jump length in units of the jumper's standing
	// height (bounding-box height of the first frame), the
	// scale-invariant score.
	BodyHeights float64
	// TakeoffFrame and LandingFrame index the flight boundary frames.
	TakeoffFrame, LandingFrame int
}

// AirborneFlags derives per-frame airborne indicators from the tracked
// foot height: the ground line is the lowest foot position seen, and a
// frame is airborne when the foot is more than margin pixels above it.
// This is classifier-independent, so jump measurement works even when
// pose recognition is noisy.
func (t *Tracker) AirborneFlags(margin float64) []bool {
	ground := math.Inf(-1)
	for _, o := range t.History {
		if o.Found && o.FootY > ground {
			ground = o.FootY
		}
	}
	out := make([]bool, len(t.History))
	if math.IsInf(ground, -1) {
		return out
	}
	for i, o := range t.History {
		out[i] = o.Found && o.FootY < ground-margin
	}
	return out
}

// DefaultAirborneMargin is the foot-height threshold for AirborneFlags.
const DefaultAirborneMargin = 5.0

// MeasureJump estimates the jump distance from the tracked history and
// the per-frame airborne flags (true while the jumper is in flight —
// derivable from the ground-truth stage or from the recognised poses).
func (t *Tracker) MeasureJump(airborne []bool) (JumpMeasurement, error) {
	if len(airborne) != len(t.History) {
		return JumpMeasurement{}, fmt.Errorf("track: %d airborne flags for %d observations",
			len(airborne), len(t.History))
	}
	// Use the LONGEST consecutive airborne run: isolated flags from
	// noisy foot-bottom detection (a shadowed heel, a clipped toe) must
	// not be mistaken for the flight phase.
	first, last := -1, -1
	runStart := -1
	for i := 0; i <= len(airborne); i++ {
		if i < len(airborne) && airborne[i] {
			if runStart < 0 {
				runStart = i
			}
			continue
		}
		if runStart >= 0 {
			if first < 0 || i-runStart > last-first+1 {
				first, last = runStart, i-1
			}
			runStart = -1
		}
	}
	if first <= 0 || last >= len(airborne)-1 || last < first {
		return JumpMeasurement{}, errors.New("track: no complete flight phase in clip")
	}
	to := t.History[first-1]
	ld := t.History[last+1]
	if !to.Found || !ld.Found {
		return JumpMeasurement{}, errors.New("track: flight boundary frames lack detections")
	}
	m := JumpMeasurement{
		TakeoffX:     to.FootX,
		LandingX:     ld.FootX,
		DistancePx:   math.Abs(ld.FootX - to.FootX),
		TakeoffFrame: first - 1,
		LandingFrame: last + 1,
	}
	if h := t.History[0].Bounds.Dy(); t.History[0].Found && h > 0 {
		m.BodyHeights = m.DistancePx / float64(h)
	}
	return m, nil
}
