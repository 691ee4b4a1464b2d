// Package extract implements the object-extraction stage of Section 2 of
// the paper: a background-subtraction algorithm adapted from
// Polmottawegedara et al. ("Tracking Moving Targets", SSST 2006), followed
// by median-filter smoothing of the silhouette.
//
// The algorithm, for an N×N input frame (steps i–viii of the paper):
//
//	 i. average the background frame B over an n×n moving window → B_ave
//	ii. average the frame with the moving object A the same way → A_ave
//	iii. C = A_ave − B_ave (per channel, signed)
//	iv. D(i,j) = |C(i,j,R)| + |C(i,j,G)| + |C(i,j,B)|
//	 v. find max(D)
//	vi. shift every pixel so that max becomes 255
//	vii. clamp negatives to zero → R
//	viii. Obj(i,j) = 1 if R(i,j) > Th_Object else 0
//
// with Th_Object = 20 in the paper.
package extract

import (
	"errors"
	"fmt"

	"repro/internal/imaging"
	"repro/internal/obs"
)

// DefaultThObject is the paper's foreground threshold (step viii).
const DefaultThObject = 20

// DefaultWindow is the moving-average window size n. The paper leaves n
// unspecified; 3 is the smallest odd window that still suppresses
// single-pixel sensor noise.
const DefaultWindow = 3

// DefaultMedianKernel is the kernel used to smooth the raw silhouette into
// Figure 1(c).
const DefaultMedianKernel = 3

// ErrNoBackground reports extraction attempted before a background model
// was installed.
var ErrNoBackground = errors.New("extract: no background frame set")

// Options configures an Extractor. The zero value is NOT ready to use;
// construct with NewExtractor which applies defaults.
type Options struct {
	// ThObject is the foreground threshold of step viii (paper: 20).
	ThObject int
	// Window is the odd moving-average window size n of steps i–ii, at
	// most imaging.MaxBoxWindow.
	Window int
	// MedianKernel is the odd kernel size for silhouette smoothing;
	// 0 disables smoothing (yields Figure 1(b) instead of 1(c)).
	MedianKernel int
	// KeepLargestOnly retains only the largest connected foreground
	// region, isolating the jumper from residual speckle.
	KeepLargestOnly bool
	// FillHoles fills interior holes of the silhouette after smoothing.
	// The paper relies on the median filter alone; hole filling is an
	// optional robustness extension used by some experiments.
	FillHoles bool
}

// Option mutates Options; pass to NewExtractor.
type Option func(*Options)

// WithThObject overrides the foreground threshold.
func WithThObject(th int) Option { return func(o *Options) { o.ThObject = th } }

// WithWindow overrides the moving-average window size (odd, 1 to
// imaging.MaxBoxWindow).
func WithWindow(n int) Option { return func(o *Options) { o.Window = n } }

// WithMedianKernel overrides the smoothing kernel (odd, >= 1; 0 disables).
func WithMedianKernel(k int) Option { return func(o *Options) { o.MedianKernel = k } }

// WithKeepLargestOnly toggles largest-component isolation.
func WithKeepLargestOnly(v bool) Option { return func(o *Options) { o.KeepLargestOnly = v } }

// WithFillHoles toggles interior hole filling.
func WithFillHoles(v bool) Option { return func(o *Options) { o.FillHoles = v } }

// Extractor segments the jumper's silhouette from frames against a fixed
// studio background. It is NOT safe for concurrent use: the hot path
// reuses per-extractor scratch buffers across frames (the filter column
// sums, one averaged row and the difference map), so concurrent workers
// must each own an Extractor — the slj.Engine worker pool does exactly
// that.
type Extractor struct {
	opts   Options
	bgRaw  *imaging.RGB // the background model itself (B)
	bgAve  *imaging.RGB // pre-averaged background (B_ave)
	width  int
	height int

	// Scratch reused across frames so steady-state extraction allocates
	// only its final silhouette.
	filt imaging.FilterScratch    // column sums of the box average and the median
	row  []uint8                  // one averaged row of the input frame (A_ave)
	d    []uint16                 // steps iii–iv absolute-difference sums, at most 3·255
	dMax []uint16                 // the largest of each row of d
	comp imaging.ComponentScratch // largest-component labelling state (Smooth)

	// sc times the detect/smooth stages; nil disables.
	sc *obs.Scope
}

// grabU16 resizes buf to n elements, reallocating only on capacity
// growth. Contents are unspecified; callers overwrite them.
func grabU16(buf []uint16, n int) []uint16 {
	if cap(buf) < n {
		return make([]uint16, n) //slj:alloc-ok scratch regrow on first use or a larger frame, amortised across frames
	}
	return buf[:n]
}

// check validates the background model and frame dimensions.
func (e *Extractor) check(frame *imaging.RGB) error {
	if e.bgAve == nil {
		return ErrNoBackground
	}
	if frame.W != e.width || frame.H != e.height {
		return fmt.Errorf("extract: frame %dx%d does not match background %dx%d: %w", //slj:alloc-ok cold error path, mismatched frame is rejected
			frame.W, frame.H, e.width, e.height, imaging.ErrDimensionMismatch)
	}
	return nil
}

// NewExtractor returns an extractor with the paper's defaults applied and
// any options layered on top.
func NewExtractor(opts ...Option) (*Extractor, error) {
	o := Options{
		ThObject:        DefaultThObject,
		Window:          DefaultWindow,
		MedianKernel:    DefaultMedianKernel,
		KeepLargestOnly: true,
	}
	for _, fn := range opts {
		fn(&o)
	}
	if o.Window < 1 || o.Window%2 == 0 || o.Window > imaging.MaxBoxWindow {
		return nil, fmt.Errorf("extract: window %d must be odd, positive and at most %d", o.Window, imaging.MaxBoxWindow)
	}
	if o.MedianKernel < 0 || (o.MedianKernel > 0 && o.MedianKernel%2 == 0) {
		return nil, fmt.Errorf("extract: median kernel %d must be odd or zero", o.MedianKernel)
	}
	if o.ThObject < 0 || o.ThObject > 255 {
		return nil, fmt.Errorf("extract: threshold %d out of [0,255]", o.ThObject)
	}
	return &Extractor{opts: o}, nil
}

// Options returns a copy of the effective configuration.
func (e *Extractor) Options() Options { return e.opts }

// SetScope attaches an observability scope: Extract times its
// background-subtraction and smoothing phases into the detect and
// smooth stage histograms. A nil scope (the default) disables timing.
// Extractors are per-worker, so no synchronisation is needed.
func (e *Extractor) SetScope(sc *obs.Scope) { e.sc = sc }

// SetBackground installs the clean background frame B and pre-computes its
// moving-window average B_ave (step i). It must be called before Extract.
func (e *Extractor) SetBackground(bg *imaging.RGB) {
	e.bgRaw = bg.Clone()
	e.bgAve = imaging.BoxAverageRGB(bg, e.opts.Window)
	e.width, e.height = bg.W, bg.H
}

// Background returns a copy of the current background model, or nil when
// none is set.
func (e *Extractor) Background() *imaging.RGB {
	if e.bgRaw == nil {
		return nil
	}
	return e.bgRaw.Clone()
}

// Extract segments the moving object in frame, returning the smoothed
// silhouette. The frame must match the background dimensions.
//
//slj:hotpath
func (e *Extractor) Extract(frame *imaging.RGB) (*imaging.Binary, error) {
	if err := e.check(frame); err != nil {
		return nil, err
	}
	// The raw mask is an intermediate consumed by Smooth; run it through
	// the buffer pool so per-frame extraction stops churning the
	// allocator. When Smooth is a no-op the pooled buffer escapes to the
	// caller, which simply removes it from pool custody.
	sp := e.sc.Start(obs.StageDetect)
	raw := imaging.GetBinary(e.width, e.height)
	e.extractRawInto(frame, raw)
	sp.End()
	sp = e.sc.Start(obs.StageSmooth)
	out := e.Smooth(raw)
	sp.End()
	if out != raw {
		imaging.PutBinary(raw)
	}
	return out, nil
}

// ExtractRaw runs steps i–viii only, returning the unsmoothed silhouette of
// Figure 1(b).
func (e *Extractor) ExtractRaw(frame *imaging.RGB) (*imaging.Binary, error) {
	if err := e.check(frame); err != nil {
		return nil, err
	}
	out := imaging.NewBinary(e.width, e.height)
	e.extractRawInto(frame, out)
	return out, nil
}

// extractRawInto runs steps i–viii of the Section 2 algorithm into a
// zeroed full-frame mask, reusing the extractor's scratch buffers. The
// caller has already validated the frame.
//
// Step ii streams A_ave one row at a time (imaging.FilterScratch.BoxRow),
// and steps iii–v consume each averaged row while it is in cache: the
// row's |A_ave − B_ave| sums go into d and the row's maximum into dMax,
// so no full-frame A_ave is stored. Steps vi–viii are then one pass over
// the rows of d whose maximum passes the threshold; the mask's other rows
// stay zero. With shift = max − 255, clamp(D − shift, 0) > Th_Object is
// the same test as D > Th_Object + shift, because Th_Object >= 0 makes
// every clamped pixel fail both.
func (e *Extractor) extractRawInto(frame *imaging.RGB, out *imaging.Binary) {
	w, h := e.width, e.height
	e.d, e.dMax = grabU16(e.d, w*h), grabU16(e.dMax, h)
	d, dMax := e.d, e.dMax
	if cap(e.row) < 3*w {
		e.row = make([]uint8, 3*w) //slj:alloc-ok row scratch regrow on first use or a wider frame, amortised across frames
	}
	row := e.row[:3*w]
	maxD := uint16(0)
	for y := 0; y < h; y++ {
		// Step ii: average the object frame, one row.
		e.filt.BoxRow(row, frame, e.opts.Window, y)
		// Steps iii–iv: D = sum of per-channel absolute differences.
		bg := e.bgAve.Pix[3*y*w : 3*(y+1)*w]
		dr := d[y*w : (y+1)*w]
		rowMax := uint16(0)
		for x := range dr {
			i := 3 * x
			sum := absDiff(row[i], bg[i]) + absDiff(row[i+1], bg[i+1]) + absDiff(row[i+2], bg[i+2])
			dr[x] = sum
			rowMax = max(rowMax, sum)
		}
		dMax[y] = rowMax
		maxD = max(maxD, rowMax)
	}

	// Steps v–viii. When the frame equals the background, maxD is 0 and
	// the shift would brighten pure noise to 255; guard by emitting an
	// empty mask.
	if maxD == 0 {
		return
	}
	th := e.opts.ThObject + int(maxD) - 255
	for y, m := range dMax {
		if int(m) <= th {
			continue
		}
		mask := out.Pix[y*w : (y+1)*w]
		for x, v := range d[y*w : (y+1)*w] {
			if int(v) > th {
				mask[x] = 1
			}
		}
	}
}

// absDiff returns |a − b| without a branch: the sign of a noisy
// difference is unpredictable.
func absDiff(a, b uint8) uint16 {
	d := int32(a) - int32(b)
	m := d >> 31
	return uint16((d ^ m) - m)
}

// Smooth applies the configured silhouette post-processing (median filter,
// optional hole fill, optional largest-component isolation) to a raw mask,
// producing Figure 1(c). The returned image is always freshly owned by the
// caller (or raw itself when every step is disabled); intermediates are
// recycled through the imaging buffer pool.
func (e *Extractor) Smooth(raw *imaging.Binary) *imaging.Binary {
	cur := raw
	// step installs the next intermediate and releases the previous one,
	// except raw itself, which the caller owns.
	step := func(next *imaging.Binary) {
		if cur != raw {
			imaging.PutBinary(cur)
		}
		cur = next
	}
	if e.opts.MedianKernel > 0 {
		//slj:pool-escapes MedianFilterBinaryInto returns dst; a later step (or the caller) Puts it
		step(imaging.MedianFilterBinaryInto(imaging.GetBinary(cur.W, cur.H), cur, e.opts.MedianKernel, &e.filt))
	}
	if e.opts.FillHoles {
		step(imaging.FillHoles(cur, imaging.Connect8)) //slj:alloc-ok hole filling is opt-in (off by default); its flood scratch sits outside the zero-alloc contract
	}
	if e.opts.KeepLargestOnly {
		//slj:pool-escapes LargestComponentInto returns its dst; a later step (or the caller) Puts it
		step(imaging.LargestComponentInto(imaging.GetBinary(cur.W, cur.H), cur, imaging.Connect8, &e.comp))
	}
	return cur
}

// Stats summarises one extraction for the Figure 1 experiment.
type Stats struct {
	// RawPixels and SmoothPixels are the foreground areas before and
	// after smoothing.
	RawPixels, SmoothPixels int
	// RawHoles and SmoothHoles count interior holes before and after.
	RawHoles, SmoothHoles int
	// RawComponents and SmoothComponents count connected regions.
	RawComponents, SmoothComponents int
}

// ExtractWithStats runs the full pipeline and reports quality metrics of
// the raw versus smoothed silhouettes.
func (e *Extractor) ExtractWithStats(frame *imaging.RGB) (*imaging.Binary, Stats, error) {
	raw, err := e.ExtractRaw(frame)
	if err != nil {
		return nil, Stats{}, err
	}
	smooth := e.Smooth(raw)
	var st Stats
	st.RawPixels = raw.Count()
	st.SmoothPixels = smooth.Count()
	st.RawHoles = imaging.CountHoles(raw, imaging.Connect8)
	st.SmoothHoles = imaging.CountHoles(smooth, imaging.Connect8)
	_, rc := imaging.Components(raw, imaging.Connect8)
	_, sc := imaging.Components(smooth, imaging.Connect8)
	st.RawComponents = len(rc)
	st.SmoothComponents = len(sc)
	return smooth, st, nil
}
