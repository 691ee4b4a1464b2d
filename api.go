package slj

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/dbn"
	"repro/internal/extract"
	"repro/internal/ga"
	"repro/internal/imaging"
	"repro/internal/keypoint"
	"repro/internal/obs"
	"repro/internal/pose"
	"repro/internal/scoring"
	"repro/internal/skelgraph"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/thinning"
	"repro/internal/track"
)

// Re-exported domain types, so the public API is usable without importing
// the internal packages directly.
type (
	// Pose is one of the 22 defined poses (or PoseUnknown).
	Pose = pose.Pose
	// Stage is one of the four jump stages.
	Stage = pose.Stage
	// KeyPoints are the five located body key points plus the waist.
	KeyPoints = keypoint.KeyPoints
	// Encoding is the Figure 6 area feature vector.
	Encoding = keypoint.Encoding
	// Result is one frame's classification.
	Result = dbn.Result
	// Report is a scored coaching report.
	Report = scoring.Report
	// Summary is the per-clip accuracy table.
	Summary = stats.Summary
	// Confusion is the pose confusion matrix.
	Confusion = stats.Confusion
	// Dataset is a train/test split of labelled clips.
	Dataset = dataset.Dataset
	// LabeledClip is one named clip with ground truth.
	LabeledClip = dataset.LabeledClip
	// Clip is a generated video clip.
	Clip = synth.Clip
	// Frame is one clip frame.
	Frame = synth.Frame
	// RGB is a colour image.
	RGB = imaging.RGB
	// Binary is a bi-level image.
	Binary = imaging.Binary
	// ClassifierConfig tunes the DBN bank.
	ClassifierConfig = dbn.Config
	// GAConfig tunes the GA stick-model front end.
	GAConfig = ga.Config
)

// ErrNoBackground is returned when frames are analysed before a
// background is installed.
var ErrNoBackground = extract.ErrNoBackground

// FrontEnd selects how key points are derived from a silhouette.
type FrontEnd int

// Front-end choices.
const (
	// FrontEndThinning is the paper's pipeline: Z-S thinning → skeleton
	// graph → key points.
	FrontEndThinning FrontEnd = iota + 1
	// FrontEndGA is the authors' previous system: genetic-algorithm
	// stick-model fitting → key points. Far slower (the paper's reason
	// for abandoning it); exposed for the end-to-end comparison of
	// experiment EXT7.
	FrontEndGA
)

// Options configures a System.
type Options struct {
	// Partitions is the number of feature-encoding areas (paper: 8).
	Partitions int
	// Rings is the number of radial feature bands (0 = paper default,
	// radial features off); see keypoint.EncodeRadial.
	Rings int
	// PruneLen is the noisy-branch threshold in skeleton vertices
	// (paper: 10).
	PruneLen int
	// Thinning selects the skeletonisation algorithm (paper: Z-S).
	Thinning thinning.Algorithm
	// Extractor options forwarded to the Section 2 extractor.
	Extractor []extract.Option
	// Classifier tunes the DBN bank; zero value means DefaultConfig
	// with Partitions synchronised.
	Classifier *dbn.Config
	// UseGroundTruthSilhouettes skips the Section 2 extractor and feeds
	// the clip's noise-free silhouettes into thinning — an ablation to
	// separate extraction errors from skeleton/DBN errors.
	UseGroundTruthSilhouettes bool
	// FrontEnd selects thinning (paper) or the GA stick-model fitter
	// (previous work).
	FrontEnd FrontEnd
	// AutoOrient detects the jump direction from the silhouette drift
	// and mirrors right-to-left clips so the classifier always sees a
	// left-to-right jump. The paper fixes the camera "from the left-hand
	// side of the jumper"; this option removes that constraint.
	AutoOrient bool
	// GA tunes the GA front end; zero fields take package ga defaults.
	GA ga.Config
	// Scope instruments the pipeline (per-stage latency histograms,
	// health counters, span tracing — see internal/obs and DESIGN.md §9).
	// nil (the default) disables all instrumentation at zero cost and
	// leaves outputs bit-identical.
	Scope *obs.Scope
}

// Option mutates Options.
type Option func(*Options)

// WithPartitions sets the feature-encoding area count.
func WithPartitions(n int) Option { return func(o *Options) { o.Partitions = n } }

// WithRings enables the radial-feature extension with n distance bands.
func WithRings(n int) Option { return func(o *Options) { o.Rings = n } }

// WithPruneLen sets the noisy-branch pruning threshold.
func WithPruneLen(n int) Option { return func(o *Options) { o.PruneLen = n } }

// WithThinning selects the thinning algorithm.
func WithThinning(a thinning.Algorithm) Option { return func(o *Options) { o.Thinning = a } }

// WithExtractorOptions forwards options to the object extractor.
func WithExtractorOptions(opts ...extract.Option) Option {
	return func(o *Options) { o.Extractor = append(o.Extractor, opts...) }
}

// WithClassifierConfig replaces the DBN configuration.
func WithClassifierConfig(cfg dbn.Config) Option {
	return func(o *Options) { o.Classifier = &cfg }
}

// WithGroundTruthSilhouettes toggles the extraction-bypass ablation.
func WithGroundTruthSilhouettes(v bool) Option {
	return func(o *Options) { o.UseGroundTruthSilhouettes = v }
}

// WithFrontEnd selects the skeleton front end (thinning or GA).
func WithFrontEnd(fe FrontEnd) Option { return func(o *Options) { o.FrontEnd = fe } }

// WithAutoOrient toggles automatic jump-direction normalisation.
func WithAutoOrient(v bool) Option { return func(o *Options) { o.AutoOrient = v } }

// WithGAConfig tunes the GA front end.
func WithGAConfig(cfg ga.Config) Option { return func(o *Options) { o.GA = cfg } }

// WithObservability attaches an observability scope (see internal/obs):
// stage spans, health counters and — through the scope's registry —
// expvar/JSON metric export. A nil scope is valid and means "off".
func WithObservability(sc *obs.Scope) Option { return func(o *Options) { o.Scope = sc } }

// FrameAnalysis is everything the vision front end derives from a frame.
//
// Ownership: Silhouette, Skeleton, Graph and the slices reachable from
// them live in the System's frame arena and are valid only until the
// NEXT Analyze*/Classify*/Train* call on the same System (or on the
// Engine worker that produced them). Copy what must outlive the next
// frame. KeyPoints and Encoding are self-contained values and always
// safe to retain.
type FrameAnalysis struct {
	// Silhouette is the extracted (or ground-truth) figure mask.
	Silhouette *imaging.Binary
	// Skeleton is the cleaned skeleton rasterised back to an image.
	Skeleton *imaging.Binary
	// Graph is the pruned skeleton graph.
	Graph *skelgraph.Graph
	// KeyPoints are the located body key points; valid only when
	// KeyPointsOK.
	KeyPoints keypoint.KeyPoints
	// KeyPointsOK reports whether key-point extraction succeeded.
	KeyPointsOK bool
	// Encoding is the feature vector (all-zero areas when key points
	// failed, which the classifier treats as an unrecognisable frame).
	Encoding keypoint.Encoding
}

// System is the full paper pipeline: extraction → skeleton → key points →
// DBN classification → scoring. A System owns one frame arena and
// analyses one frame at a time, so the FrameAnalysis products of its
// Analyze* methods are valid only until its next call (see
// FrameAnalysis); an Engine runs one System per worker.
type System struct {
	opts       Options
	extractor  *extract.Extractor
	classifier *dbn.Classifier

	// scratch is the System's frame arena; one System analyses one frame
	// at a time, so it needs no locking.
	scratch *frameScratch
}

// frameScratch bundles the per-worker arenas of the frame hot path:
// the skeleton-graph arena, the key-point arena, the reused skeleton
// rasterisation image, and the previous frame's extractor-owned
// silhouette awaiting return to the imaging pool.
type frameScratch struct {
	graph    *skelgraph.Scratch
	kp       *keypoint.Scratch
	skeleton *imaging.Binary
	prevSil  *imaging.Binary
}

// newFrameScratch acquires the arenas. They stay with the System for its
// lifetime; a System has no Close, so they are recycled by the GC rather
// than returned to the arena pools.
//
//slj:hotpath
func newFrameScratch() *frameScratch {
	//slj:pool-escapes the arenas live for the owning System's lifetime
	return &frameScratch{graph: skelgraph.GetScratch(), kp: keypoint.GetScratch()} //slj:alloc-ok one-time arena acquisition per System, not per frame
}

// skeletonInto returns the reused w×h rasterisation target, zeroed.
//
//slj:hotpath
func (fs *frameScratch) skeletonInto(w, h int) *imaging.Binary {
	if fs.skeleton == nil {
		fs.skeleton = imaging.NewBinary(w, h)
	} else {
		fs.skeleton.Reset(w, h)
	}
	return fs.skeleton
}

// retire returns the previous frame's extractor-produced silhouette to
// the imaging pool and records sil as the new outstanding one. Only
// extractor-owned silhouettes may pass through here — never dataset-owned
// ground-truth masks.
//
//slj:hotpath
func (fs *frameScratch) retire(sil *imaging.Binary) {
	if fs.prevSil != nil {
		imaging.PutBinary(fs.prevSil)
	}
	fs.prevSil = sil
}

// NewSystem builds a system with the paper's defaults, modified by opts.
func NewSystem(opts ...Option) (*System, error) {
	o := Options{
		Partitions: keypoint.DefaultPartitions,
		PruneLen:   skelgraph.DefaultPruneLen,
		Thinning:   thinning.ZhangSuen,
		FrontEnd:   FrontEndThinning,
	}
	for _, fn := range opts {
		fn(&o)
	}
	ex, err := extract.NewExtractor(o.Extractor...)
	if err != nil {
		return nil, fmt.Errorf("slj: %w", err)
	}
	ex.SetScope(o.Scope)
	if reg := o.Scope.Registry(); reg != nil {
		// Bridge the imaging buffer-pool counters (package globals — the
		// pool itself is a global) into this scope's registry as pull
		// metrics, read at snapshot time.
		reg.RegisterFunc("imaging.pool.hits", func() int64 { h, _, _ := imaging.PoolCounters(); return h })
		reg.RegisterFunc("imaging.pool.misses", func() int64 { _, m, _ := imaging.PoolCounters(); return m })
		reg.RegisterFunc("imaging.pool.double_puts", func() int64 { _, _, d := imaging.PoolCounters(); return d })
		reg.RegisterFunc("imaging.pool.balance", imaging.PoolBalance)
	}
	cfg := dbn.DefaultConfig()
	if o.Classifier != nil {
		cfg = *o.Classifier
	}
	cfg.Partitions = o.Partitions
	cfg.Rings = o.Rings
	clf, err := dbn.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("slj: %w", err)
	}
	return &System{opts: o, extractor: ex, classifier: clf, scratch: newFrameScratch()}, nil
}

// Classifier exposes the underlying DBN bank (read-only use).
func (s *System) Classifier() *dbn.Classifier { return s.classifier }

// SetBackground installs the clean backdrop frame for extraction.
func (s *System) SetBackground(bg *imaging.RGB) { s.extractor.SetBackground(bg) }

// AnalyzeSilhouette runs the configured skeleton front end (Section 3 +
// feature encoding, or the GA stick-model fit) on an already-extracted
// silhouette.
//
//slj:hotpath
func (s *System) AnalyzeSilhouette(sil *imaging.Binary) FrameAnalysis {
	fa := FrameAnalysis{
		Silhouette: sil,
		Encoding:   keypoint.Encoding{Partitions: s.opts.Partitions, Rings: s.opts.Rings},
	}
	if s.opts.FrontEnd == FrontEndGA {
		return s.analyzeGA(fa, sil) //slj:alloc-ok GA front end is opt-in and outside the zero-alloc contract (DESIGN.md §11 covers the skeleton path)
	}
	sc := s.opts.Scope
	sc.FrameDone()
	// Whole-front-end frame latency (the stage.frame.ns histogram feeds
	// the frame_p99 SLO); the per-stage spans below nest inside it.
	fsp := sc.Start(obs.StageFrame)
	defer fsp.End()
	// The raw thinning result is only an intermediate: once the graph is
	// built, the reported skeleton is re-rasterised from the graph. Run it
	// through the imaging buffer pool so per-frame analysis does not
	// allocate a fresh image per frame. On the error path the buffer
	// escapes into fa.Skeleton and is simply never returned to the pool.
	sp := sc.Start(obs.StageThin)
	//slj:pool-escapes ThinIntoCounted returns dst: skel IS the pooled buffer, Put below
	skel, passes := thinning.ThinIntoCounted(imaging.GetBinary(sil.W, sil.H), sil, s.opts.Thinning)
	sp.End()
	sc.ThinPasses(passes)
	sp = sc.Start(obs.StageGraph)
	g, err := skelgraph.BuildScratch(skel, s.scratch.graph)
	if err != nil {
		sp.End()
		sc.GraphFail()
		fa.Skeleton = skel
		return fa
	}
	imaging.PutBinary(skel)
	sc.Pruned(g.Prune(s.opts.PruneLen))
	sp.End()
	sc.GraphStats(g.Stats.LoopsCut, g.Stats.JunctionsRemoved)
	fa.Graph = g
	fa.Skeleton = g.ToBinaryInto(s.scratch.skeletonInto(g.W, g.H))
	sp = sc.Start(obs.StageKeyPoint)
	kp, err := keypoint.FromGraphScratch(g, s.scratch.kp)
	if err != nil {
		sp.End()
		sc.KeyPointMiss(errors.Is(err, keypoint.ErrDegenerate), errors.Is(err, keypoint.ErrNoTorso))
		return fa
	}
	enc, err := keypoint.EncodeRadial(kp, s.opts.Partitions, s.opts.Rings)
	sp.End()
	if err != nil {
		sc.KeyPointMiss(false, false)
		return fa
	}
	if kp.HandAbsent() {
		sc.HandAbsent()
	}
	fa.KeyPoints = kp
	fa.KeyPointsOK = true
	fa.Encoding = enc
	return fa
}

// observeClip relabels the system's scope (and its extractor's) with the
// clip name for the duration of one clip; the returned func restores the
// parent scope. A System processes one clip (or one range of a clip's
// frames) at a time — the Engine pools whole Systems rather than sharing
// one — so the swap is race-free.
func (s *System) observeClip(name string) func() {
	return s.useScope(s.opts.Scope.WithClip(name))
}

// useScope points the system's scope, and its extractor's, at sc until
// the returned func restores the previous one. The Engine hands the
// clip-labelled scope to the Systems it borrows for a clip's frame
// ranges, so their spans and journal entries carry the clip's trace ID.
func (s *System) useScope(sc *obs.Scope) func() {
	prev := s.opts.Scope
	if sc == prev {
		return func() {}
	}
	s.opts.Scope = sc
	s.extractor.SetScope(sc)
	return func() {
		s.opts.Scope = prev
		s.extractor.SetScope(prev)
	}
}

// analyzeGA fits the stick model to the silhouette and derives key
// points from it (the previous-work pipeline).
func (s *System) analyzeGA(fa FrameAnalysis, sil *imaging.Binary) FrameAnalysis {
	fit, err := ga.Fit(sil, s.opts.GA)
	if err != nil {
		fa.Skeleton = imaging.NewBinary(sil.W, sil.H)
		return fa
	}
	kp := fit.KeyPoints(pose.DefaultProportions())
	enc, err := keypoint.EncodeRadial(kp, s.opts.Partitions, s.opts.Rings)
	if err != nil {
		fa.Skeleton = imaging.NewBinary(sil.W, sil.H)
		return fa
	}
	// Rasterise the fitted stick model as the "skeleton" product.
	skel := imaging.NewBinary(sil.W, sil.H)
	sk := fit.Best.Skeleton(pose.DefaultProportions())
	for _, seg := range [][2]imaging.Pointf{
		{sk.Hip, sk.Shoulder}, {sk.Shoulder, sk.Head}, {sk.Shoulder, sk.Elbow},
		{sk.Elbow, sk.Hand}, {sk.Hip, sk.Knee}, {sk.Knee, sk.Ankle}, {sk.Ankle, sk.Toe},
	} {
		imaging.DrawLine(skel, seg[0].Round(), seg[1].Round())
	}
	fa.Skeleton = skel
	fa.KeyPoints = kp
	fa.KeyPointsOK = true
	fa.Encoding = enc
	return fa
}

// AnalyzeFrame extracts the silhouette from an RGB frame (requires
// SetBackground first) and runs the skeleton front end on it.
//
//slj:hotpath
func (s *System) AnalyzeFrame(frame *imaging.RGB) (FrameAnalysis, error) {
	sil, err := s.extractor.Extract(frame)
	if err != nil {
		return FrameAnalysis{}, fmt.Errorf("slj: %w", err) //slj:alloc-ok cold error path, frame is rejected anyway
	}
	// The silhouette must stay valid past the return (it is the
	// FrameAnalysis product), so it goes back to the pool one frame later,
	// when the next AnalyzeFrame supersedes it.
	s.scratch.retire(sil)
	return s.AnalyzeSilhouette(sil), nil
}

// eachSilhouette installs the clip background once, through
// silhouetteSource, then hands the silhouettes of frames [lo, hi) to fn
// one at a time, in frame order. fn must not keep the silhouette: an
// extractor-owned one goes back to the imaging pool as soon as fn
// returns, so at most one is live. Ground-truth masks are dataset-owned
// and are never Put.
func (s *System) eachSilhouette(lc dataset.LabeledClip, lo, hi int, fn func(i int, sil *imaging.Binary)) error {
	src, err := s.silhouetteSource(lc)
	if err != nil {
		return err
	}
	owned := !s.opts.UseGroundTruthSilhouettes
	for i := lo; i < hi; i++ {
		sil, err := src(i)
		if err != nil {
			return err
		}
		fn(i, sil)
		if owned {
			imaging.PutBinary(sil)
		}
	}
	return nil
}

// encodeFrames runs the front end over frames [lo, hi) of a clip and
// stores frame i's Encoding in encs[i]. No state crosses frames before
// the DBN — a frame's encoding depends only on the frame and the clip
// background — so encoding a clip as several ranges, on several Systems,
// gives exactly what one pass gives. Every clip path except AutoOrient's
// runs this loop.
func (s *System) encodeFrames(lc dataset.LabeledClip, encs []keypoint.Encoding, lo, hi int) error {
	return s.eachSilhouette(lc, lo, hi, func(i int, sil *imaging.Binary) {
		encs[i] = s.AnalyzeSilhouette(sil).Encoding
	})
}

// orientedEncodings is encodeFrames over a whole clip under AutoOrient:
// the mirror decision needs every silhouette first, so the clip's
// silhouettes are all extracted before any is analysed.
func (s *System) orientedEncodings(lc dataset.LabeledClip, encs []keypoint.Encoding) error {
	sils, err := s.clipSilhouettes(lc)
	if err != nil {
		return err
	}
	// Ground-truth silhouettes are dataset-owned and must never be Put —
	// but a FlipH copy is ours regardless of where its source came from.
	owned := !s.opts.UseGroundTruthSilhouettes
	if jumpGoesLeft(sils) {
		for i, sil := range sils {
			sils[i] = sil.FlipH()
			if owned {
				imaging.PutBinary(sil)
			}
		}
		owned = true
	}
	for i, sil := range sils {
		encs[i] = s.AnalyzeSilhouette(sil).Encoding
		if owned {
			imaging.PutBinary(sil)
		}
	}
	return nil
}

// clipEncodings encodes every frame of a clip, honouring AutoOrient. A
// failure is journaled under the System's scope, once per clip.
func (s *System) clipEncodings(lc dataset.LabeledClip) ([]keypoint.Encoding, error) {
	encs := make([]keypoint.Encoding, len(lc.Clip.Frames))
	var err error
	if s.opts.AutoOrient {
		err = s.orientedEncodings(lc, encs)
	} else {
		err = s.encodeFrames(lc, encs, 0, len(encs))
	}
	if err != nil {
		s.opts.Scope.RecordError(errClassOf(err), err)
		return nil, err
	}
	return encs, nil
}

// clipFrame returns frame i of a clip. Materialised clips index their
// Frames slice; streamed clips (a non-nil Reader) decode the frame from
// disk on demand, so a clip's pixel data is resident only while the
// pipeline is consuming it.
func clipFrame(lc dataset.LabeledClip, i int) (synth.Frame, error) {
	if lc.Reader == nil {
		return lc.Clip.Frames[i], nil
	}
	fr, err := lc.Reader.ReadFrame(i)
	if err != nil {
		return synth.Frame{}, fmt.Errorf("slj: clip %s frame %d: %w", lc.Name, i, err)
	}
	return fr, nil
}

// clipImage returns frame i's image alone, the extraction path's input.
// Unlike clipFrame it leaves a streamed clip's ground-truth silhouette
// undecoded, and it decodes into dst, so the image is valid only until
// the next call with the same dst.
func clipImage(lc dataset.LabeledClip, i int, dst *imaging.RGB) (*imaging.RGB, error) {
	if lc.Reader == nil {
		return lc.Clip.Frames[i].Image, nil
	}
	img, err := lc.Reader.ReadImage(i, dst)
	if err != nil {
		return nil, fmt.Errorf("slj: clip %s frame %d: %w", lc.Name, i, err)
	}
	return img, nil
}

// silhouetteSource prepares per-frame silhouette production for a clip:
// it installs the clip background (when extracting) and returns a closure
// yielding frame i's silhouette. The closure reuses the System's
// extractor, so it must be called from a single goroutine. Streamed clips
// decode each frame as it is requested, all into one image that lives as
// long as the closure: the extractor needs a frame only until Extract
// returns. Failures are returned, not journaled: the clip-level callers
// journal them once per clip.
func (s *System) silhouetteSource(lc dataset.LabeledClip) (func(i int) (*imaging.Binary, error), error) {
	if !s.opts.UseGroundTruthSilhouettes {
		if lc.Clip.Background == nil {
			return nil, fmt.Errorf("slj: clip %s has no background frame: %w", lc.Name, ErrNoBackground)
		}
		s.SetBackground(lc.Clip.Background)
	}
	var frame imaging.RGB
	return func(i int) (*imaging.Binary, error) {
		if s.opts.UseGroundTruthSilhouettes {
			fr, err := clipFrame(lc, i)
			if err != nil {
				return nil, err
			}
			if fr.Silhouette == nil {
				return nil, fmt.Errorf("slj: clip %s frame %d has no ground-truth silhouette", lc.Name, i)
			}
			return fr.Silhouette, nil
		}
		img, err := clipImage(lc, i, &frame)
		if err != nil {
			return nil, err
		}
		sil, err := s.extractor.Extract(img)
		if err != nil {
			return nil, fmt.Errorf("slj: clip %s frame %d: %w", lc.Name, i, err)
		}
		return sil, nil
	}, nil
}

// clipSilhouettes extracts (or fetches) the per-frame silhouettes.
func (s *System) clipSilhouettes(lc dataset.LabeledClip) ([]*imaging.Binary, error) {
	src, err := s.silhouetteSource(lc)
	if err != nil {
		return nil, err
	}
	out := make([]*imaging.Binary, 0, len(lc.Clip.Frames))
	for i := range lc.Clip.Frames {
		sil, err := src(i)
		if err != nil {
			// Silhouettes already extracted for earlier frames are
			// pool-owned and must not leak just because a later frame
			// failed to decode.
			if !s.opts.UseGroundTruthSilhouettes {
				for _, prev := range out {
					imaging.PutBinary(prev)
				}
			}
			return nil, err
		}
		out = append(out, sil)
	}
	return out, nil
}

// jumpGoesLeft reports whether the silhouette centroid drifts toward -X
// over the clip (a right-to-left jump).
func jumpGoesLeft(sils []*imaging.Binary) bool {
	first, last := -1.0, -1.0
	for _, sil := range sils {
		b := sil.ForegroundBounds()
		if b.Empty() {
			continue
		}
		cx := float64(b.Min.X+b.Max.X) / 2
		if first < 0 {
			first = cx
		}
		last = cx
	}
	return first >= 0 && last < first
}

// TrainClip feeds one labelled clip through the front end and into the
// DBN bank (the paper's training phase).
func (s *System) TrainClip(lc dataset.LabeledClip) error {
	defer s.observeClip(lc.Name)()
	encs, err := s.clipEncodings(lc)
	if err != nil {
		return err
	}
	if err := s.classifier.TrainSequence(labeledFrames(lc, encs)); err != nil {
		return fmt.Errorf("slj: training on %s: %w", lc.Name, err)
	}
	return nil
}

// labeledFrames pairs a clip's ground-truth labels with its encodings.
func labeledFrames(lc dataset.LabeledClip, encs []keypoint.Encoding) []dbn.LabeledFrame {
	frames := make([]dbn.LabeledFrame, len(encs))
	for i, enc := range encs {
		frames[i] = dbn.LabeledFrame{Label: lc.Clip.Frames[i].Label, Enc: enc}
	}
	return frames
}

// Train trains on every clip. It is a thin adapter over TrainSource.
func (s *System) Train(clips []dataset.LabeledClip) error {
	if len(clips) == 0 {
		return errors.New("slj: no training clips")
	}
	return s.TrainSource(dataset.Materialized(clips))
}

// TrainSource trains on every clip the source yields, one clip at a
// time in source order — only the clip being analysed is resident. The
// source is consumed to io.EOF but not closed.
func (s *System) TrainSource(src dataset.ClipSource) error {
	n := 0
	for {
		lc, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("slj: %w", err)
		}
		if err := s.TrainClip(lc); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		return errors.New("slj: no training clips")
	}
	return nil
}

// ClassifyClip decodes one clip into per-frame results.
func (s *System) ClassifyClip(lc dataset.LabeledClip) ([]dbn.Result, error) {
	defer s.observeClip(lc.Name)()
	encs, err := s.clipEncodings(lc)
	if err != nil {
		return nil, err
	}
	return s.classifyEncodings(lc.Name, encs)
}

// classifyEncodings runs the DBN over a clip's encodings in frame order.
func (s *System) classifyEncodings(name string, encs []keypoint.Encoding) ([]dbn.Result, error) {
	res, err := s.classifier.ClassifySequenceScoped(encs, s.opts.Scope)
	if err != nil {
		return nil, fmt.Errorf("slj: classifying %s: %w", name, err)
	}
	return res, nil
}

// ClassifyClipViterbi decodes a clip jointly with the Viterbi extension
// (see internal/dbn): the most probable pose sequence under the learned
// pose-transition model, which never emits Unknown and repairs isolated
// bad frames. This is the "refinement on the DBN" the paper's conclusion
// anticipates; experiment EXT3 compares it against the paper's greedy
// decoder.
func (s *System) ClassifyClipViterbi(lc dataset.LabeledClip) ([]pose.Pose, error) {
	encs, err := s.clipEncodings(lc)
	if err != nil {
		return nil, err
	}
	seq, err := s.classifier.DecodeViterbi(encs)
	if err != nil {
		return nil, fmt.Errorf("slj: viterbi on %s: %w", lc.Name, err)
	}
	return seq, nil
}

// MeasureJump tracks the jumper through the clip and measures the jump
// distance (pixels and body heights) between the take-off and landing
// foot positions. The flight window is derived from the tracked foot
// height (classifier-independent), so no training is required.
func (s *System) MeasureJump(lc dataset.LabeledClip) (track.JumpMeasurement, error) {
	tr := track.DefaultTracker()
	// Step keeps no reference to the silhouette, so each one can go back
	// to the pool as soon as it has been tracked.
	err := s.eachSilhouette(lc, 0, len(lc.Clip.Frames), func(_ int, sil *imaging.Binary) { tr.Step(sil) })
	if err != nil {
		return track.JumpMeasurement{}, err
	}
	m, err := tr.MeasureJump(tr.AirborneFlags(track.DefaultAirborneMargin))
	if err != nil {
		return track.JumpMeasurement{}, fmt.Errorf("slj: %w", err)
	}
	return m, nil
}

// Poses extracts the decided pose sequence from classification results.
func Poses(results []dbn.Result) []pose.Pose {
	out := make([]pose.Pose, len(results))
	for i, r := range results {
		out[i] = r.Pose
	}
	return out
}

// Evaluate classifies every test clip and scores it against ground truth,
// reproducing the paper's Section 5 table. It is a thin adapter over
// EvaluateSource.
func (s *System) Evaluate(clips []dataset.LabeledClip) (stats.Summary, *stats.Confusion, error) {
	return s.EvaluateSource(dataset.Materialized(clips))
}

// EvaluateSource classifies every clip the source yields and scores it
// against ground truth, one clip at a time in source order. The source
// is consumed to io.EOF but not closed.
func (s *System) EvaluateSource(src dataset.ClipSource) (stats.Summary, *stats.Confusion, error) {
	var sum stats.Summary
	var conf stats.Confusion
	for {
		lc, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return stats.Summary{}, nil, fmt.Errorf("slj: %w", err)
		}
		results, err := s.ClassifyClip(lc)
		if err != nil {
			return stats.Summary{}, nil, err
		}
		pred := Poses(results)
		truth := lc.Clip.Labels()
		cr, err := stats.EvaluateClip(lc.Name, truth, pred)
		if err != nil {
			return stats.Summary{}, nil, fmt.Errorf("slj: %w", err)
		}
		sum.Add(cr)
		for i := range truth {
			conf.Add(truth[i], pred[i])
		}
	}
	return sum, &conf, nil
}

// Coach classifies a clip and produces the coaching report — the system's
// end-user purpose ("advices to the jumper can be given").
func (s *System) Coach(lc dataset.LabeledClip) (scoring.Report, []pose.Pose, error) {
	results, err := s.ClassifyClip(lc)
	if err != nil {
		return scoring.Report{}, nil, err
	}
	seq := Poses(results)
	return scoring.Evaluate(seq), seq, nil
}

// SaveModel serialises the trained classifier bank.
func (s *System) SaveModel(w io.Writer) error { return s.classifier.Save(w) }

// LoadModel replaces the classifier with one previously saved by
// SaveModel, synchronising the front end's partition count to the model.
func (s *System) LoadModel(r io.Reader) error {
	clf, err := dbn.Load(r)
	if err != nil {
		return fmt.Errorf("slj: %w", err)
	}
	s.classifier = clf
	s.opts.Partitions = clf.Config().Partitions
	s.opts.Rings = clf.Config().Rings
	return nil
}

// GenerateDataset builds the paper-shaped synthetic corpus (12 train and
// 3 test clips by default).
func GenerateDataset(opts dataset.GenOptions) (*dataset.Dataset, error) {
	return dataset.Generate(opts)
}

// DefaultClassifierConfig returns the paper-default DBN configuration,
// for callers that want to tweak a field before WithClassifierConfig.
func DefaultClassifierConfig() dbn.Config { return dbn.DefaultConfig() }

// RenderAnalysis paints the analysis products over a copy of the frame:
// the silhouette boundary in green, the skeleton in yellow, the key
// points as red crosses and the waist as a blue cross. Intended for
// visual inspection (sljcoach -dump) and debugging.
func RenderAnalysis(frame *imaging.RGB, fa FrameAnalysis) *imaging.RGB {
	out := frame.Clone()
	if fa.Silhouette != nil {
		boundary := imaging.NewBinary(fa.Silhouette.W, fa.Silhouette.H)
		eroded := imaging.Erode(fa.Silhouette)
		for i := range boundary.Pix {
			if fa.Silhouette.Pix[i] == 1 && eroded.Pix[i] == 0 {
				boundary.Pix[i] = 1
			}
		}
		_ = imaging.PaintMask(out, boundary, 60, 220, 60)
	}
	if fa.Skeleton != nil && fa.Skeleton.W == out.W && fa.Skeleton.H == out.H {
		_ = imaging.PaintMask(out, fa.Skeleton, 240, 220, 60)
	}
	cross := func(p imaging.Point, r, g, b uint8) {
		for d := -2; d <= 2; d++ {
			if out.In(p.X+d, p.Y) {
				out.Set(p.X+d, p.Y, r, g, b)
			}
			if out.In(p.X, p.Y+d) {
				out.Set(p.X, p.Y+d, r, g, b)
			}
		}
	}
	if fa.KeyPointsOK {
		for _, part := range keypoint.Parts() {
			if pos, ok := fa.KeyPoints.At(part); ok {
				cross(pos, 230, 60, 60)
			}
		}
		cross(fa.KeyPoints.Waist, 70, 90, 230)
	}
	return out
}

// GenerateClipFromSpec renders one clip from an explicit spec (exposed
// for tests and tools that need mirrored, distractor-laden or otherwise
// customised clips).
func GenerateClipFromSpec(spec synth.Spec) (*synth.Clip, error) { return synth.Generate(spec) }

// DefaultSpec returns the standard clip-generation spec for a seed.
func DefaultSpec(seed int64) synth.Spec { return synth.DefaultSpec(seed) }

// DatasetOptions returns the default generation options for a seed.
func DatasetOptions(seed int64) dataset.GenOptions {
	return dataset.DefaultGenOptions(seed)
}
