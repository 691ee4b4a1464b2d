package slj

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/dbn"
	"repro/internal/extract"
	"repro/internal/keypoint"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Engine drives a System across many clips on a pool of workers. The
// vision front end (extraction → thinning → skeleton graph → key-point
// encoding) is stateless across clips, so clips fan out over the pool;
// the DBN back end is temporal — each frame's posterior conditions on the
// previous frame's pose — so every clip is still decoded serially by one
// worker, and training consumes clip sequences in their original order.
// Results are therefore bit-identical to the sequential System methods
// regardless of worker count, and workers == 1 routes through the
// unchanged sequential code paths.
//
// Each worker owns a private extractor (extract.Extractor carries scratch
// buffers and is not safe for concurrent use) but all workers share one
// classifier bank: DBN inference is read-only, and only Train mutates it,
// from the calling goroutine. Engine methods are safe to call from
// multiple goroutines, except Train and LoadModel, which mutate the
// shared model and must not run concurrently with anything else.
type Engine struct {
	workers int
	sys     *System
	scope   *obs.Scope // captured at construction: workers relabel their
	// System's scope per clip, so e.sys.opts.Scope cannot be read while
	// systems are checked out
	systems []*System    // len == workers; systems[0] == sys
	free    chan *System // worker checkout; buffered to len(systems)

	inflight atomic.Int64 // source clips checked out by workers
}

// NewEngine builds a System from opts (as NewSystem would) and wraps it
// in an Engine with the given worker count. workers < 1 selects
// runtime.NumCPU().
func NewEngine(workers int, opts ...Option) (*Engine, error) {
	sys, err := NewSystem(opts...)
	if err != nil {
		return nil, err
	}
	return NewEngineFrom(sys, workers)
}

// NewEngineFrom wraps an existing — possibly already trained — System.
// The System must not be used directly while the Engine is active.
func NewEngineFrom(sys *System, workers int) (*Engine, error) {
	w := parallel.Workers(workers)
	e := &Engine{workers: w, sys: sys, scope: sys.opts.Scope}
	e.systems = make([]*System, w)
	e.systems[0] = sys
	for i := 1; i < w; i++ {
		clone, err := sys.clone()
		if err != nil {
			return nil, err
		}
		e.systems[i] = clone
	}
	e.free = make(chan *System, w)
	for _, s := range e.systems {
		e.free <- s
	}
	if sc := e.scope; sc != nil {
		// Hand the worker-pool instrument block to internal/parallel and
		// publish the starting pool occupancy.
		parallel.SetStats(sc.Parallel())
		sc.PoolFree(len(e.free))
	}
	return e, nil
}

// clone returns a System sharing s's options and classifier bank but
// owning a fresh extractor, so one Engine worker can run independently.
func (s *System) clone() (*System, error) {
	ex, err := extract.NewExtractor(s.opts.Extractor...)
	if err != nil {
		return nil, fmt.Errorf("slj: %w", err)
	}
	ex.SetScope(s.opts.Scope)
	return &System{opts: s.opts, extractor: ex, classifier: s.classifier, scratch: newFrameScratch()}, nil
}

// Workers reports the resolved worker count.
func (e *Engine) Workers() int { return e.workers }

// System returns the primary underlying System (shared classifier).
func (e *Engine) System() *System { return e.sys }

// acquire checks a System out of the worker pool, timing any wait for a
// free one; tryAcquire takes one only if one is free now; release returns
// it. All three keep the engine.pool_free gauge current.
func (e *Engine) acquire() *System {
	if s, ok := e.tryAcquire(); ok {
		return s
	}
	t0 := time.Now()
	s := <-e.free
	e.scope.AcquireStall(time.Since(t0))
	e.scope.PoolFree(len(e.free))
	return s
}

func (e *Engine) tryAcquire() (*System, bool) {
	select {
	case s := <-e.free:
		e.scope.PoolFree(len(e.free))
		return s, true
	default:
		return nil, false
	}
}

func (e *Engine) release(s *System) {
	e.free <- s
	e.scope.PoolFree(len(e.free))
}

// attachSource hands the engine's scope to sources that support
// instrumentation (dataset.clips_streamed, dataset.decode_ns).
func (e *Engine) attachSource(src dataset.ClipSource) {
	if s, ok := src.(interface{ SetScope(*obs.Scope) }); ok {
		s.SetScope(e.scope)
	}
}

// pullFrom wraps a source's Next with stall accounting: the time a
// worker spends inside Next (the serialised pull, including any header
// decode the source does there) accumulates in engine.source_stall_ns.
func (e *Engine) pullFrom(src dataset.ClipSource) func() (dataset.LabeledClip, error) {
	sc := e.scope
	if sc == nil {
		return src.Next
	}
	return func() (dataset.LabeledClip, error) {
		t0 := time.Now()
		lc, err := src.Next()
		sc.SourceStall(time.Since(t0))
		if err != nil && err != io.EOF {
			// A failed pull aborts the run (unless the source skips, see
			// dataset.SkipCorrupt); classify and journal it either way.
			sc.RecordError(errClassOf(err), err)
		}
		return lc, err
	}
}

// pullWrapped is pullFrom with the package's error prefix applied to
// failed pulls, matching what the sequential delegates report: a source
// error surfaces as fmt.Errorf("slj: %w", err) regardless of worker
// count. io.EOF passes through untouched — it terminates MapSource, it
// is not a failure.
func (e *Engine) pullWrapped(src dataset.ClipSource) func() (dataset.LabeledClip, error) {
	pull := e.pullFrom(src)
	return func() (dataset.LabeledClip, error) {
		lc, err := pull()
		if err != nil && err != io.EOF {
			return lc, fmt.Errorf("slj: %w", err)
		}
		return lc, err
	}
}

// trackClip counts a source clip checked out by a worker; the returned
// func checks it back in. The high-water mark lands in the
// engine.clips_in_flight gauge — peak decoded-clip residency, which the
// streaming paths bound to the worker count.
func (e *Engine) trackClip() func() {
	n := e.inflight.Add(1)
	e.scope.ClipsInFlight(int(n))
	return func() { e.inflight.Add(-1) }
}

// seqTracked wraps a source for the engine's sequential (workers <= 1)
// delegates so they share the parallel path's accounting: each pull is
// timed into engine.source_stall_ns, and the clip stays checked out —
// counted in engine.clips_in_flight — until the next pull replaces it.
// The gauge therefore reads the true single-clip residency of the
// sequential path rather than zero.
type seqTracked struct {
	src     dataset.ClipSource
	e       *Engine
	pull    func() (dataset.LabeledClip, error)
	checkin func()
}

func (e *Engine) seqSource(src dataset.ClipSource) *seqTracked {
	return &seqTracked{src: src, e: e, pull: e.pullFrom(src)}
}

func (t *seqTracked) Next() (dataset.LabeledClip, error) {
	if t.checkin != nil {
		t.checkin()
		t.checkin = nil
	}
	lc, err := t.pull()
	if err != nil {
		return lc, err
	}
	t.checkin = t.e.trackClip()
	return lc, nil
}

// settle fires the pending checkin, if any. Next normally checks the
// previous clip back in on the following pull; when the consumer aborts
// early — a classify error, or Close before io.EOF — the last clip would
// otherwise stay checked out forever, skewing the inflight accounting a
// long-lived engine's admission control reads.
func (t *seqTracked) settle() {
	if t.checkin != nil {
		t.checkin()
		t.checkin = nil
	}
}

func (t *seqTracked) Close() error {
	t.settle()
	return t.src.Close()
}

// Train trains the shared classifier on every clip, materialised-slice
// form. It is a thin adapter over TrainSource.
func (e *Engine) Train(clips []dataset.LabeledClip) error {
	if len(clips) == 0 {
		return errors.New("slj: no training clips")
	}
	return e.TrainSource(dataset.Materialized(clips))
}

// TrainSource trains the shared classifier on every clip the source
// yields. The front-end analysis of the clips fans out over the worker
// pool, pulling clips on demand so at most `workers` decoded clips are
// in flight; the resulting labelled sequences are then fed to the DBN
// bank serially, in source order, because training updates depend on
// sequence order. The trained model is byte-identical to System.Train's
// on the same clips. The source is consumed to io.EOF but not closed.
func (e *Engine) TrainSource(src dataset.ClipSource) error {
	e.attachSource(src)
	if e.workers <= 1 {
		ts := e.seqSource(src)
		defer ts.settle()
		return e.sys.TrainSource(ts)
	}
	type clipSeq struct {
		name   string
		frames []dbn.LabeledFrame
	}
	seqs, err := parallel.MapSource(e.workers, e.pullWrapped(src),
		func(_ int, lc dataset.LabeledClip) (clipSeq, error) {
			defer e.trackClip()()
			s := e.acquire()
			defer e.release(s)
			defer s.observeClip(lc.Name)()
			encs, err := s.clipEncodings(lc)
			if err != nil {
				return clipSeq{}, err
			}
			return clipSeq{name: lc.Name, frames: labeledFrames(lc, encs)}, nil
		})
	if err != nil {
		return err
	}
	if len(seqs) == 0 {
		return errors.New("slj: no training clips")
	}
	for _, cs := range seqs {
		if err := e.sys.classifier.TrainSequence(cs.frames); err != nil {
			return fmt.Errorf("slj: training on %s: %w", cs.name, err)
		}
	}
	return nil
}

// Evaluate classifies every test clip and scores the results against
// ground truth, materialised-slice form. It is a thin adapter over
// EvaluateSource.
func (e *Engine) Evaluate(clips []dataset.LabeledClip) (stats.Summary, *stats.Confusion, error) {
	return e.EvaluateSource(dataset.Materialized(clips))
}

// clipScore carries one classified clip's truth and prediction out of
// the worker pool; the decoded images are dropped with the clip.
type clipScore struct {
	name         string
	truth, preds []Pose
}

// EvaluateSource classifies every clip the source yields on the worker
// pool and scores the results against ground truth. Clips are pulled on
// demand — peak residency is bounded by the worker count — and the
// summary and confusion matrix are accumulated in source order
// afterwards, so the output matches System.Evaluate over the same clips
// exactly. The source is consumed to io.EOF but not closed.
func (e *Engine) EvaluateSource(src dataset.ClipSource) (stats.Summary, *stats.Confusion, error) {
	e.attachSource(src)
	if e.workers <= 1 {
		ts := e.seqSource(src)
		defer ts.settle()
		return e.sys.EvaluateSource(ts)
	}
	scores, err := parallel.MapSource(e.workers, e.pullWrapped(src),
		func(_ int, lc dataset.LabeledClip) (clipScore, error) {
			defer e.trackClip()()
			s := e.acquire()
			defer e.release(s)
			res, err := s.ClassifyClip(lc)
			if err != nil {
				return clipScore{}, err
			}
			return clipScore{name: lc.Name, truth: lc.Clip.Labels(), preds: Poses(res)}, nil
		})
	if err != nil {
		return stats.Summary{}, nil, err
	}
	var sum stats.Summary
	var conf stats.Confusion
	for _, cs := range scores {
		cr, err := stats.EvaluateClip(cs.name, cs.truth, cs.preds)
		if err != nil {
			return stats.Summary{}, nil, fmt.Errorf("slj: %w", err)
		}
		sum.Add(cr)
		for i := range cs.truth {
			conf.Add(cs.truth[i], cs.preds[i])
		}
	}
	return sum, &conf, nil
}

// ClassifyAll decodes every clip, materialised-slice form. It is a thin
// adapter over ClassifyAllSource.
func (e *Engine) ClassifyAll(clips []dataset.LabeledClip) ([][]dbn.Result, error) {
	return e.ClassifyAllSource(dataset.Materialized(clips))
}

// ClassifyAllSource decodes every clip the source yields on the worker
// pool, returning per-clip frame results in source order. The source is
// consumed to io.EOF but not closed.
func (e *Engine) ClassifyAllSource(src dataset.ClipSource) ([][]dbn.Result, error) {
	e.attachSource(src)
	if e.workers <= 1 {
		ts := e.seqSource(src)
		defer ts.settle()
		var out [][]dbn.Result
		for {
			lc, err := ts.Next()
			if err == io.EOF {
				return out, nil
			}
			if err != nil {
				return nil, fmt.Errorf("slj: %w", err)
			}
			res, err := e.sys.ClassifyClip(lc)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
	}
	return parallel.MapSource(e.workers, e.pullWrapped(src),
		func(_ int, lc dataset.LabeledClip) ([]dbn.Result, error) {
			defer e.trackClip()()
			s := e.acquire()
			defer e.release(s)
			return s.ClassifyClip(lc)
		})
}

// CheckedOut reports the number of source clips currently checked out by
// workers — the live value behind the engine.clips_in_flight gauge. A
// quiescent engine reads zero; serving layers use this for leak checks
// and admission accounting.
func (e *Engine) CheckedOut() int64 { return e.inflight.Load() }

// PoolFree reports how many worker Systems are currently free — the live
// value behind the engine.pool_free gauge.
func (e *Engine) PoolFree() int { return len(e.free) }

// ClassifyClip decodes one clip. It checks one System out of the pool,
// waiting for it like every Engine method, then borrows idle Systems
// without waiting, up to the worker count or one per frame. The frames
// are split into contiguous ranges, one per System, and encoded
// concurrently; each borrowed System goes back to the pool when the
// ranges are done. The DBN then decodes the encodings serially, as
// System.ClassifyClip does, so the results match it bit for bit. The
// lowest failing range holds the first failing frame, so a failure
// reports the error the sequential path would. AutoOrient's mirror
// decision needs every silhouette first, so it runs System.ClassifyClip
// on the one System.
func (e *Engine) ClassifyClip(lc dataset.LabeledClip) ([]dbn.Result, error) {
	s := e.acquire()
	defer e.release(s)
	if s.opts.AutoOrient {
		return s.ClassifyClip(lc)
	}
	defer s.observeClip(lc.Name)()
	sc := s.opts.Scope
	n := len(lc.Clip.Frames)
	systems := []*System{s}
	for len(systems) < min(e.workers, n) {
		h, ok := e.tryAcquire()
		if !ok {
			break
		}
		systems = append(systems, h)
	}
	encs := make([]keypoint.Encoding, n)
	k := len(systems)
	err := parallel.ForEach(k, systems, func(j int, h *System) error {
		defer h.useScope(sc)()
		return h.encodeFrames(lc, encs, j*n/k, (j+1)*n/k)
	})
	for _, h := range systems[1:] {
		e.release(h)
	}
	if err != nil {
		sc.RecordError(errClassOf(err), err)
		return nil, err
	}
	return s.classifyEncodings(lc.Name, encs)
}

// SaveModel serialises the shared classifier bank.
func (e *Engine) SaveModel(w io.Writer) error { return e.sys.SaveModel(w) }

// LoadModel replaces the shared classifier on every worker.
func (e *Engine) LoadModel(r io.Reader) error {
	if err := e.sys.LoadModel(r); err != nil {
		return err
	}
	for _, s := range e.systems[1:] {
		s.classifier = e.sys.classifier
		s.opts.Partitions = e.sys.opts.Partitions
		s.opts.Rings = e.sys.opts.Rings
	}
	return nil
}
