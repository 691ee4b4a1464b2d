package obs

import (
	"context"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage for span timing. The order
// mirrors the paper's processing chain (Sections 2–4).
type Stage int

// Pipeline stages, in processing order.
const (
	StageDetect   Stage = iota // background subtraction + thresholding
	StageSmooth                // median smoothing of the raw mask
	StageThin                  // Zhang-Suen / Guo-Hall thinning
	StageGraph                 // skeleton graph build + prune
	StageKeyPoint              // key-point location + feature encoding
	StageClassify              // DBN bank decision
	StageFrame                 // whole skeleton front end (thin+graph+keypoint), per frame
	numStages
)

var stageNames = [numStages]string{"detect", "smooth", "thin", "graph", "keypoint", "classify", "frame"}

// String returns the stage's metric-name token ("detect", "thin", ...).
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return "unknown"
	}
	return stageNames[s]
}

// NumJumpStages is the number of jump stages tracked by the per-stage
// Unknown-rate counters (pose.NumStages; kept literal so obs depends on
// nothing above it).
const NumJumpStages = 4

// ParallelStats is the instrument block shared with internal/parallel
// (which cannot resolve metrics by name without dragging the registry
// into its hot loop). All fields are updated lock-free.
type ParallelStats struct {
	// Items counts work items claimed across MapOrdered/ForEach calls.
	Items Counter
	// Workers is the high-water mark of concurrently running workers.
	Workers Gauge
}

// Scope is the handle pipeline layers thread through: it pre-resolves
// every instrument once so per-frame updates are single atomic ops with
// no map lookups and no allocation. A nil *Scope disables all of it —
// every method is a no-op and Start returns a Span whose End does
// nothing.
type Scope struct {
	reg     *Registry
	journal *Journal
	logger  *slog.Logger
	// spans is the logger's handler when it logs at debug level: each
	// ended span is then one event on its sink. nil keeps spans off.
	spans *LogHandler
	clip  string
	// trace is the clip's correlation ID, minted by WithClip from the
	// shared ids counter; spans, log lines and journal entries from
	// this scope all carry it.
	trace string
	ids   *atomic.Int64

	stageNS [numStages]*Histogram

	frames     *Counter
	clips      *Counter
	graphFail  *Counter
	pruned     *Counter
	thinPasses *Counter
	loopsCut   *Counter
	junctions  *Counter
	kpMiss     *Counter
	kpDegen    *Counter
	kpNoTorso  *Counter
	handAbsent *Counter
	decided    [NumJumpStages + 1]*Counter // index 0 = stage outside 1..4
	unknown    [NumJumpStages + 1]*Counter
	acquireNS  *Counter
	enginePool *Gauge
	par        *ParallelStats

	clipsStreamed *Counter
	decodeNS      *Histogram
	sourceStall   *Counter
	clipsInFlight *Gauge
}

// NewScope builds a scope over reg, resolving the full pipeline metric
// set (DESIGN.md §9 lists the names). A nil registry yields a nil scope.
func NewScope(reg *Registry) *Scope {
	if reg == nil {
		return nil
	}
	sc := &Scope{
		reg:        reg,
		ids:        new(atomic.Int64),
		frames:     reg.Counter("pipeline.frames"),
		clips:      reg.Counter("pipeline.clips"),
		graphFail:  reg.Counter("pipeline.graph_fail"),
		pruned:     reg.Counter("pipeline.pruned_branches"),
		thinPasses: reg.Counter("pipeline.thin_passes"),
		loopsCut:   reg.Counter("pipeline.loops_cut"),
		junctions:  reg.Counter("pipeline.junctions_merged"),
		kpMiss:     reg.Counter("pipeline.keypoint_miss"),
		kpDegen:    reg.Counter("pipeline.keypoint_miss.degenerate"),
		kpNoTorso:  reg.Counter("pipeline.keypoint_miss.no_torso"),
		handAbsent: reg.Counter("pipeline.hand_absent"),
		acquireNS:  reg.Counter("engine.acquire_stall_ns"),
		enginePool: reg.Gauge("engine.pool_free"),
		par:        &ParallelStats{},

		clipsStreamed: reg.Counter("dataset.clips_streamed"),
		decodeNS:      reg.Histogram("dataset.decode_ns", LatencyBounds),
		sourceStall:   reg.Counter("engine.source_stall_ns"),
		clipsInFlight: reg.Gauge("engine.clips_in_flight"),
	}
	for st := Stage(0); st < numStages; st++ {
		sc.stageNS[st] = reg.Histogram("stage."+st.String()+".ns", LatencyBounds)
	}
	for i := range sc.decided {
		suffix := "stage" + string(rune('0'+i))
		sc.decided[i] = reg.Counter("pipeline.decided." + suffix)
		sc.unknown[i] = reg.Counter("pipeline.unknown." + suffix)
	}
	reg.RegisterFunc("parallel.items", sc.par.Items.Value)
	reg.RegisterFunc("parallel.workers_max", sc.par.Workers.Value)
	return sc
}

// Registry returns the scope's registry (nil on a nil scope).
func (sc *Scope) Registry() *Registry {
	if sc == nil {
		return nil
	}
	return sc.reg
}

// SetJournal attaches the error journal classified failures are
// recorded into; nil detaches. Must be set before the scope is shared
// across goroutines.
func (sc *Scope) SetJournal(j *Journal) {
	if sc == nil {
		return
	}
	sc.journal = j
}

// SetLogger attaches a structured event logger; nil detaches. WithClip
// children derive per-clip loggers carrying the clip and trace-ID
// attrs. When l is a LogHandler logger at debug level, every ended span
// is written to its sink as a DEBUG event too. Must be set before the
// scope is shared across goroutines.
func (sc *Scope) SetLogger(l *slog.Logger) {
	if sc == nil {
		return
	}
	sc.logger, sc.spans = l, nil
	if l == nil {
		return
	}
	if h, ok := l.Handler().(*LogHandler); ok && h.Enabled(context.Background(), slog.LevelDebug) {
		sc.spans = h
	}
}

// Logger returns the scope's event logger: the per-clip child on a
// WithClip scope, the base logger on the root, nil when logging is
// off. Callers must nil-check (and usually Enabled-check) before
// building attrs.
func (sc *Scope) Logger() *slog.Logger {
	if sc == nil {
		return nil
	}
	return sc.logger
}

// TraceID returns the scope's clip trace ID ("" on the root scope or
// a nil scope).
func (sc *Scope) TraceID() string {
	if sc == nil {
		return ""
	}
	return sc.trace
}

// Parallel exposes the worker instrument block for internal/parallel
// (nil on a nil scope, which parallel treats as disabled).
func (sc *Scope) Parallel() *ParallelStats {
	if sc == nil {
		return nil
	}
	return sc.par
}

// WithClip returns a copy of the scope labelled with a clip name and a
// freshly minted trace ID: spans, log lines and journal entries from
// the child all carry both, so one clip's records correlate across
// every output. Instruments are shared with the parent — only the
// labels differ. Returns nil on a nil scope.
func (sc *Scope) WithClip(name string) *Scope {
	if sc == nil {
		return nil
	}
	child := *sc
	child.clip = name
	if sc.ids != nil {
		child.trace = traceID(sc.ids.Add(1))
	}
	if sc.logger != nil {
		child.logger = sc.logger.With(slog.String("clip", name), slog.String("trace", child.trace))
	}
	return &child
}

// traceID renders a deterministic per-dispatch correlation ID. IDs are
// a process-local counter, not randomness: the nondet analyzer keeps
// the pipeline packages entropy-free, and deterministic IDs make trace
// output diffable across runs.
func traceID(n int64) string {
	return fmt.Sprintf("t%06d", n)
}

// RecordError classifies and records a failure: the journal gets an
// entry under class (carrying the scope's clip and trace ID — a fresh
// ID is minted for root-scope errors so journal and log still
// correlate), and the event log gets an error-level line. Safe on a
// nil scope; err == nil is a no-op.
func (sc *Scope) RecordError(class ErrClass, err error) {
	if sc == nil || err == nil {
		return
	}
	trace := sc.trace
	if trace == "" && sc.ids != nil {
		trace = traceID(sc.ids.Add(1))
	}
	msg := err.Error()
	sc.journal.Record(class, trace, sc.clip, -1, msg)
	if sc.logger != nil {
		if sc.trace != "" {
			// The per-clip logger already carries clip+trace attrs.
			sc.logger.LogAttrs(context.Background(), slog.LevelError, msg,
				slog.String("class", class.String()))
		} else {
			sc.logger.LogAttrs(context.Background(), slog.LevelError, msg,
				slog.String("class", class.String()), slog.String("trace", trace))
		}
	}
}

// Span is one in-flight stage timing. It is a small value (no pointer
// indirection to allocate) so Start/End on the hot path never touch the
// heap; a zero Span (from a nil scope) is inert.
type Span struct {
	sc *Scope
	st Stage
	t0 time.Time
}

// Start begins timing a stage. On a nil scope it returns an inert span
// without reading the clock.
func (sc *Scope) Start(st Stage) Span {
	if sc == nil {
		return Span{}
	}
	return Span{sc: sc, st: st, t0: time.Now()}
}

// End stops the span: the elapsed time lands in the stage's latency
// histogram and, when the logger is at debug level, one span event is
// written to its sink.
func (sp Span) End() {
	if sp.sc == nil {
		return
	}
	ns := time.Since(sp.t0).Nanoseconds()
	sp.sc.stageNS[sp.st].Observe(ns)
	if h := sp.sc.spans; h != nil {
		h.span(sp.sc.clip, sp.sc.trace, sp.st, sp.t0, ns) //slj:alloc-ok span events are debug-level only; the sink's reused line buffer stops growing once it holds the longest line
	}
}

// FrameDone counts one frame through the skeleton front end.
func (sc *Scope) FrameDone() {
	if sc == nil {
		return
	}
	sc.frames.Inc()
}

// ClipDone counts one clip through the pipeline, however many Systems
// shared its frames.
func (sc *Scope) ClipDone() {
	if sc == nil {
		return
	}
	sc.clips.Inc()
}

// GraphFail counts a silhouette whose skeleton graph could not be
// built, journaling it as a degenerate skeleton.
func (sc *Scope) GraphFail() {
	if sc == nil {
		return
	}
	sc.graphFail.Inc()
	sc.journal.Record(ErrClassDegenerateSkeleton, sc.trace, sc.clip, -1, "skeleton graph build failed") //slj:alloc-ok failure-path journaling; Record lands in preallocated rings, no per-record allocation
	if sc.logger != nil && sc.logger.Enabled(context.Background(), slog.LevelDebug) {                   //slj:alloc-ok level probe only; Enabled and context.Background allocate nothing
		sc.logger.LogAttrs(context.Background(), slog.LevelDebug, "skeleton graph build failed", //slj:alloc-ok debug logging is level-gated; the guard above keeps the disabled path alloc-free
			slog.String("class", ErrClassDegenerateSkeleton.String()))
	}
}

// Pruned adds n pruned noisy branches (skelgraph.Prune's return value).
func (sc *Scope) Pruned(n int) {
	if sc == nil {
		return
	}
	sc.pruned.Add(int64(n))
}

// ThinPasses adds the number of thinning iterations a frame needed.
func (sc *Scope) ThinPasses(n int) {
	if sc == nil {
		return
	}
	sc.thinPasses.Add(int64(n))
}

// GraphStats records skeleton-graph build repairs: spanning-tree loop
// cuts and adjacent-junction merges.
func (sc *Scope) GraphStats(loopsCut, junctionsMerged int) {
	if sc == nil {
		return
	}
	sc.loopsCut.Add(int64(loopsCut))
	sc.junctions.Add(int64(junctionsMerged))
}

// KeyPointMiss counts a frame whose key points could not be located;
// degenerate and noTorso attribute the sentinel cause, which also
// picks the journal class (degenerate_skeleton / no_torso /
// keypoint_miss).
func (sc *Scope) KeyPointMiss(degenerate, noTorso bool) {
	if sc == nil {
		return
	}
	sc.kpMiss.Inc()
	class, msg := ErrClassKeypointMiss, "key points not located"
	if degenerate {
		sc.kpDegen.Inc()
		class, msg = ErrClassDegenerateSkeleton, "key points not located: degenerate skeleton"
	}
	if noTorso {
		sc.kpNoTorso.Inc()
		class, msg = ErrClassNoTorso, "key points not located: no torso"
	}
	sc.journal.Record(class, sc.trace, sc.clip, -1, msg)                              //slj:alloc-ok failure-path journaling; Record lands in preallocated rings, no per-record allocation
	if sc.logger != nil && sc.logger.Enabled(context.Background(), slog.LevelDebug) { //slj:alloc-ok level probe only; Enabled and context.Background allocate nothing
		sc.logger.LogAttrs(context.Background(), slog.LevelDebug, msg, //slj:alloc-ok debug logging is level-gated; the guard above keeps the disabled path alloc-free
			slog.String("class", class.String()))
	}
}

// HandAbsent counts a frame whose key points were found but whose hand
// fell back to the waist (no arm protrusion) — the paper's implausible-
// keypoint case.
func (sc *Scope) HandAbsent() {
	if sc == nil {
		return
	}
	sc.handAbsent.Inc()
}

// Decision counts one DBN decision made while the session believed the
// jump was in jumpStage (1..4; anything else lands in bucket 0).
// unknown marks a Th_Pose fallback to PoseUnknown, which is journaled
// under dbn_unknown with the frame index (pass -1 when unknown).
func (sc *Scope) Decision(jumpStage, frame int, unknown bool) {
	if sc == nil {
		return
	}
	if jumpStage < 1 || jumpStage > NumJumpStages {
		jumpStage = 0
	}
	sc.decided[jumpStage].Inc()
	if unknown {
		sc.unknown[jumpStage].Inc()
		sc.journal.Record(ErrClassDBNUnknown, sc.trace, sc.clip, frame, "dbn decided PoseUnknown") //slj:alloc-ok failure-path journaling; Record lands in preallocated rings, no per-record allocation
		if sc.logger != nil && sc.logger.Enabled(context.Background(), slog.LevelDebug) {          //slj:alloc-ok level probe only; Enabled and context.Background allocate nothing
			sc.logger.LogAttrs(context.Background(), slog.LevelDebug, "dbn decided PoseUnknown", //slj:alloc-ok debug logging is level-gated; the guard above keeps the disabled path alloc-free
				slog.String("class", ErrClassDBNUnknown.String()),
				slog.Int("frame", frame), slog.Int("jump_stage", jumpStage)) //slj:alloc-ok attribute constructors run only under the debug-level guard above
		}
	}
}

// AcquireStall adds engine System-pool acquisition wait time, and
// PoolFree tracks the instantaneous number of idle pooled Systems.
func (sc *Scope) AcquireStall(d time.Duration) {
	if sc == nil {
		return
	}
	sc.acquireNS.Add(d.Nanoseconds())
}

// PoolFree records the engine's free-System count after an acquire or
// release.
func (sc *Scope) PoolFree(n int) {
	if sc == nil {
		return
	}
	sc.enginePool.Set(int64(n))
}

// ClipStreamed counts one clip handed out by a streaming corpus source.
func (sc *Scope) ClipStreamed() {
	if sc == nil {
		return
	}
	sc.clipsStreamed.Inc()
}

// DecodeTime records one on-disk decode (a clip header, frame image or
// silhouette) into the dataset decode-latency histogram.
func (sc *Scope) DecodeTime(d time.Duration) {
	if sc == nil {
		return
	}
	sc.decodeNS.Observe(d.Nanoseconds())
}

// SourceStall adds time an engine worker spent pulling the next clip
// from a streaming source (lock hand-off plus any decode the source does
// in Next). Low values relative to stage latencies mean disk I/O is
// successfully overlapped with the vision front end.
func (sc *Scope) SourceStall(d time.Duration) {
	if sc == nil {
		return
	}
	sc.sourceStall.Add(d.Nanoseconds())
}

// ClipsInFlight raises the high-water mark of clips concurrently checked
// out of a streaming source — the engine's peak clip residency, bounded
// by the worker count.
func (sc *Scope) ClipsInFlight(n int) {
	if sc == nil {
		return
	}
	sc.clipsInFlight.Max(int64(n))
}
