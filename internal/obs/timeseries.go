package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// ring is a fixed-capacity float64 ring buffer. Not safe for concurrent
// use; the Sampler serialises access under its own mutex.
type ring struct {
	buf  []float64
	head int // next write position
	n    int // valid entries, <= len(buf)
}

func newRing(capacity int) *ring {
	if capacity < 1 {
		capacity = 1
	}
	return &ring{buf: make([]float64, capacity)}
}

func (r *ring) push(v float64) {
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// points returns the buffered values oldest → newest in a fresh slice.
func (r *ring) points() []float64 {
	out := make([]float64, r.n)
	start := r.head - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(start+i)%len(r.buf)]
	}
	return out
}

// Series is one derived time series: a name and its ring-buffered
// history, oldest point first.
type Series struct {
	Name   string    `json:"name"`
	Points []float64 `json:"points"`
}

// TimeSeries is a point-in-time view of every series a Sampler derives,
// served at /debug/timeseries and consumed by cmd/sljtop. Series are
// sorted by name so encoding is deterministic.
type TimeSeries struct {
	// IntervalNS is the nominal sampling interval.
	IntervalNS int64 `json:"interval_ns"`
	// Ticks counts samples taken since Start (monotonic; rings hold only
	// the most recent Window of them).
	Ticks int64 `json:"ticks"`
	// Window is the ring capacity in points.
	Window int `json:"window"`
	// Series holds the derived histories. Counter X contributes "X.rate"
	// (per-second delta), gauge X contributes "X", histogram X
	// contributes "X.rate", "X.p50", "X.p95" and "X.p99" (quantiles over
	// the observations of that interval alone), and the derived.* series
	// are documented on Sampler.
	Series []Series `json:"series"`
}

// Sampler periodically snapshots a registry and folds the deltas between
// consecutive snapshots into fixed-size ring buffers of derived
// per-interval series: counter rates, gauge levels, windowed
// histogram-delta quantiles, and a few cross-metric conveniences —
//
//	derived.frames_per_s   rate of pipeline.frames
//	derived.clips_per_s    rate of parallel.items (work items claimed)
//	derived.pool_hit_rate  imaging pool hits / (hits+misses) this interval
//
// Memory is bounded: window × series rings, no per-tick allocation
// beyond first resolution of a new metric name. All methods are nil-safe
// so the disabled path costs nothing.
type Sampler struct {
	reg      *Registry
	interval time.Duration
	window   int

	mu       sync.Mutex
	prev     Snapshot
	prevAt   time.Time
	havePrev bool
	series   map[string]*ring
	ticks    int64
	onTick   func()

	stop chan struct{}
	done chan struct{}
}

// NewSampler builds a sampler over reg. interval is the nominal period
// between snapshots (clamped to 10ms minimum), window the ring capacity
// in points. A nil registry yields a nil sampler.
func NewSampler(reg *Registry, interval time.Duration, window int) *Sampler {
	if reg == nil {
		return nil
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if window < 1 {
		window = 1
	}
	return &Sampler{
		reg:      reg,
		interval: interval,
		window:   window,
		series:   make(map[string]*ring),
	}
}

// Start launches the background sampling goroutine. No-op on a nil
// sampler or when already started.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done := s.stop, s.done
	// Prime the delta baseline so the first tick measures a real window.
	s.prev, s.prevAt, s.havePrev = s.reg.Snapshot(), time.Now(), true
	s.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.Tick()
			}
		}
	}()
}

// Stop halts the background goroutine, takes one final sample so the
// tail of the run is captured, and waits for the goroutine to exit.
// Safe on a nil or never-started sampler, and idempotent.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
	s.Tick()
}

// SetOnTick installs a callback run after every Tick, outside the
// sampler's lock — the health evaluator rides it so SLO windows are
// re-evaluated exactly once per sample, with no second timer
// goroutine. nil removes the callback. Safe on a nil sampler.
func (s *Sampler) SetOnTick(fn func()) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.onTick = fn
	s.mu.Unlock()
}

// Tick takes one sample now, deriving rates from the wall time elapsed
// since the previous sample. Exported so tests (and -once consumers) can
// drive the sampler deterministically without the background goroutine.
func (s *Sampler) Tick() {
	if s == nil {
		return
	}
	snap := s.reg.Snapshot()
	now := time.Now()
	s.mu.Lock()
	elapsed := s.interval
	if s.havePrev {
		if d := now.Sub(s.prevAt); d > 0 {
			elapsed = d
		}
	}
	s.sampleLocked(snap, elapsed)
	s.prev, s.prevAt, s.havePrev = snap, now, true
	fn := s.onTick
	s.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// sample folds one snapshot with an explicit elapsed window; tests use
// it for exact-rate assertions.
func (s *Sampler) sample(snap Snapshot, elapsed time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sampleLocked(snap, elapsed)
	s.prev, s.havePrev = snap, true
	s.prevAt = time.Now()
}

func (s *Sampler) sampleLocked(snap Snapshot, elapsed time.Duration) {
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = s.interval.Seconds()
	}
	prevCount := indexValues(s.prev.Counters)
	deltas := make(map[string]float64, len(snap.Counters))
	for _, c := range snap.Counters {
		d := float64(c.Value - prevCount[c.Name])
		if !s.havePrev || d < 0 {
			d = 0
		}
		deltas[c.Name] = d
		s.record(c.Name+".rate", d/secs)
	}
	for _, g := range snap.Gauges {
		s.record(g.Name, float64(g.Value))
	}
	prevHist := make(map[string]HistogramSnapshot, len(s.prev.Histograms))
	for _, h := range s.prev.Histograms {
		prevHist[h.Name] = h.HistogramSnapshot
	}
	for _, h := range snap.Histograms {
		win := h.HistogramSnapshot
		if s.havePrev {
			win = win.Sub(prevHist[h.Name])
		}
		s.record(h.Name+".rate", float64(win.Count)/secs)
		s.record(h.Name+".p50", win.Quantile(0.50))
		s.record(h.Name+".p95", win.Quantile(0.95))
		s.record(h.Name+".p99", win.Quantile(0.99))
	}

	s.record("derived.frames_per_s", deltas["pipeline.frames"]/secs)
	s.record("derived.clips_per_s", deltas["parallel.items"]/secs)
	hits, misses := deltas["imaging.pool.hits"], deltas["imaging.pool.misses"]
	hitRate := float64(0)
	if hits+misses > 0 {
		hitRate = hits / (hits + misses)
	}
	s.record("derived.pool_hit_rate", hitRate)
	s.ticks++
}

func (s *Sampler) record(name string, v float64) {
	r, ok := s.series[name]
	if !ok {
		r = newRing(s.window)
		s.series[name] = r
	}
	r.push(v)
}

func indexValues(vals []MetricValue) map[string]int64 {
	m := make(map[string]int64, len(vals))
	for _, v := range vals {
		m[v.Name] = v.Value
	}
	return m
}

// Series returns a deterministic copy of every ring: series sorted by
// name, points oldest first. Safe on a nil sampler (zero TimeSeries).
func (s *Sampler) Series() TimeSeries {
	if s == nil {
		return TimeSeries{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := TimeSeries{
		IntervalNS: s.interval.Nanoseconds(),
		Ticks:      s.ticks,
		Window:     s.window,
		Series:     make([]Series, 0, len(s.series)),
	}
	for name, r := range s.series {
		ts.Series = append(ts.Series, Series{Name: name, Points: r.points()})
	}
	sort.Slice(ts.Series, func(i, j int) bool { return ts.Series[i].Name < ts.Series[j].Name })
	return ts
}

// Interval returns the nominal sampling period (0 on a nil sampler).
func (s *Sampler) Interval() time.Duration {
	if s == nil {
		return 0
	}
	return s.interval
}

// WriteJSON writes the current Series() view as indented JSON.
func (s *Sampler) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Series()); err != nil {
		return fmt.Errorf("obs: encoding timeseries: %w", err)
	}
	return nil
}

// Latest returns the newest point of the named series and whether the
// series exists. Convenience for dashboards and tests.
func (ts TimeSeries) Latest(name string) (float64, bool) {
	for _, s := range ts.Series {
		if s.Name == name && len(s.Points) > 0 {
			return s.Points[len(s.Points)-1], true
		}
	}
	return 0, false
}

// ByPrefix returns the series whose names start with prefix, preserving
// the sorted order.
func (ts TimeSeries) ByPrefix(prefix string) []Series {
	var out []Series
	for _, s := range ts.Series {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, s)
		}
	}
	return out
}
