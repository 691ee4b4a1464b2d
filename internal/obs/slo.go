// Declarative SLOs evaluated against the sampler's ring buffers (fast
// window) and the registry's lifetime totals (slow window) — the SRE
// multi-window burn-rate pattern scaled down to one process: the fast
// window reacts to what is happening right now, the slow window stops
// a brief blip (or an idle tail) from flapping the verdict.
package obs

import (
	"fmt"
	"regexp"
)

// SLOKind selects how an SLOSpec derives its burn rate.
type SLOKind int

const (
	// SLOQuantile gates a histogram quantile against a latency target:
	// burn = quantile / TargetNS.
	SLOQuantile SLOKind = iota
	// SLORatio gates a bad/total counter ratio against an error budget:
	// burn = (bad/total) / Budget.
	SLORatio
)

// SLOLevel is one objective's evaluated state.
type SLOLevel int

// Objective levels, in increasing severity.
const (
	SLOOK SLOLevel = iota
	SLODegraded
	SLOFailing
)

var sloLevelNames = [...]string{"ok", "degraded", "failing"}

// String returns "ok", "degraded" or "failing".
func (l SLOLevel) String() string {
	if l < 0 || int(l) >= len(sloLevelNames) {
		return "unknown"
	}
	return sloLevelNames[l]
}

// validSLOName polices spec names at construction: they become metric
// name segments (slo.<name>.level), so they follow the same lowercase
// token grammar metricnames enforces on literal registrations.
var validSLOName = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// SLOSpec declares one service-level objective over registry metrics.
type SLOSpec struct {
	// Name labels the objective; it must match validSLOName because it
	// is spliced into the slo.<name>.* gauge family.
	Name string
	// Kind selects quantile-vs-target or ratio-vs-budget evaluation.
	Kind SLOKind

	// Metric is the histogram gated by an SLOQuantile spec.
	Metric string
	// Quantile is the gated quantile (0.50, 0.95 or 0.99 — the three
	// the sampler derives).
	Quantile float64
	// TargetNS is the latency target the quantile is measured against.
	TargetNS float64

	// Bad and Total are the counter names of an SLORatio spec.
	Bad, Total string
	// Budget is the tolerated Bad/Total ratio (the error budget).
	Budget float64

	// FastTicks is how many of the newest sampler points form the fast
	// window (default 6 — one minute at the default 10s scrape... here,
	// 6 seconds at the default 1s sample interval).
	FastTicks int
	// DegradedBurn: either window at or above it degrades the
	// objective (default 1 — any budget overrun degrades).
	DegradedBurn float64
	// FailingBurn: both windows at or above it fail the objective;
	// zero or negative means the objective never escalates past
	// degraded.
	FailingBurn float64

	// Class links breaches of this objective to the error-journal
	// class whose exemplars explain them (ErrClassNone for latency
	// objectives with no journaled cause).
	Class ErrClass
}

// SLOState is one evaluated objective, as served at /debug/health.
type SLOState struct {
	Name  string `json:"name"`
	Level string `json:"level"`
	// BurnFast/BurnSlow are the two window burn rates (1.0 = exactly
	// on budget/target).
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
	// Value is the slow-window (lifetime) raw value: the quantile in
	// nanoseconds, or the bad/total ratio.
	Value float64 `json:"value"`
	// Reason is set on degraded/failing objectives.
	Reason string `json:"reason,omitempty"`
	// Trace is the newest journal exemplar's trace ID for the linked
	// error class, when one exists.
	Trace string `json:"trace,omitempty"`
}

// Validate checks the spec is well-formed (name grammar, kind fields).
func (s SLOSpec) Validate() error {
	if !validSLOName.MatchString(s.Name) {
		return fmt.Errorf("obs: slo name %q: want lowercase [a-z0-9_] token", s.Name)
	}
	switch s.Kind {
	case SLOQuantile:
		if s.Metric == "" || s.TargetNS <= 0 {
			return fmt.Errorf("obs: slo %s: quantile kind needs Metric and TargetNS", s.Name)
		}
	case SLORatio:
		if s.Bad == "" || s.Total == "" || s.Budget <= 0 {
			return fmt.Errorf("obs: slo %s: ratio kind needs Bad, Total and Budget", s.Name)
		}
	default:
		return fmt.Errorf("obs: slo %s: unknown kind %d", s.Name, s.Kind)
	}
	return nil
}

// Eval evaluates the objective against a sampler view (fast window)
// and a registry snapshot (slow window). With no sampler points yet
// the fast burn is zero, so early verdicts lean on lifetime totals.
func (s SLOSpec) Eval(ts TimeSeries, snap Snapshot) SLOState {
	st := SLOState{Name: s.Name}
	switch s.Kind {
	case SLOQuantile:
		st.BurnFast = meanTail(ts, s.Metric+quantileSuffix(s.Quantile), s.fastTicks()) / s.TargetNS
		hist, ok := findHistogram(snap, s.Metric)
		if ok && hist.Count > 0 {
			st.Value = hist.Quantile(s.Quantile)
		}
		st.BurnSlow = st.Value / s.TargetNS
	case SLORatio:
		bad := sumTail(ts, s.Bad+".rate", s.fastTicks())
		total := sumTail(ts, s.Total+".rate", s.fastTicks())
		if total > 0 {
			st.BurnFast = (bad / total) / s.Budget
		}
		counters := indexValues(snap.Counters)
		switch t := counters[s.Total]; {
		case t > 0:
			st.Value = float64(counters[s.Bad]) / float64(t)
		case counters[s.Bad] > 0:
			// Nothing succeeded and something failed: the ratio is
			// degenerate, treat the budget as fully burned.
			st.Value = 1
		}
		st.BurnSlow = st.Value / s.Budget
	}
	degraded := s.DegradedBurn
	if degraded <= 0 {
		degraded = 1
	}
	level := SLOOK
	if st.BurnFast >= degraded || st.BurnSlow >= degraded {
		level = SLODegraded
	}
	if s.FailingBurn > 0 && st.BurnFast >= s.FailingBurn && st.BurnSlow >= s.FailingBurn {
		level = SLOFailing
	}
	st.Level = level.String()
	if level != SLOOK {
		switch s.Kind {
		case SLOQuantile:
			st.Reason = fmt.Sprintf("%s %s %s over target %s (burn fast %.2f, slow %.2f)",
				s.Metric, quantileSuffix(s.Quantile)[1:], FormatNS(st.Value), FormatNS(s.TargetNS), st.BurnFast, st.BurnSlow)
		case SLORatio:
			st.Reason = fmt.Sprintf("%s/%s ratio %.4f over budget %.4f (burn fast %.2f, slow %.2f)",
				s.Bad, s.Total, st.Value, s.Budget, st.BurnFast, st.BurnSlow)
		}
	}
	return st
}

func (s SLOSpec) fastTicks() int {
	if s.FastTicks > 0 {
		return s.FastTicks
	}
	return 6
}

// quantileSuffix maps a quantile to the sampler's series suffix.
func quantileSuffix(q float64) string {
	switch {
	case q <= 0.50:
		return ".p50"
	case q <= 0.95:
		return ".p95"
	default:
		return ".p99"
	}
}

// meanTail averages the newest n points of the named series (0 when
// the series is absent or empty).
func meanTail(ts TimeSeries, name string, n int) float64 {
	pts := tail(ts, name, n)
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pts {
		sum += p
	}
	return sum / float64(len(pts))
}

// sumTail sums the newest n points of the named series.
func sumTail(ts TimeSeries, name string, n int) float64 {
	var sum float64
	for _, p := range tail(ts, name, n) {
		sum += p
	}
	return sum
}

func tail(ts TimeSeries, name string, n int) []float64 {
	for _, s := range ts.Series {
		if s.Name == name {
			if len(s.Points) > n {
				return s.Points[len(s.Points)-n:]
			}
			return s.Points
		}
	}
	return nil
}

func findHistogram(snap Snapshot, name string) (HistogramSnapshot, bool) {
	for _, h := range snap.Histograms {
		if h.Name == name {
			return h.HistogramSnapshot, true
		}
	}
	return HistogramSnapshot{}, false
}

// DefaultSLOs is the objective set the CLI wires up: whole-frame p99
// latency, DBN Unknown-decision ratio, and corpus decode-error rate.
// Budgets are deliberately loose — the defaults must stay quiet on a
// healthy synthetic-corpus run and only speak up for real trouble
// (a corrupt clip, a collapsed front end, a saturated machine).
func DefaultSLOs() []SLOSpec {
	return []SLOSpec{
		{
			Name:     "frame_p99",
			Kind:     SLOQuantile,
			Metric:   "stage.frame.ns",
			Quantile: 0.99,
			TargetNS: 250e6, // 250ms per frame: an order of magnitude over healthy
		},
		{
			Name:   "unknown_ratio",
			Kind:   SLORatio,
			Bad:    "errors.dbn_unknown",
			Total:  "pipeline.frames",
			Budget: 0.90, // only a near-total DBN collapse breaches
			Class:  ErrClassDBNUnknown,
		},
		{
			Name:   "decode_errors",
			Kind:   SLORatio,
			Bad:    "errors.decode",
			Total:  "dataset.clips_streamed",
			Budget: 0.01, // any corrupt clip in a small corpus breaches
			Class:  ErrClassDecode,
			// FailingBurn left zero: decode errors degrade (the run can
			// skip and continue) but never fail the whole process.
		},
	}
}
