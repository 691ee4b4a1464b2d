// Health: the SLO evaluator and the run's admission-control verdict.
// The evaluator rides the Sampler's tick (SetOnTick) so there is no
// second timing goroutine; each tick re-evaluates every objective and
// folds the worst level into one Verdict served at /debug/health,
// exported as the slj_slo_* / slj_health_state Prometheus series and
// written to the run report. sljserve's admission control sheds new
// work whenever the verdict is not ready.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Verdict is the whole-process health state: the worst level across
// all evaluated objectives.
type Verdict int

// Verdicts, in increasing severity.
const (
	VerdictReady Verdict = iota
	VerdictDegraded
	VerdictFailing
)

var verdictNames = [...]string{"ready", "degraded", "failing"}

// String returns "ready", "degraded" or "failing".
func (v Verdict) String() string {
	if v < 0 || int(v) >= len(verdictNames) {
		return "unknown"
	}
	return verdictNames[v]
}

// MarshalJSON renders the verdict as its name.
func (v Verdict) MarshalJSON() ([]byte, error) {
	return json.Marshal(v.String())
}

// UnmarshalJSON parses the name form written by MarshalJSON.
func (v *Verdict) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for i, n := range verdictNames {
		if n == s {
			*v = Verdict(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown verdict %q", s)
}

// sloGauges is one objective's exported gauge set. Burn rates are
// exported in milli-units (registry values are int64): a burn of 1.0
// reads as 1000.
type sloGauges struct {
	level    *Gauge
	burnFast *Gauge
	burnSlow *Gauge
}

// HealthEvaluator evaluates a set of SLOSpecs on every sampler tick
// and keeps the latest per-objective states plus the folded verdict.
// All methods are safe on a nil evaluator (which reports Ready, the
// uninstrumented default).
type HealthEvaluator struct {
	reg     *Registry
	smp     *Sampler
	journal *Journal
	specs   []SLOSpec
	gauges  []sloGauges
	stateG  *Gauge

	stopped atomic.Bool

	mu      sync.Mutex
	states  []SLOState
	verdict Verdict
	ticks   int64
}

// NewHealthEvaluator builds an evaluator over the registry, sampler
// and journal (sampler and journal may be nil: the fast window is
// then empty and breach reasons carry no exemplar traces). Spec
// validation errors are returned before anything registers.
func NewHealthEvaluator(reg *Registry, smp *Sampler, journal *Journal, specs []SLOSpec) (*HealthEvaluator, error) {
	if reg == nil {
		return nil, nil
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	h := &HealthEvaluator{reg: reg, smp: smp, journal: journal, specs: specs}
	h.stateG = reg.Gauge("health.state")
	for _, s := range specs {
		// Gauge names are built from the validated spec name; the
		// lowercase-token grammar is enforced by Validate above, which
		// is why these computed registrations stay out of metricnames'
		// literal-name audit.
		h.gauges = append(h.gauges, sloGauges{
			level:    reg.Gauge("slo." + s.Name + ".level"),
			burnFast: reg.Gauge("slo." + s.Name + ".burn_fast_milli"),
			burnSlow: reg.Gauge("slo." + s.Name + ".burn_slow_milli"),
		})
	}
	return h, nil
}

// Eval re-evaluates every objective now. It is the Sampler.SetOnTick
// callback, but tests (and CLI.Stop, for one final verdict) call it
// directly. No-op after Stop, so a shutdown's verdict is final.
func (h *HealthEvaluator) Eval() {
	if h == nil || h.stopped.Load() {
		return
	}
	ts := h.smp.Series()
	snap := h.reg.Snapshot()
	states := make([]SLOState, len(h.specs))
	verdict := VerdictReady
	for i, spec := range h.specs {
		st := spec.Eval(ts, snap)
		if st.Level != SLOOK.String() && spec.Class != ErrClassNone {
			st.Trace = h.journal.LastTrace(spec.Class)
			if st.Trace != "" {
				st.Reason += " (trace " + st.Trace + ")"
			}
		}
		states[i] = st
		var level SLOLevel
		switch st.Level {
		case SLODegraded.String():
			level = SLODegraded
		case SLOFailing.String():
			level = SLOFailing
		}
		h.gauges[i].level.Set(int64(level))
		h.gauges[i].burnFast.Set(int64(st.BurnFast * 1000))
		h.gauges[i].burnSlow.Set(int64(st.BurnSlow * 1000))
		if Verdict(level) > verdict {
			verdict = Verdict(level)
		}
	}
	h.stateG.Set(int64(verdict))
	h.mu.Lock()
	h.states = states
	h.verdict = verdict
	h.ticks++
	h.mu.Unlock()
}

// Stop freezes the evaluator: subsequent Eval calls (a sampler tick
// racing shutdown) are no-ops. Idempotent, nil-safe.
func (h *HealthEvaluator) Stop() {
	if h == nil {
		return
	}
	h.stopped.Store(true)
}

// Stopped reports whether Stop was called.
func (h *HealthEvaluator) Stopped() bool {
	return h != nil && h.stopped.Load()
}

// Health returns the folded verdict of the latest evaluation. A nil
// evaluator — observability off — is Ready.
func (h *HealthEvaluator) Health() Verdict {
	if h == nil {
		return VerdictReady
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.verdict
}

// Ready is the admission predicate handed to serving layers: admit
// new work only while the run is fully healthy.
func (h *HealthEvaluator) Ready() bool {
	return h.Health() == VerdictReady
}

// HealthSchema versions the /debug/health JSON layout.
const HealthSchema = 1

// HealthSnapshot is the /debug/health view.
type HealthSnapshot struct {
	Schema  int        `json:"schema"`
	Verdict Verdict    `json:"verdict"`
	Ready   bool       `json:"ready"`
	Ticks   int64      `json:"ticks"`
	SLOs    []SLOState `json:"slos"`
	Reasons []string   `json:"reasons,omitempty"`
}

// Snapshot captures the latest evaluation. Safe on nil (a Ready
// snapshot with no objectives).
func (h *HealthEvaluator) Snapshot() HealthSnapshot {
	snap := HealthSnapshot{Schema: HealthSchema, Ready: true}
	if h == nil {
		snap.Verdict = VerdictReady
		return snap
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	snap.Verdict = h.verdict
	snap.Ready = h.verdict == VerdictReady
	snap.Ticks = h.ticks
	snap.SLOs = append(snap.SLOs, h.states...)
	for _, st := range h.states {
		if st.Reason != "" {
			snap.Reasons = append(snap.Reasons, st.Name+": "+st.Reason)
		}
	}
	return snap
}

// WriteJSON writes the current snapshot as indented JSON (the
// /debug/health payload).
func (h *HealthEvaluator) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(h.Snapshot()); err != nil {
		return fmt.Errorf("obs: encoding health snapshot: %w", err)
	}
	return nil
}
