package obs

import (
	"fmt"
	"io"
	"os"
	"time"
)

// sampleWindow is the sampler's ring capacity in the bundle: 300
// points, five minutes at the default one-second interval.
const sampleWindow = 300

// StackConfig tunes the observability bundle. The zero value is what a
// server wants: one-second sampling, default SLOs, no log file.
type StackConfig struct {
	// SampleInterval is the time-series sampling period and therefore
	// the health re-evaluation period. 0 means one second; a negative
	// value runs neither the sampler nor the health evaluator.
	SampleInterval time.Duration
	// LogPath writes structured JSONL events: a file path, or "-" /
	// "stderr" for standard error. Empty disables logging. At debug
	// level every span is one event too.
	LogPath string
	// LogLevel is the minimum log level (debug|info|warn|error); empty
	// means info.
	LogLevel string
	// SLOs overrides the health objectives; nil means DefaultSLOs.
	SLOs []SLOSpec
}

// Stack is the one observability bootstrap, shared by the batch CLIs
// (CLI.Start) and sljserve: registry and scope, error journal,
// time-series sampler, SLO health evaluator and an optional event-log
// sink. Scope and Journal are always set; Sampler and Health are nil
// when sampling is off, Sink when logging is.
type Stack struct {
	Scope   *Scope
	Sampler *Sampler
	Journal *Journal
	Health  *HealthEvaluator
	Sink    *LineSink
}

// NewStack builds and starts the bundle: the sampler begins ticking and
// the health evaluator rides its tick. On error nothing is left open.
// Callers own Stop.
func NewStack(cfg StackConfig) (*Stack, error) {
	st := &Stack{Scope: NewScope(NewRegistry())}
	st.Journal = NewJournal(st.Scope.Registry(), 256)
	st.Scope.SetJournal(st.Journal)
	if cfg.LogPath != "" {
		level, err := ParseLogLevel(cfg.LogLevel)
		if err != nil {
			return nil, err
		}
		// Wrap stderr so the sink's Close never closes the real fd.
		var w io.Writer = struct{ io.Writer }{os.Stderr}
		if cfg.LogPath != "-" && cfg.LogPath != "stderr" {
			if w, err = os.Create(cfg.LogPath); err != nil {
				return nil, fmt.Errorf("obs: opening log file: %w", err)
			}
		}
		st.Sink = NewLineSink(w)
		st.Scope.SetLogger(NewLogger(st.Sink, level))
	}
	if cfg.SampleInterval < 0 {
		return st, nil
	}
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = time.Second
	}
	specs := cfg.SLOs
	if specs == nil {
		specs = DefaultSLOs()
	}
	st.Sampler = NewSampler(st.Scope.Registry(), cfg.SampleInterval, sampleWindow)
	h, err := NewHealthEvaluator(st.Scope.Registry(), st.Sampler, st.Journal, specs)
	if err != nil {
		_ = st.Sink.Close()
		return nil, err
	}
	st.Health = h
	st.Sampler.SetOnTick(h.Eval)
	st.Sampler.Start()
	return st, nil
}

// Registry returns the bundle's metric registry (nil-safe).
func (st *Stack) Registry() *Registry {
	if st == nil {
		return nil
	}
	return st.Scope.Registry()
}

// Report stops the sampler, whose final tick runs one last health
// evaluation, and builds the run report from one final registry
// snapshot plus the health verdict and the error journal. wall is the
// run's duration.
func (st *Stack) Report(wall time.Duration) RunReport {
	st.Sampler.Stop()
	rep := BuildRunReport(st.Registry().Snapshot(), wall, time.Now())
	if st.Health != nil {
		hs := st.Health.Snapshot()
		rep.Health = &hs
	}
	js := st.Journal.Snapshot()
	rep.Errors = &js
	return rep
}

// Stop shuts the bundle down in dependency order: the health evaluator
// first (no late tick re-evaluates a dying process), then the sampler
// (its Stop takes one final tick), then the log sink is flushed and
// closed, so the run's last events are on disk when Stop returns. Safe
// on nil and safe to call twice.
func (st *Stack) Stop() error {
	if st == nil {
		return nil
	}
	st.Health.Stop()
	st.Sampler.Stop()
	return st.Sink.Close()
}
