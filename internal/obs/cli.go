package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/trace"
	"strings"
	"time"
)

// CLI bundles the observability command-line surface shared by the slj
// binaries (sljeval, sljexp, sljtrain, sljvideo): flag registration,
// start-up of one Stack plus the chosen sinks, and orderly shutdown. The
// zero value with no flags set is fully inert — Start returns a nil
// *Scope and the pipeline runs exactly as before.
type CLI struct {
	// Metrics is the -metrics listen address (JSON + Prometheus +
	// timeseries + errors + health + pprof).
	Metrics string
	// Trace is the -trace runtime/trace output path.
	Trace string
	// SampleInterval is the -sample-interval time-series sampling period
	// (0 disables the sampler and the health verdict; only active when
	// some other flag enables observability).
	SampleInterval time.Duration
	// Report is the -report RUN_REPORT.json path written by Stop (a .md
	// rendering is written alongside it): metrics, health and errors
	// from one final snapshot.
	Report string
	// ReportCompare is the -report-compare baseline report; Stop returns
	// an error when the new report regresses against it.
	ReportCompare string
	// Log is the -log structured-event JSONL path ("-" or "stderr" for
	// standard error).
	Log string
	// LogLevel is the -log-level minimum (debug|info|warn|error); debug
	// also writes one event per pipeline span.
	LogLevel string

	st        *Stack
	srv       *Server
	traceFile *os.File
	started   time.Time
}

// RegisterFlags installs the observability flags on fs.
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Metrics, "metrics", "", "serve JSON metrics (/debug/metrics), Prometheus text (/debug/metrics.prom), sampled series (/debug/timeseries), errors, health and pprof on this address, e.g. :6060")
	fs.StringVar(&c.Trace, "trace", "", "write a runtime/trace profile to this file (view with `go tool trace`)")
	fs.DurationVar(&c.SampleInterval, "sample-interval", time.Second, "time-series sampling and health period for /debug/timeseries, sljtop and the report (0 disables sampling)")
	fs.StringVar(&c.Report, "report", "", "write an end-of-run report (metrics, health and errors as JSON + markdown sibling) to this path, e.g. RUN_REPORT.json")
	fs.StringVar(&c.ReportCompare, "report-compare", "", "previous -report JSON to gate against; exit non-zero when stage quantiles or throughput regress")
	fs.StringVar(&c.Log, "log", "", "write structured JSONL event logs to this file (\"-\" or \"stderr\" for standard error)")
	fs.StringVar(&c.LogLevel, "log-level", "info", "minimum -log level: debug|info|warn|error (debug adds one event per stage span; convert with sljtrace)")
}

// Enabled reports whether any observability sink was requested.
// -sample-interval alone does not enable anything: sampling is a
// consumer of the other sinks, not a sink itself.
func (c *CLI) Enabled() bool {
	return c.Metrics != "" || c.Trace != "" || c.Report != "" || c.Log != ""
}

// Start brings up the Stack and every requested sink and returns the
// pipeline scope to thread into slj.WithObservability. When no flag was
// set it returns (nil, nil): a nil scope disables instrumentation
// everywhere. On error it tears down whatever it had already started.
func (c *CLI) Start() (*Scope, error) {
	if !c.Enabled() {
		return nil, nil
	}
	c.started = time.Now()
	interval := c.SampleInterval
	if interval == 0 {
		interval = -1 // the Stack's "no sampler"
	}
	st, err := NewStack(StackConfig{SampleInterval: interval, LogPath: c.Log, LogLevel: c.LogLevel})
	if err != nil {
		return nil, err
	}
	c.st = st
	if c.Trace != "" {
		if err := c.startTrace(); err != nil {
			c.teardown()
			return nil, err
		}
	}
	if c.Metrics != "" {
		s, err := ServeWith(c.Metrics, st)
		if err != nil {
			c.teardown()
			return nil, err
		}
		c.srv = s
		fmt.Fprintf(os.Stderr, "obs: metrics on http://%s/debug/metrics (Prometheus at /debug/metrics.prom, series at /debug/timeseries, errors at /debug/errors, health at /debug/health)\n", s.Addr())
	}
	if l := st.Scope.Logger(); l != nil {
		l.Info("run started", "sample_interval", c.SampleInterval)
	}
	return st.Scope, nil
}

func (c *CLI) startTrace() error {
	f, err := os.Create(c.Trace)
	if err != nil {
		return fmt.Errorf("obs: creating trace file: %w", err)
	}
	if err := trace.Start(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: starting runtime trace: %w", err)
	}
	c.traceFile = f
	return nil
}

// Stop flushes and closes everything Start opened: it stops the runtime
// trace, writes the -report files from one final snapshot (the
// sampler's last tick runs one final SLO evaluation first), shuts the
// HTTP server down gracefully and closes the Stack. Safe to call when
// Start was never called or returned (nil, nil). When -report-compare
// was given and the new report regresses, the returned error describes
// every regression.
func (c *CLI) Stop() error {
	if c.st == nil {
		return nil
	}
	var err error
	if c.Report != "" {
		err = c.writeReport(c.st.Report(time.Since(c.started)))
	}
	if l := c.st.Scope.Logger(); l != nil {
		l.Info("run finished", "health", c.st.Health.Health().String(), "errors", c.st.Journal.Total())
	}
	if terr := c.teardown(); err == nil {
		err = terr
	}
	return err
}

// teardown stops the runtime trace, the HTTP server and the Stack, in
// that order (used by Stop and by Start's error paths), and reports the
// first error.
func (c *CLI) teardown() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if c.traceFile != nil {
		trace.Stop()
		keep(c.traceFile.Close())
	}
	keep(c.srv.Close())
	keep(c.st.Stop())
	c.traceFile, c.srv, c.st = nil, nil, nil
	return first
}

// writeReport writes the JSON and markdown renderings of rep; with
// -report-compare it then gates against the baseline report.
func (c *CLI) writeReport(rep RunReport) error {
	if err := writeFileWith(c.Report, rep.WriteJSON); err != nil {
		return err
	}
	if err := writeFileWith(reportMarkdownPath(c.Report), rep.WriteMarkdown); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "obs: run report written to %s (markdown: %s)\n",
		c.Report, reportMarkdownPath(c.Report))
	if c.ReportCompare == "" {
		return nil
	}
	base, err := LoadRunReport(c.ReportCompare)
	if err != nil {
		return err
	}
	// Same spirit as benchjson -compare: latency gated loosely because
	// machines vary, throughput must not halve.
	regs := CompareRunReports(base, rep, 500, 80)
	if len(regs) == 0 {
		fmt.Fprintf(os.Stderr, "obs: report gate passed against %s\n", c.ReportCompare)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "obs: REGRESSION %s\n", r)
	}
	return fmt.Errorf("obs: %d report regression(s) against %s", len(regs), c.ReportCompare)
}

// reportMarkdownPath derives the .md sibling of a report path
// ("RUN_REPORT.json" → "RUN_REPORT.md").
func reportMarkdownPath(path string) string {
	ext := filepath.Ext(path)
	if strings.EqualFold(ext, ".json") {
		return path[:len(path)-len(ext)] + ".md"
	}
	return path + ".md"
}

// writeFileWith creates path and streams fn into it, surfacing close
// errors exactly once.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: creating %s: %w", path, err)
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: writing %s: %w", path, err)
	}
	return nil
}
