package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// RunReportSchema versions the RUN_REPORT.json layout. Schema 2 added
// the optional health and errors sections; schema 3 replaced the
// counters/gauges copies with the whole registry snapshot under
// "metrics". CompareRunReports gates only on stages and frames/s.
const RunReportSchema = 3

// StageQuantiles summarises one latency histogram in a run report. The
// quantiles are computed from the registry's final histogram snapshot
// with HistogramSnapshot.Quantile, so a report always agrees with the
// /debug/metrics view taken at the same instant.
type StageQuantiles struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  float64 `json:"p50_ns"`
	P95NS  float64 `json:"p95_ns"`
	P99NS  float64 `json:"p99_ns"`
}

// RunReport is the durable end-of-run summary CLI.Stop writes under
// -report: wall time, throughput, per-stage latency quantiles, the
// final registry snapshot, the health verdict and the error journal,
// all from one snapshot taken at Stop. Two reports from identical runs
// on the same machine differ only in timings.
type RunReport struct {
	Schema      int    `json:"schema"`
	GeneratedAt string `json:"generated_at"` // RFC3339
	WallNS      int64  `json:"wall_ns"`

	Frames     int64   `json:"frames"`
	Clips      int64   `json:"clips"`
	FramesPerS float64 `json:"frames_per_s"`
	ClipsPerS  float64 `json:"clips_per_s"`

	// PoolHitRate is imaging pool hits/(hits+misses) across the run.
	PoolHitRate float64 `json:"pool_hit_rate"`

	Stages  []StageQuantiles `json:"stages"`
	Metrics Snapshot         `json:"metrics"`

	// Health is the final SLO verdict (absent when sampling was off)
	// and Errors the error-journal summary; Stack.Report attaches both.
	Health *HealthSnapshot  `json:"health,omitempty"`
	Errors *JournalSnapshot `json:"errors,omitempty"`
}

// BuildRunReport derives a report from a final registry snapshot and the
// run's wall time. Every histogram in the snapshot contributes a
// StageQuantiles row (sorted by name); the snapshot itself is carried
// through verbatim.
func BuildRunReport(snap Snapshot, wall time.Duration, generatedAt time.Time) RunReport {
	r := RunReport{
		Schema:      RunReportSchema,
		GeneratedAt: generatedAt.UTC().Format(time.RFC3339),
		WallNS:      wall.Nanoseconds(),
		Metrics:     snap,
	}
	counters := indexValues(snap.Counters)
	r.Frames = counters["pipeline.frames"]
	r.Clips = counters["pipeline.clips"]
	if secs := wall.Seconds(); secs > 0 {
		r.FramesPerS = float64(r.Frames) / secs
		r.ClipsPerS = float64(r.Clips) / secs
	}
	if hm := counters["imaging.pool.hits"] + counters["imaging.pool.misses"]; hm > 0 {
		r.PoolHitRate = float64(counters["imaging.pool.hits"]) / float64(hm)
	}
	for _, h := range snap.Histograms {
		hs := h.HistogramSnapshot
		sq := StageQuantiles{
			Name:  h.Name,
			Count: hs.Count,
			P50NS: hs.Quantile(0.50),
			P95NS: hs.Quantile(0.95),
			P99NS: hs.Quantile(0.99),
		}
		if hs.Count > 0 {
			sq.MeanNS = float64(hs.Sum) / float64(hs.Count)
		}
		r.Stages = append(r.Stages, sq)
	}
	sort.Slice(r.Stages, func(i, j int) bool { return r.Stages[i].Name < r.Stages[j].Name })
	return r
}

// WriteJSON writes the report as indented JSON.
func (r RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("obs: encoding run report: %w", err)
	}
	return nil
}

// WriteMarkdown renders the report as a human-readable markdown summary
// (the .md sibling of RUN_REPORT.json).
func (r RunReport) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Run report\n\n")
	fmt.Fprintf(&b, "- generated: %s\n", r.GeneratedAt)
	fmt.Fprintf(&b, "- wall time: %s\n", time.Duration(r.WallNS))
	fmt.Fprintf(&b, "- frames: %d (%.1f frames/s)\n", r.Frames, r.FramesPerS)
	fmt.Fprintf(&b, "- clips: %d (%.2f clips/s)\n", r.Clips, r.ClipsPerS)
	fmt.Fprintf(&b, "- pool hit rate: %.1f%%\n", 100*r.PoolHitRate)
	if r.Health != nil {
		fmt.Fprintf(&b, "- health: **%s**\n", r.Health.Verdict)
		for _, reason := range r.Health.Reasons {
			fmt.Fprintf(&b, "  - %s\n", reason)
		}
	}
	if r.Errors != nil && r.Errors.Total > 0 {
		fmt.Fprintf(&b, "- errors: %d journaled\n", r.Errors.Total)
	}
	fmt.Fprintf(&b, "\n## Latency quantiles\n\n")
	fmt.Fprintf(&b, "| histogram | count | mean | p50 | p95 | p99 |\n")
	fmt.Fprintf(&b, "|---|---:|---:|---:|---:|---:|\n")
	for _, s := range r.Stages {
		fmt.Fprintf(&b, "| %s | %d | %s | %s | %s | %s |\n", s.Name, s.Count,
			FormatNS(s.MeanNS), FormatNS(s.P50NS), FormatNS(s.P95NS), FormatNS(s.P99NS))
	}
	fmt.Fprintf(&b, "\n## Counters\n\n| name | value |\n|---|---:|\n")
	for _, c := range r.Metrics.Counters {
		fmt.Fprintf(&b, "| %s | %d |\n", c.Name, c.Value)
	}
	fmt.Fprintf(&b, "\n## Gauges\n\n| name | value |\n|---|---:|\n")
	for _, g := range r.Metrics.Gauges {
		fmt.Fprintf(&b, "| %s | %d |\n", g.Name, g.Value)
	}
	if r.Errors != nil && len(r.Errors.Classes) > 0 {
		fmt.Fprintf(&b, "\n## Errors\n\n| class | count | last trace | last clip |\n|---|---:|---|---|\n")
		for _, c := range r.Errors.Classes {
			trace, clip := "", ""
			if n := len(c.Exemplars); n > 0 {
				trace, clip = c.Exemplars[n-1].Trace, c.Exemplars[n-1].Clip
			}
			fmt.Fprintf(&b, "| %s | %d | %s | %s |\n", c.Class, c.Count, trace, clip)
		}
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("obs: writing run report markdown: %w", err)
	}
	return nil
}

// FormatNS renders nanoseconds with an adaptive unit, for markdown, SLO
// reasons and the sljtop dashboard.
func FormatNS(ns float64) string {
	switch {
	case ns <= 0:
		return "0"
	case ns < 1_000:
		return fmt.Sprintf("%.0fns", ns)
	case ns < 1_000_000:
		return fmt.Sprintf("%.1fµs", ns/1_000)
	case ns < 1_000_000_000:
		return fmt.Sprintf("%.1fms", ns/1_000_000)
	default:
		return fmt.Sprintf("%.2fs", ns/1_000_000_000)
	}
}

// LoadRunReport reads a report written by WriteJSON.
func LoadRunReport(path string) (RunReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return RunReport{}, fmt.Errorf("obs: reading run report: %w", err)
	}
	var r RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return RunReport{}, fmt.Errorf("obs: parsing run report %s: %w", path, err)
	}
	return r, nil
}

// CompareRunReports gates cur against base the way benchjson -compare
// gates benchmarks: per-histogram p50/p95/p99 may grow at most nsPct
// percent, and whole-run frame throughput may drop at most tputPct
// percent. Histograms new since the baseline pass; empty histograms are
// skipped (quantiles of nothing are noise). The returned strings
// describe each regression; an empty slice means the gate passed.
func CompareRunReports(base, cur RunReport, nsPct, tputPct float64) []string {
	var regressions []string
	baseStages := make(map[string]StageQuantiles, len(base.Stages))
	for _, s := range base.Stages {
		baseStages[s.Name] = s
	}
	for _, s := range cur.Stages {
		b, ok := baseStages[s.Name]
		if !ok || b.Count == 0 || s.Count == 0 {
			continue
		}
		for _, q := range []struct {
			label     string
			base, cur float64
		}{
			{"p50", b.P50NS, s.P50NS},
			{"p95", b.P95NS, s.P95NS},
			{"p99", b.P99NS, s.P99NS},
		} {
			if q.base <= 0 {
				continue
			}
			limit := q.base * (1 + nsPct/100)
			if q.cur > limit {
				regressions = append(regressions, fmt.Sprintf(
					"%s %s: %s > limit %s (baseline %s, +%.0f%%)",
					s.Name, q.label, FormatNS(q.cur), FormatNS(limit), FormatNS(q.base), nsPct))
			}
		}
	}
	if base.FramesPerS > 0 && cur.FramesPerS > 0 {
		floor := base.FramesPerS * (1 - tputPct/100)
		if cur.FramesPerS < floor {
			regressions = append(regressions, fmt.Sprintf(
				"frames/s: %.1f < floor %.1f (baseline %.1f, -%.0f%%)",
				cur.FramesPerS, floor, base.FramesPerS, tputPct))
		}
	}
	return regressions
}
