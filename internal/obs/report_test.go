package obs

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleReportRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("pipeline.frames").Add(200)
	reg.Counter("parallel.items").Add(20)
	reg.Counter("imaging.pool.hits").Add(90)
	reg.Counter("imaging.pool.misses").Add(10)
	reg.Gauge("engine.pool_free").Set(3)
	h := reg.Histogram("stage.thin.ns", []int64{1000, 10_000, 100_000})
	for i := 0; i < 10; i++ {
		h.Observe(5000)
	}
	return reg
}

func TestBuildRunReport(t *testing.T) {
	reg := sampleReportRegistry()
	snap := reg.Snapshot()
	rep := BuildRunReport(snap, 10*time.Second, time.Unix(1754600000, 0))

	if rep.Schema != RunReportSchema {
		t.Errorf("schema = %d, want %d", rep.Schema, RunReportSchema)
	}
	if rep.Frames != 200 || rep.FramesPerS != 20 {
		t.Errorf("frames = %d @ %v/s, want 200 @ 20/s", rep.Frames, rep.FramesPerS)
	}
	if rep.Clips != 20 || rep.ClipsPerS != 2 {
		t.Errorf("clips = %d @ %v/s, want 20 @ 2/s", rep.Clips, rep.ClipsPerS)
	}
	if rep.PoolHitRate != 0.9 {
		t.Errorf("pool hit rate = %v, want 0.9", rep.PoolHitRate)
	}

	// The report's quantiles must agree exactly with quantiles computed
	// from the registry's final histogram snapshots — the acceptance
	// contract for RUN_REPORT.json.
	if len(rep.Stages) != 1 {
		t.Fatalf("stages = %d, want 1", len(rep.Stages))
	}
	st := rep.Stages[0]
	hs := snap.Histograms[0].HistogramSnapshot
	if st.Name != "stage.thin.ns" || st.Count != 10 {
		t.Errorf("stage = %q count %d, want stage.thin.ns count 10", st.Name, st.Count)
	}
	for _, q := range []struct {
		got  float64
		q    float64
		name string
	}{{st.P50NS, 0.50, "p50"}, {st.P95NS, 0.95, "p95"}, {st.P99NS, 0.99, "p99"}} {
		if want := hs.Quantile(q.q); q.got != want {
			t.Errorf("report %s = %v, want snapshot quantile %v", q.name, q.got, want)
		}
	}
	if st.MeanNS != 5000 {
		t.Errorf("mean = %v, want 5000", st.MeanNS)
	}
}

func TestRunReportRoundTripAndMarkdown(t *testing.T) {
	reg := sampleReportRegistry()
	rep := BuildRunReport(reg.Snapshot(), 10*time.Second, time.Unix(1754600000, 0))

	path := filepath.Join(t.TempDir(), "RUN_REPORT.json")
	if err := writeFileWith(path, rep.WriteJSON); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRunReport(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(back)
	if !bytes.Equal(a, b) {
		t.Error("report did not round-trip through JSON")
	}

	var md bytes.Buffer
	if err := rep.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# Run report", "stage.thin.ns", "frames: 200", "| pipeline.frames | 200 |"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q:\n%s", want, md.String())
		}
	}
}

func TestCompareRunReports(t *testing.T) {
	reg := sampleReportRegistry()
	base := BuildRunReport(reg.Snapshot(), 10*time.Second, time.Unix(1754600000, 0))

	// Identical runs: no regressions.
	if regs := CompareRunReports(base, base, 500, 80); len(regs) != 0 {
		t.Errorf("self-compare regressed: %v", regs)
	}

	// Slow the stage down 100× and halve throughput beyond the floor.
	slow := base
	slow.Stages = append([]StageQuantiles(nil), base.Stages...)
	slow.Stages[0].P50NS *= 100
	slow.Stages[0].P95NS *= 100
	slow.Stages[0].P99NS *= 100
	slow.FramesPerS = base.FramesPerS / 100
	regs := CompareRunReports(base, slow, 500, 80)
	if len(regs) != 4 { // p50, p95, p99, frames/s
		t.Errorf("regressions = %d (%v), want 4", len(regs), regs)
	}

	// New histograms and empty histograms pass.
	grown := base
	grown.Stages = append([]StageQuantiles{{Name: "stage.new.ns", Count: 5, P50NS: 1}}, base.Stages...)
	if regs := CompareRunReports(base, grown, 500, 80); len(regs) != 0 {
		t.Errorf("new-stage compare regressed: %v", regs)
	}
}

func TestReportMarkdownPath(t *testing.T) {
	cases := map[string]string{
		"RUN_REPORT.json": "RUN_REPORT.md",
		"out/report.JSON": "out/report.md",
		"plainfile":       "plainfile.md",
		"weird.ext":       "weird.ext.md",
	}
	for in, want := range cases {
		if got := reportMarkdownPath(in); got != want {
			t.Errorf("reportMarkdownPath(%q) = %q, want %q", in, got, want)
		}
	}
}
