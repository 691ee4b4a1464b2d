package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// populatedStack builds an observability bundle whose registry is
// shaped like a real run. Its sampler ticks only by hand.
func populatedStack(t *testing.T) *obs.Stack {
	t.Helper()
	st, err := obs.NewStack(obs.StackConfig{SampleInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Stop() })
	reg := st.Registry()
	reg.Counter("pipeline.frames").Add(650)
	reg.Counter("pipeline.clips").Add(10)
	reg.Counter("parallel.workers_max").Add(4)
	reg.Counter("pipeline.decided.stage3").Add(9)
	reg.Counter("pipeline.unknown.stage3").Add(1)
	reg.Counter("imaging.pool.hits").Add(640)
	reg.Counter("imaging.pool.misses").Add(10)
	reg.Gauge("engine.pool_free").Set(4)
	for _, st := range []string{"detect", "smooth", "thin", "graph", "keypoint", "classify"} {
		h := reg.Histogram("stage."+st+".ns", obs.LatencyBounds)
		for i := 0; i < 20; i++ {
			h.Observe(int64(50_000 + 1000*i))
		}
	}
	return st
}

// degrade journals a decode error against ten streamed clips, which
// breaches the decode_errors SLO on the next sampler tick.
func degrade(st *obs.Stack) {
	st.Registry().Counter("dataset.clips_streamed").Add(10)
	st.Journal.Record(obs.ErrClassDecode, "t000042", "clip-bad", -1, "background: torn header")
	st.Sampler.Tick()
}

// TestOnceAgainstLiveEndpoint starts a real obs server with a sampler
// and checks that one fetch+render cycle — exactly what `sljtop -once`
// does — produces the stage table and throughput lines.
func TestOnceAgainstLiveEndpoint(t *testing.T) {
	st := populatedStack(t)
	st.Sampler.Tick()

	srv, err := obs.ServeWith("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	v, err := fetchWithRetry(client, srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	out := render(v, srv.Addr())

	for _, want := range []string{
		"throughput", "frames 650", "clips  10",
		"stage.detect.ns", "stage.classify.ns",
		"workers", "pool_free 4",
		"hit rate 98.5%",
		"health", "decided 9", "unknown 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}

	// Stage rows follow pipeline order, not alphabetical order.
	if d, c := strings.Index(out, "stage.detect.ns"), strings.Index(out, "stage.classify.ns"); d > c {
		t.Error("detect renders after classify; stage table must follow pipeline order")
	}

	// The time series made it over the wire.
	if v.ts.Ticks < 1 {
		t.Errorf("timeseries ticks = %d, want >= 1", v.ts.Ticks)
	}
}

// TestAlertsPanelCarriesTraceID serves a degraded job — a journaled
// decode error breaching the decode_errors SLO — and checks the sljtop
// alert row and the errors row both show the journal's trace ID.
func TestAlertsPanelCarriesTraceID(t *testing.T) {
	st := populatedStack(t)
	degrade(st)

	srv, err := obs.ServeWith("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	v, err := fetchWithRetry(client, srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.health == nil {
		t.Fatal("no health snapshot fetched")
	}
	if v.errs == nil {
		t.Fatal("no error journal fetched")
	}
	checkAlerts(t, render(v, srv.Addr()))
}

// checkAlerts checks the panels of a degraded run: the alert row and
// the errors row both show the journal's trace ID.
func checkAlerts(t *testing.T, out string) {
	t.Helper()
	if !strings.Contains(out, "alerts") || !strings.Contains(out, "verdict degraded") {
		t.Errorf("render missing degraded alerts panel:\n%s", out)
	}
	if !strings.Contains(out, "decode_errors") {
		t.Errorf("render missing decode_errors alert row:\n%s", out)
	}
	// The same trace ID correlates the alert row and the errors row.
	if got := strings.Count(out, "t000042"); got < 2 {
		t.Errorf("trace t000042 appears %d times, want >= 2 (alert row + errors row):\n%s", got, out)
	}
	if !strings.Contains(out, "errors") || !strings.Contains(out, "1 journaled") {
		t.Errorf("render missing errors panel:\n%s", out)
	}
}

// TestSnapshotMode renders an offline -report file with no server: the
// report's metrics, health and errors sections fill the same panels the
// live mode does.
func TestSnapshotMode(t *testing.T) {
	st := populatedStack(t)
	degrade(st)
	path := filepath.Join(t.TempDir(), "RUN_REPORT.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Report(10 * time.Second).WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := obs.LoadRunReport(path)
	if err != nil {
		t.Fatal(err)
	}
	out := render(reportView(rep), path)
	checkAlerts(t, out)
	for _, want := range []string{"frames 650", "clips  10", "stage.thin.ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot render missing %q:\n%s", want, out)
		}
	}
	// No sampler: no sparkline rows, no trailing sampler line.
	if strings.Contains(out, "sampler") {
		t.Errorf("snapshot render shows sampler line:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 10); got != "" {
		t.Errorf("empty sparkline = %q, want \"\"", got)
	}
	if got := sparkline([]float64{5, 5, 5}, 10); got != "▁▁▁" {
		t.Errorf("flat sparkline = %q, want bottom blocks", got)
	}
	got := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 10)
	if got != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp sparkline = %q, want full ramp", got)
	}
	// Width truncation keeps the newest points.
	if got := sparkline([]float64{9, 9, 0, 8}, 2); got != "▁█" {
		t.Errorf("truncated sparkline = %q, want last two points", got)
	}
}
