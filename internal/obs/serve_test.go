package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// testStack builds a bundle whose sampler ticks only by hand (or not at
// all, with a negative interval) and stops it when the test ends.
func testStack(t *testing.T, cfg StackConfig) *Stack {
	t.Helper()
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = time.Hour
	}
	st, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Stop() })
	return st
}

func mustGet(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return string(body)
}

// TestServePromAndTimeseries covers the two new consumption endpoints:
// Prometheus text exposition and the sampler's JSON series.
func TestServePromAndTimeseries(t *testing.T) {
	st := testStack(t, StackConfig{})
	reg := st.Registry()
	reg.Counter("served.metric").Add(7)
	reg.Histogram("stage.thin.ns", []int64{10, 100}).Observe(50)
	st.Sampler.sample(reg.Snapshot(), time.Second)

	srv, err := ServeWith("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	prom := mustGet(t, srv.Addr(), "/debug/metrics.prom")
	for _, want := range []string{
		"# TYPE slj_served_metric_total counter",
		"slj_served_metric_total 7",
		`slj_stage_thin_ns_bucket{le="+Inf"} 1`,
		"slj_stage_thin_ns_count 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/debug/metrics.prom missing %q:\n%s", want, prom)
		}
	}

	var ts TimeSeries
	if err := json.Unmarshal([]byte(mustGet(t, srv.Addr(), "/debug/timeseries")), &ts); err != nil {
		t.Fatalf("/debug/timeseries invalid JSON: %v", err)
	}
	if ts.Ticks != 1 || len(ts.Series) == 0 || ts.Window != sampleWindow {
		t.Errorf("timeseries ticks=%d series=%d window=%d, want 1 tick, some series and window %d",
			ts.Ticks, len(ts.Series), ts.Window, sampleWindow)
	}
	if _, ok := ts.Latest("served.metric.rate"); !ok {
		t.Error("served.metric.rate missing from /debug/timeseries")
	}
}

// TestServeCloseWaitsForInFlightScrape is the regression test for the
// abrupt-teardown bug: Server.Close used http.Server.Close, which cut
// connections mid-response, so a /debug/metrics scrape racing CLI.Stop
// saw a truncated body. A slow pull metric keeps the handler busy while
// Close runs; the scrape must still complete with valid, full JSON.
func TestServeCloseWaitsForInFlightScrape(t *testing.T) {
	st := testStack(t, StackConfig{SampleInterval: -1})
	reg := st.Registry()
	reg.Counter("served.metric").Add(7)
	entered := make(chan struct{})
	reg.RegisterFunc("slow.metric", func() int64 {
		close(entered)
		time.Sleep(300 * time.Millisecond)
		return 42
	})
	srv, err := ServeWith("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}

	type scrape struct {
		body string
		err  error
	}
	got := make(chan scrape, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/debug/metrics")
		if err != nil {
			got <- scrape{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- scrape{body: string(body), err: err}
	}()

	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("scrape never reached the handler")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close during in-flight scrape: %v", err)
	}
	s := <-got
	if s.err != nil {
		t.Fatalf("in-flight scrape killed by Close: %v", s.err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(s.body), &snap); err != nil {
		t.Fatalf("scrape body truncated by Close: %v\n%q", err, s.body)
	}
	found := false
	for _, c := range snap.Counters {
		if c.Name == "slow.metric" && c.Value == 42 {
			found = true
		}
	}
	if !found {
		t.Errorf("scrape completed without the slow metric: %s", s.body)
	}

	// After Close the listener is gone: new scrapes fail fast.
	if _, err := http.Get("http://" + srv.Addr() + "/debug/metrics"); err == nil {
		t.Error("GET after Close succeeded; listener should be closed")
	}
}

// TestServeErrorsAndHealthEndpoints covers the flight-recorder
// endpoints: /debug/errors serves the journal with exemplars, and
// /debug/health serves the verdict — 200 while ready or degraded, 503
// only once the process is failing its SLOs.
func TestServeErrorsAndHealthEndpoints(t *testing.T) {
	st := testStack(t, StackConfig{SLOs: []SLOSpec{
		{Name: "decode_errors", Kind: SLORatio, Bad: "errors.decode",
			Total: "dataset.clips_streamed", Budget: 0.01,
			FailingBurn: 2, Class: ErrClassDecode},
	}})
	reg, smp, journal, health := st.Registry(), st.Sampler, st.Journal, st.Health
	srv, err := ServeWith("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Healthy: empty journal, ready verdict, both endpoints 200. The
	// tick establishes the sampler's rate baseline for the later ones.
	smp.Tick()
	health.Eval()
	var js JournalSnapshot
	if err := json.Unmarshal([]byte(mustGet(t, srv.Addr(), "/debug/errors")), &js); err != nil {
		t.Fatalf("/debug/errors invalid JSON: %v", err)
	}
	if js.Total != 0 || js.Schema != JournalSchema {
		t.Errorf("fresh /debug/errors = %+v", js)
	}
	var hs HealthSnapshot
	if err := json.Unmarshal([]byte(mustGet(t, srv.Addr(), "/debug/health")), &hs); err != nil {
		t.Fatalf("/debug/health invalid JSON: %v", err)
	}
	if hs.Verdict != VerdictReady || !hs.Ready {
		t.Errorf("fresh /debug/health = %+v", hs)
	}

	// One decode error against ten clips: degraded, still 200, and the
	// journal entry and the health reason share one trace ID.
	reg.Counter("dataset.clips_streamed").Add(10)
	journal.Record(ErrClassDecode, "t000009", "clip-bad", -1, "torn header")
	health.Eval()
	if err := json.Unmarshal([]byte(mustGet(t, srv.Addr(), "/debug/errors")), &js); err != nil {
		t.Fatal(err)
	}
	if js.Total != 1 || len(js.Classes) != 1 || js.Classes[0].Exemplars[0].Trace != "t000009" {
		t.Errorf("degraded /debug/errors = %+v", js)
	}
	body := mustGet(t, srv.Addr(), "/debug/health") // degraded still answers 200
	if err := json.Unmarshal([]byte(body), &hs); err != nil {
		t.Fatal(err)
	}
	if hs.Verdict != VerdictDegraded || hs.Ready {
		t.Errorf("degraded /debug/health = %+v", hs)
	}
	if !strings.Contains(body, "t000009") {
		t.Errorf("/debug/health reason missing the journal trace ID:\n%s", body)
	}

	// Both windows hot: failing answers 503 with the snapshot attached.
	smp.Tick() // fast window now sees the error rate
	health.Eval()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/health")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("failing /debug/health status = %d, want 503\n%s", resp.StatusCode, body2)
	}
	if err := json.Unmarshal(body2, &hs); err != nil || hs.Verdict != VerdictFailing {
		t.Errorf("failing /debug/health body = %+v (%v)", hs, err)
	}
}

// TestServeCloseStopsHealthAndFlushesLogs extends the shutdown
// contract: Close must freeze the SLO evaluator (no late tick flips the
// verdict after shutdown) and flush the log sink so the run's last
// events are on disk before Close returns.
func TestServeCloseStopsHealthAndFlushesLogs(t *testing.T) {
	st := testStack(t, StackConfig{})
	reg, journal, health := st.Registry(), st.Journal, st.Health
	var logBuf syncBuffer
	st.Sink = NewLineSink(&logBuf)
	logger := NewLogger(st.Sink, 0)

	srv, err := ServeWith("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("last words") // buffered in the sink, not yet flushed
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if !health.Stopped() {
		t.Error("Close did not stop the health evaluator")
	}
	if got := logBuf.String(); !strings.Contains(got, "last words") {
		t.Errorf("Close did not flush the log sink; got %q", got)
	}
	// A late sampler tick after Close must not re-evaluate the verdict.
	reg.Counter("dataset.clips_streamed").Add(1)
	journal.Record(ErrClassDecode, "t000001", "late", -1, "late error")
	health.Eval()
	if got := health.Health(); got != VerdictReady {
		t.Errorf("late Eval after Close changed verdict to %v", got)
	}
}

// syncBuffer guards a bytes-like buffer; the sink flushes from Close
// while the test goroutine reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
