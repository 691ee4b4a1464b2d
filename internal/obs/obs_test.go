package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrentCounters drives one shared counter, gauge and
// histogram from many goroutines; totals must be exact. Run under
// `go test -race ./internal/obs/` (the Makefile race target includes
// this package).
func TestRegistryConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("c")
			g := reg.Gauge("g")
			h := reg.Histogram("h", LatencyBounds)
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := reg.Gauge("g").Value(); got != goroutines*perG {
		t.Errorf("gauge = %d, want %d", got, goroutines*perG)
	}
	h := reg.Histogram("h", nil)
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	wantSum := int64(goroutines) * perG * (perG - 1) / 2
	if got := h.Sum(); got != wantSum {
		t.Errorf("histogram sum = %d, want %d", got, wantSum)
	}
	snap := h.Snapshot()
	var bucketTotal int64
	for _, b := range snap.Buckets {
		bucketTotal += b
	}
	if bucketTotal != goroutines*perG {
		t.Errorf("bucket total = %d, want %d", bucketTotal, goroutines*perG)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	// Bucket i counts v <= bounds[i]; the 4th bucket is overflow.
	cases := []struct {
		v    int64
		want int // bucket index
	}{
		{-5, 0}, {0, 0}, {9, 0}, {10, 0}, // at-bound lands low
		{11, 1}, {100, 1},
		{101, 2}, {1000, 2},
		{1001, 3}, {1 << 40, 3},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	snap := h.Snapshot()
	want := make([]int64, 4)
	for _, c := range cases {
		want[c.want]++
	}
	for i := range want {
		if snap.Buckets[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (layout %v)", i, snap.Buckets[i], want[i], snap.Bounds)
		}
	}
	if snap.Count != int64(len(cases)) {
		t.Errorf("count = %d, want %d", snap.Count, len(cases))
	}
}

func TestLatencyBoundsAscending(t *testing.T) {
	for _, bounds := range [][]int64{LatencyBounds, AllocBounds} {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("bounds not ascending at %d: %v", i, bounds)
			}
		}
	}
}

// TestNilInstrumentsZeroAlloc is the disabled-path contract: with a nil
// scope every instrument call, span and health hook must allocate
// nothing (this is what keeps bench_test.go's per-frame allocs/op flat
// when observability is off).
func TestNilInstrumentsZeroAlloc(t *testing.T) {
	var sc *Scope
	allocs := testing.AllocsPerRun(100, func() {
		sp := sc.Start(StageThin)
		sc.FrameDone()
		sc.Pruned(3)
		sc.ThinPasses(7)
		sc.GraphStats(1, 2)
		sc.KeyPointMiss(true, false)
		sc.HandAbsent()
		sc.Decision(2, -1, true)
		sc.AcquireStall(time.Millisecond)
		sc.PoolFree(4)
		if ps := sc.Parallel(); ps != nil {
			ps.Items.Inc()
		}
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("nil-scope instrumentation allocates %.1f allocs/op, want 0", allocs)
	}
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs = testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(2)
		g.Max(3)
		h.Observe(4)
	})
	if allocs != 0 {
		t.Errorf("nil instruments allocate %.1f allocs/op, want 0", allocs)
	}
}

// TestEnabledSpanZeroAlloc: with a live scope the span/counter hot path
// stays allocation-free — overhead is clock reads and atomic adds only —
// and so does writing each span as a debug event on the log sink.
func TestEnabledSpanZeroAlloc(t *testing.T) {
	sc := NewScope(NewRegistry())
	spans := NewScope(NewRegistry())
	spans.SetLogger(NewLogger(NewLineSink(io.Discard), slog.LevelDebug))
	for name, sc := range map[string]*Scope{"no logger": sc, "debug span events": spans.WithClip("clip")} {
		allocs := testing.AllocsPerRun(100, func() {
			sp := sc.Start(StageGraph)
			sc.FrameDone()
			sc.Decision(1, -1, false)
			sp.End()
		})
		if allocs != 0 {
			t.Errorf("%s: enabled span path allocates %.1f allocs/op, want 0", name, allocs)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	reg := NewRegistry()
	sc := NewScope(reg)
	sc.FrameDone()
	sc.Decision(3, -1, true)
	sc.Start(StageDetect).End()
	var a, b bytes.Buffer
	if err := reg.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two snapshots of an idle registry differ")
	}
	var snap Snapshot
	if err := json.Unmarshal(a.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	names := make(map[string]int64)
	for _, c := range snap.Counters {
		names[c.Name] = c.Value
	}
	if names["pipeline.frames"] != 1 {
		t.Errorf("pipeline.frames = %d, want 1", names["pipeline.frames"])
	}
	if names["pipeline.unknown.stage3"] != 1 || names["pipeline.decided.stage3"] != 1 {
		t.Errorf("stage-3 decision counters = %d/%d, want 1/1",
			names["pipeline.decided.stage3"], names["pipeline.unknown.stage3"])
	}
	found := false
	for _, h := range snap.Histograms {
		if h.Name == "stage.detect.ns" && h.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Error("stage.detect.ns histogram missing or empty in snapshot")
	}
}

func TestRegistryFuncMetrics(t *testing.T) {
	reg := NewRegistry()
	v := int64(41)
	reg.RegisterFunc("ext.value", func() int64 { return v })
	v = 42
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		if c.Name == "ext.value" {
			if c.Value != 42 {
				t.Errorf("func metric = %d, want 42 (must be read at snapshot time)", c.Value)
			}
			return
		}
	}
	t.Error("func metric missing from snapshot")
}

// TestSpanEventsJSONL: with a debug-level logger every ended span is one
// DEBUG event on the log sink carrying the clip, trace, stage and
// duration; at info level spans write nothing.
func TestSpanEventsJSONL(t *testing.T) {
	var buf bytes.Buffer
	sink := NewLineSink(&buf)
	root := NewScope(NewRegistry())
	root.SetLogger(NewLogger(sink, slog.LevelInfo))
	root.Start(StageDetect).End()
	root.SetLogger(NewLogger(sink, slog.LevelDebug))
	sc := root.WithClip(`clip "7"`)
	sc.Start(StageThin).End()
	sc.Start(StageClassify).End()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d span lines, want 2 (none at info level): %q", len(lines), buf.String())
	}
	wantStages := []string{"thin", "classify"}
	for i, line := range lines {
		var rec struct {
			TUS   int64  `json:"t_us"`
			Level string `json:"level"`
			Msg   string `json:"msg"`
			Clip  string `json:"clip"`
			Trace string `json:"trace"`
			Stage string `json:"stage"`
			NS    int64  `json:"ns"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v: %s", i, err, line)
		}
		if rec.Stage != wantStages[i] {
			t.Errorf("line %d stage = %q, want %q", i, rec.Stage, wantStages[i])
		}
		if rec.Clip != `clip "7"` {
			t.Errorf("line %d clip = %q (quoting broken?)", i, rec.Clip)
		}
		if rec.Level != "DEBUG" || rec.Msg != "span" || rec.Trace != sc.TraceID() {
			t.Errorf("line %d = %s, want a DEBUG span event with trace %s", i, line, sc.TraceID())
		}
		if rec.NS < 0 {
			t.Errorf("line %d ns = %d, want >= 0", i, rec.NS)
		}
	}
}

func TestServeEndpoints(t *testing.T) {
	st := testStack(t, StackConfig{SampleInterval: -1})
	st.Registry().Counter("served.metric").Add(7)
	srv, err := ServeWith("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if body := mustGet(t, srv.Addr(), "/debug/metrics"); !strings.Contains(body, "served.metric") {
		t.Errorf("/debug/metrics missing metric: %s", body)
	}
	if body := mustGet(t, srv.Addr(), "/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline returned nothing")
	}
	// Without a sampler there is no series and no verdict to serve.
	for _, path := range []string{"/debug/timeseries", "/debug/health"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without a sampler: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestStageString(t *testing.T) {
	want := map[Stage]string{
		StageDetect: "detect", StageSmooth: "smooth", StageThin: "thin",
		StageGraph: "graph", StageKeyPoint: "keypoint", StageClassify: "classify",
		Stage(99): "unknown",
	}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("Stage(%d).String() = %q, want %q", st, st.String(), name)
		}
	}
}
