package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestSamplerDerivesRates drives the sampler with explicit windows and
// checks the derived series against exact values.
func TestSamplerDerivesRates(t *testing.T) {
	reg := NewRegistry()
	frames := reg.Counter("pipeline.frames")
	clips := reg.Counter("pipeline.clips")
	depth := reg.Gauge("engine.pool_free")
	thin := reg.Histogram("stage.thin.ns", []int64{10, 100, 1000})

	s := NewSampler(reg, time.Second, 8)
	// Baseline: empty registry.
	s.sample(reg.Snapshot(), time.Second)

	frames.Add(100)
	clips.Add(10)
	depth.Set(4)
	thin.Observe(50)
	thin.Observe(50)
	s.sample(reg.Snapshot(), 2*time.Second)

	ts := s.Series()
	if ts.Ticks != 2 {
		t.Errorf("ticks = %d, want 2", ts.Ticks)
	}
	check := func(name string, want float64) {
		t.Helper()
		got, ok := ts.Latest(name)
		if !ok {
			t.Errorf("series %q missing", name)
			return
		}
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("pipeline.frames.rate", 50) // 100 frames / 2 s
	check("derived.frames_per_s", 50)
	check("pipeline.clips.rate", 5)
	check("derived.clips_per_s", 5)
	check("engine.pool_free", 4)
	check("stage.thin.ns.rate", 1) // 2 observations / 2 s

	// The windowed histogram quantiles cover only this interval's two
	// observations, both in (10,100].
	p50, ok := ts.Latest("stage.thin.ns.p50")
	if !ok || p50 <= 10 || p50 > 100 {
		t.Errorf("stage.thin.ns.p50 = %v (ok=%v), want within (10,100]", p50, ok)
	}

	// A third, idle window: rates drop to zero, the gauge holds.
	s.sample(reg.Snapshot(), time.Second)
	ts = s.Series()
	check2 := func(name string, want float64) {
		t.Helper()
		if got, _ := ts.Latest(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check2("pipeline.frames.rate", 0)
	check2("engine.pool_free", 4)
	check2("stage.thin.ns.p50", 0) // no observations this window
}

func TestRingWraparound(t *testing.T) {
	r := newRing(3)
	for i := 1; i <= 5; i++ {
		r.push(float64(i))
	}
	got := r.points()
	want := []float64{3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("points = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("points = %v, want %v", got, want)
		}
	}
}

// TestSamplerWindowBounded: the ring never exceeds its window no matter
// how many ticks pass.
func TestSamplerWindowBounded(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("pipeline.frames")
	s := NewSampler(reg, time.Second, 4)
	for i := 0; i < 20; i++ {
		c.Inc()
		s.sample(reg.Snapshot(), time.Second)
	}
	ts := s.Series()
	if ts.Ticks != 20 {
		t.Errorf("ticks = %d, want 20", ts.Ticks)
	}
	for _, series := range ts.Series {
		if len(series.Points) > 4 {
			t.Errorf("series %s has %d points, window is 4", series.Name, len(series.Points))
		}
	}
}

// TestSamplerStartStopRace exercises Start/Stop/Tick/Series concurrently
// with live instrument updates; run under -race (the Makefile race
// target includes this package). Also checks Stop's final tick and
// idempotence.
func TestSamplerStartStopRace(t *testing.T) {
	reg := NewRegistry()
	sc := NewScope(reg)
	s := NewSampler(reg, 10*time.Millisecond, 16)
	s.Start()
	s.Start() // double-start is a no-op

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sc.FrameDone()
			sc.Start(StageThin).End()
			sc.Decision(2, -1, false)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.Tick()
			_ = s.Series()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	s.Stop()
	s.Stop() // idempotent

	ts := s.Series()
	if ts.Ticks < 50 {
		t.Errorf("ticks = %d, want >= 50", ts.Ticks)
	}
	if _, ok := ts.Latest("pipeline.frames.rate"); !ok {
		t.Error("pipeline.frames.rate series missing after concurrent run")
	}

	// Nil sampler: everything is a no-op.
	var nilS *Sampler
	nilS.Start()
	nilS.Tick()
	nilS.Stop()
	if got := nilS.Series(); len(got.Series) != 0 {
		t.Error("nil sampler returned series")
	}
}

func TestSamplerJSONDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.metric").Add(1)
	reg.Counter("a.metric").Add(2)
	s := NewSampler(reg, time.Second, 4)
	s.sample(reg.Snapshot(), time.Second)

	var one, two bytes.Buffer
	if err := s.WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Error("two timeseries encodings of an idle sampler differ")
	}
	var ts TimeSeries
	if err := json.Unmarshal(one.Bytes(), &ts); err != nil {
		t.Fatalf("timeseries JSON invalid: %v", err)
	}
	for i := 1; i < len(ts.Series); i++ {
		if ts.Series[i-1].Name >= ts.Series[i].Name {
			t.Errorf("series not sorted: %q before %q", ts.Series[i-1].Name, ts.Series[i].Name)
		}
	}
}
