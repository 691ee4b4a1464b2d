package slj

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// trainGolden trains a sequential System on ds.Train and returns the
// serialised model plus the system itself.
func trainGolden(t *testing.T, ds *Dataset, opts ...Option) (*System, []byte) {
	t.Helper()
	sys, err := NewSystem(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(ds.Train); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	return sys, buf.Bytes()
}

func TestEngineTrainMatchesSequential(t *testing.T) {
	ds := smallDataset(t, 61)
	_, want := trainGolden(t, ds)
	for _, workers := range []int{1, 2, 8} {
		eng, err := NewEngine(workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Train(ds.Train); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.SaveModel(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("workers=%d: trained model differs from sequential", workers)
		}
	}
}

func TestEngineEvaluateMatchesSequential(t *testing.T) {
	ds := smallDataset(t, 62)
	sys, model := trainGolden(t, ds)
	wantSum, wantConf, err := sys.Evaluate(ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		eng, err := NewEngine(workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadModel(bytes.NewReader(model)); err != nil {
			t.Fatal(err)
		}
		sum, conf, err := eng.Evaluate(ds.Test)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sum, wantSum) {
			t.Errorf("workers=%d: summary differs from sequential", workers)
		}
		if !reflect.DeepEqual(*conf, *wantConf) {
			t.Errorf("workers=%d: confusion matrix differs from sequential", workers)
		}
	}
}

func TestEngineClassifyClipMatchesSequential(t *testing.T) {
	ds := smallDataset(t, 63)
	_, model := trainGolden(t, ds)
	variants := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"ground-truth-sils", []Option{WithGroundTruthSilhouettes(true)}},
		{"auto-orient", []Option{WithAutoOrient(true)}}, // buffered single-System path
	}
	for _, v := range variants {
		seq, err := NewSystem(v.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := seq.LoadModel(bytes.NewReader(model)); err != nil {
			t.Fatal(err)
		}
		// A clip shorter than the worker count: at workers 8 it gets
		// one frame per System and leaves Systems unborrowed.
		short := ds.Test[0]
		short.Name += "-short"
		short.Clip = &Clip{Background: short.Clip.Background, Frames: short.Clip.Frames[:3]}
		for _, lc := range []LabeledClip{ds.Test[0], short} {
			want, err := seq.ClassifyClip(lc)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				eng, err := NewEngine(workers, v.opts...)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.LoadModel(bytes.NewReader(model)); err != nil {
					t.Fatal(err)
				}
				got, err := eng.ClassifyClip(lc)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s workers=%d: clip results differ from sequential", v.name, lc.Name, workers)
				}
			}
		}
	}
}

func TestEngineClassifyAllMatchesSequential(t *testing.T) {
	ds := smallDataset(t, 64)
	sys, model := trainGolden(t, ds)
	want := make([][]Result, len(ds.Test))
	for i, lc := range ds.Test {
		res, err := sys.ClassifyClip(lc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	eng, err := NewEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadModel(bytes.NewReader(model)); err != nil {
		t.Fatal(err)
	}
	got, err := eng.ClassifyAll(ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("ClassifyAll differs from sequential per-clip classification")
	}
}

func TestEngineWorkersResolution(t *testing.T) {
	eng, err := NewEngine(3)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Workers() != 3 {
		t.Errorf("Workers() = %d, want 3", eng.Workers())
	}
	auto, err := NewEngine(0)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Workers() < 1 {
		t.Errorf("auto worker count = %d, want >= 1", auto.Workers())
	}
	if auto.System() == nil {
		t.Error("System() returned nil")
	}
}

// TestEngineObservedMatchesSequential pins the observability contract:
// with a full scope attached — registry, health counters AND a debug-
// level event log, so every span is a JSONL event — engine results stay bit-identical to the uninstrumented
// sequential path at every worker count, while the instruments actually
// record the work.
func TestEngineObservedMatchesSequential(t *testing.T) {
	ds := smallDataset(t, 65)
	sys, model := trainGolden(t, ds)
	wantSum, wantConf, err := sys.Evaluate(ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		var spans bytes.Buffer
		scope := obs.NewScope(obs.NewRegistry())
		sink := obs.NewLineSink(&spans)
		scope.SetLogger(obs.NewLogger(sink, slog.LevelDebug))
		eng, err := NewEngine(workers, WithObservability(scope))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadModel(bytes.NewReader(model)); err != nil {
			t.Fatal(err)
		}
		sum, conf, err := eng.Evaluate(ds.Test)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sum, wantSum) {
			t.Errorf("workers=%d: instrumented summary differs from sequential", workers)
		}
		if !reflect.DeepEqual(*conf, *wantConf) {
			t.Errorf("workers=%d: instrumented confusion matrix differs from sequential", workers)
		}

		snap := scope.Registry().Snapshot()
		counters := map[string]int64{}
		for _, c := range snap.Counters {
			counters[c.Name] = c.Value
		}
		wantFrames := int64(0)
		for _, lc := range ds.Test {
			wantFrames += int64(len(lc.Clip.Frames))
		}
		if got := counters["pipeline.frames"]; got != wantFrames {
			t.Errorf("workers=%d: pipeline.frames = %d, want %d", workers, got, wantFrames)
		}
		decided := int64(0)
		for _, c := range snap.Counters {
			if strings.HasPrefix(c.Name, "pipeline.decided.") {
				decided += c.Value
			}
		}
		if decided != wantFrames {
			t.Errorf("workers=%d: decided frames = %d, want %d", workers, decided, wantFrames)
		}
		histCount := map[string]int64{}
		for _, h := range snap.Histograms {
			histCount[h.Name] = h.Count
		}
		for _, stage := range []string{"thin", "graph", "classify"} {
			if histCount["stage."+stage+".ns"] != wantFrames {
				t.Errorf("workers=%d: stage.%s.ns count = %d, want %d",
					workers, stage, histCount["stage."+stage+".ns"], wantFrames)
			}
		}

		// Every event is well-formed JSON, and every span event carries a
		// stage and a test clip label.
		spanLines := int64(0)
		for _, line := range strings.Split(strings.TrimSpace(spans.String()), "\n") {
			var rec struct {
				Msg   string `json:"msg"`
				Clip  string `json:"clip"`
				Stage string `json:"stage"`
				NS    int64  `json:"ns"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("workers=%d: bad event %q: %v", workers, line, err)
			}
			if rec.Msg != "span" {
				continue // a debug log event (dbn unknown, key-point miss)
			}
			spanLines++
			if rec.Stage == "" || !strings.HasPrefix(rec.Clip, "test-") {
				t.Fatalf("workers=%d: span record %q missing stage or clip label", workers, line)
			}
		}
		if spanLines < wantFrames {
			t.Fatalf("workers=%d: %d span records, want >= %d", workers, spanLines, wantFrames)
		}
	}
}

// TestEngineSampledReportMatchesSequential extends the observability
// contract to the consumption layer: with a live Sampler snapshotting
// the registry at a tiny interval AND an end-of-run report, engine
// results stay bit-identical to the uninstrumented sequential path,
// and the report's stage quantiles agree exactly with quantiles
// computed from the registry's final histogram snapshots.
func TestEngineSampledReportMatchesSequential(t *testing.T) {
	ds := smallDataset(t, 65)
	sys, model := trainGolden(t, ds)
	wantSum, wantConf, err := sys.Evaluate(ds.Test)
	if err != nil {
		t.Fatal(err)
	}

	scope := obs.NewScope(obs.NewRegistry())
	smp := obs.NewSampler(scope.Registry(), time.Millisecond, 64)
	smp.Start()
	eng, err := NewEngine(4, WithObservability(scope))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadModel(bytes.NewReader(model)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	sum, conf, err := eng.Evaluate(ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	smp.Stop()

	if !reflect.DeepEqual(sum, wantSum) {
		t.Error("sampled run summary differs from sequential")
	}
	if !reflect.DeepEqual(*conf, *wantConf) {
		t.Error("sampled run confusion matrix differs from sequential")
	}

	// The sampler observed the run: its final tick carries the lifetime
	// frame count spread across the sampled windows.
	ts := smp.Series()
	if ts.Ticks < 1 {
		t.Fatalf("sampler ticks = %d, want >= 1", ts.Ticks)
	}
	if _, ok := ts.Latest("pipeline.frames.rate"); !ok {
		t.Error("pipeline.frames.rate series missing after a sampled run")
	}

	// The run report derives from the very snapshot it claims to
	// summarise.
	snap := scope.Registry().Snapshot()
	rep := obs.BuildRunReport(snap, time.Since(start), time.Now())
	wantFrames := int64(0)
	for _, lc := range ds.Test {
		wantFrames += int64(len(lc.Clip.Frames))
	}
	if rep.Frames != wantFrames {
		t.Errorf("report frames = %d, want %d", rep.Frames, wantFrames)
	}
	byName := map[string]obs.HistogramSnapshot{}
	for _, h := range snap.Histograms {
		byName[h.Name] = h.HistogramSnapshot
	}
	if len(rep.Stages) != len(byName) {
		t.Fatalf("report stages = %d, want %d", len(rep.Stages), len(byName))
	}
	for _, st := range rep.Stages {
		hs, ok := byName[st.Name]
		if !ok {
			t.Errorf("report stage %q has no registry histogram", st.Name)
			continue
		}
		if st.Count != hs.Count {
			t.Errorf("report %s count = %d, registry %d", st.Name, st.Count, hs.Count)
		}
		for _, q := range []struct {
			got float64
			q   float64
		}{{st.P50NS, 0.50}, {st.P95NS, 0.95}, {st.P99NS, 0.99}} {
			if want := hs.Quantile(q.q); q.got != want {
				t.Errorf("report %s q%.0f = %v, registry quantile %v", st.Name, q.q*100, q.got, want)
			}
		}
	}
}

func TestEngineTrainRequiresClips(t *testing.T) {
	eng, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Train(nil); err == nil {
		t.Error("empty training set accepted")
	}
}
