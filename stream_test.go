package slj

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
)

// saveCorpus writes ds as an on-disk corpus and returns its root.
func saveCorpus(t *testing.T, ds *Dataset) string {
	t.Helper()
	root := t.TempDir()
	if err := dataset.Save(root, ds); err != nil {
		t.Fatal(err)
	}
	return root
}

// openSplit opens a streaming source over one split of the corpus.
func openSplit(t *testing.T, root, split string) *dataset.DirSource {
	t.Helper()
	src, err := dataset.OpenDir(filepath.Join(root, split))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestStreamingMatchesMaterialized is the streaming layer's golden
// parity test: training and evaluating through lazy DirSources must
// produce byte-identical models and identical summaries/confusions to
// dataset.Load plus the slice APIs on a sequential System, at every
// worker count — while the obs counters prove the clips actually
// streamed and peak decoded-clip residency stayed within the worker
// bound.
func TestStreamingMatchesMaterialized(t *testing.T) {
	ds := smallDataset(t, 71)
	root := saveCorpus(t, ds)

	// Golden: one up-front Load, sequential System slice APIs.
	loaded, err := dataset.Load(root)
	if err != nil {
		t.Fatal(err)
	}
	sys, model := trainGolden(t, loaded)
	wantSum, wantConf, err := sys.Evaluate(loaded.Test)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		scope := obs.NewScope(obs.NewRegistry())
		eng, err := NewEngine(workers, WithObservability(scope))
		if err != nil {
			t.Fatal(err)
		}

		trainSrc := openSplit(t, root, "train")
		err = eng.TrainSource(trainSrc)
		trainSrc.Close()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.SaveModel(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), model) {
			t.Errorf("workers=%d: streamed model differs from materialized sequential", workers)
		}

		testSrc := openSplit(t, root, "test")
		sum, conf, err := eng.EvaluateSource(testSrc)
		testSrc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sum, wantSum) {
			t.Errorf("workers=%d: streamed summary differs from materialized sequential", workers)
		}
		if !reflect.DeepEqual(*conf, *wantConf) {
			t.Errorf("workers=%d: streamed confusion differs from materialized sequential", workers)
		}

		snap := scope.Registry().Snapshot()
		counters := map[string]int64{}
		for _, c := range snap.Counters {
			counters[c.Name] = c.Value
		}
		gauges := map[string]int64{}
		for _, g := range snap.Gauges {
			gauges[g.Name] = g.Value
		}
		if want := int64(len(loaded.Train) + len(loaded.Test)); counters["dataset.clips_streamed"] != want {
			t.Errorf("workers=%d: dataset.clips_streamed = %d, want %d",
				workers, counters["dataset.clips_streamed"], want)
		}
		peak := gauges["engine.clips_in_flight"]
		if peak < 1 || peak > int64(workers) {
			t.Errorf("workers=%d: peak clips in flight = %d, want in [1,%d]", workers, peak, workers)
		}
		decoded := false
		for _, h := range snap.Histograms {
			if h.Name == "dataset.decode_ns" && h.Count > 0 {
				decoded = true
			}
		}
		if !decoded {
			t.Errorf("workers=%d: dataset.decode_ns recorded no decodes", workers)
		}
	}
}

// TestStreamingEvaluateCorruptClip garbles one clip in the middle of
// the test split and checks that the streaming evaluation fails with an
// error naming that clip — at both the sequential and the parallel
// worker count — instead of hanging or reporting a partial summary.
func TestStreamingEvaluateCorruptClip(t *testing.T) {
	ds, err := GenerateDataset(dataset.GenOptions{
		TrainClips: 2, TestClips: 3, Seed: 72, FaultEvery: 0, VaryBody: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := saveCorpus(t, ds)
	_, model := trainGolden(t, ds)

	// Garble a frame image of the middle test clip: the clip header
	// still opens, so the failure surfaces mid-stream, inside a worker.
	victim := filepath.Join(root, "test", "test-01", "frame-002.ppm")
	if err := os.WriteFile(victim, []byte("not a ppm"), 0o644); err != nil {
		t.Fatal(err)
	}

	var want string
	for _, workers := range []int{1, 4, 8} {
		eng, err := NewEngine(workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadModel(bytes.NewReader(model)); err != nil {
			t.Fatal(err)
		}
		src := openSplit(t, root, "test")
		_, _, err = eng.EvaluateSource(src)
		src.Close()
		if err == nil {
			t.Fatalf("workers=%d: corrupt clip evaluated without error", workers)
		}
		if !strings.Contains(err.Error(), "test-01") {
			t.Errorf("workers=%d: error %q does not name the corrupt clip test-01", workers, err)
		}
		// The message must not depend on the worker count.
		if workers == 1 {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("workers=%d: error %q differs from sequential error %q", workers, err, want)
		}
	}
}

// TestStreamingSourceErrorMessageParity garbles a clip HEADER — so the
// failure surfaces in the source pull (Next) rather than inside a
// worker's frame loop — and pins the error text across worker counts:
// the sequential delegates wrap source errors with the package prefix
// ("slj: ..."), and the parallel MapSource paths must report the
// byte-identical message at workers 8.
func TestStreamingSourceErrorMessageParity(t *testing.T) {
	ds, err := GenerateDataset(dataset.GenOptions{
		TrainClips: 2, TestClips: 3, Seed: 72, FaultEvery: 0, VaryBody: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := saveCorpus(t, ds)
	_, model := trainGolden(t, ds)

	// Garbling the background makes OpenClip — and therefore Next — fail.
	victim := filepath.Join(root, "test", "test-01", "background.ppm")
	if err := os.WriteFile(victim, []byte("not a ppm"), 0o644); err != nil {
		t.Fatal(err)
	}

	calls := []struct {
		name string
		run  func(e *Engine, src dataset.ClipSource) error
	}{
		{"EvaluateSource", func(e *Engine, src dataset.ClipSource) error {
			_, _, err := e.EvaluateSource(src)
			return err
		}},
		{"ClassifyAllSource", func(e *Engine, src dataset.ClipSource) error {
			_, err := e.ClassifyAllSource(src)
			return err
		}},
	}
	for _, call := range calls {
		var want string
		for _, workers := range []int{1, 8} {
			eng, err := NewEngine(workers)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.LoadModel(bytes.NewReader(model)); err != nil {
				t.Fatal(err)
			}
			src := openSplit(t, root, "test")
			err = call.run(eng, src)
			src.Close()
			if err == nil {
				t.Fatalf("%s workers=%d: corrupt header streamed without error", call.name, workers)
			}
			if !strings.Contains(err.Error(), "test-01") {
				t.Errorf("%s workers=%d: error %q does not name the corrupt clip", call.name, workers, err)
			}
			if !strings.HasPrefix(err.Error(), "slj: ") {
				t.Errorf("%s workers=%d: error %q lacks the package prefix", call.name, workers, err)
			}
			if workers == 1 {
				want = err.Error()
			} else if err.Error() != want {
				t.Errorf("%s workers=%d: error %q differs from sequential error %q",
					call.name, workers, err, want)
			}
		}
	}
}

// TestExtractionSkipsGroundTruthSilhouettes checks that the extraction
// path never reads a streamed clip's saved silhouettes: with every
// silhouette file of the test clip removed, and one of them replaced by
// a symlink loop that cannot be opened, evaluation and jump measurement
// give exactly the results of the intact clip. Ground-truth mode, which
// does need the files, still rejects the loop as corrupt.
func TestExtractionSkipsGroundTruthSilhouettes(t *testing.T) {
	ds, err := GenerateDataset(dataset.GenOptions{TrainClips: 2, TestClips: 1, Seed: 73, VaryBody: true})
	if err != nil {
		t.Fatal(err)
	}
	root := saveCorpus(t, ds)
	sys, _ := trainGolden(t, ds)
	clip := filepath.Join(root, "test", ds.Test[0].Name)
	type result struct {
		sum  any
		conf any
		jump any
	}
	run := func() result {
		src := openSplit(t, root, "test")
		defer src.Close()
		sum, conf, err := sys.EvaluateSource(src)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := dataset.OpenClip(clip)
		if err != nil {
			t.Fatal(err)
		}
		jump, err := sys.MeasureJump(cr.Labeled())
		if err != nil {
			t.Fatal(err)
		}
		return result{sum, *conf, jump}
	}
	want := run()

	sils, err := filepath.Glob(filepath.Join(clip, "silhouette-*.pbm"))
	if err != nil || len(sils) == 0 {
		t.Fatalf("no silhouette files under %s (err %v)", clip, err)
	}
	for _, f := range sils {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := run(); !reflect.DeepEqual(got, want) {
		t.Errorf("results without silhouette files differ:\n got %+v\nwant %+v", got, want)
	}

	// A self-referencing symlink opens with ELOOP, not fs.ErrNotExist.
	if err := os.Symlink(sils[0], sils[0]); err != nil {
		t.Skipf("cannot create symlink: %v", err)
	}
	if got := run(); !reflect.DeepEqual(got, want) {
		t.Errorf("results with a corrupt silhouette differ:\n got %+v\nwant %+v", got, want)
	}
	gt, err := NewSystem(WithGroundTruthSilhouettes(true))
	if err != nil {
		t.Fatal(err)
	}
	cr, err := dataset.OpenClip(clip)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gt.ClassifyClip(cr.Labeled()); !errors.Is(err, dataset.ErrCorrupt) {
		t.Errorf("ground-truth mode on a corrupt silhouette: err = %v, want ErrCorrupt", err)
	}
}
