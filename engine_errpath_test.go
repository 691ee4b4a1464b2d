package slj

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/imaging"
	"repro/internal/synth"
)

// TestFrameParallelErrorReleasesPooledSilhouettes corrupts two frames
// of a clip, one early and one late, and classifies it through the
// Engine's frame fan-out. With contiguous ranges the two failures land
// in different ranges, and the lowest range's error is reported: it must
// read exactly as System.ClassifyClip's on the same clip. Every
// silhouette extracted before a failure must go back to the imaging
// pool, and every borrowed System to the engine pool. A long-lived
// server classifying corrupt uploads would otherwise bleed both.
//
// The first (warm-up) run lets every lazily-acquired escaping buffer
// settle; the second run must then be perfectly balanced.
func TestFrameParallelErrorReleasesPooledSilhouettes(t *testing.T) {
	ds, err := GenerateDataset(dataset.GenOptions{
		TrainClips: 1, TestClips: 1, Seed: 73, FaultEvery: 0, VaryBody: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := saveCorpus(t, ds)
	for _, frame := range []string{"frame-002.ppm", "frame-030.ppm"} {
		victim := filepath.Join(root, "test", "test-00", frame)
		if err := os.WriteFile(victim, []byte("not a ppm"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	src := openSplit(t, root, "test")
	defer src.Close()
	lc, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(lc.Clip.Frames); n <= 30 {
		t.Fatalf("clip has %d frames, want more than 30", n)
	}

	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	_, want := sys.ClassifyClip(lc)
	if want == nil {
		t.Fatal("corrupt clip classified without error")
	}

	for _, workers := range []int{2, 8} {
		eng, err := NewEngine(workers)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ClassifyClip(lc); err == nil {
			t.Fatalf("workers=%d: corrupt clip classified without error", workers)
		}

		before := imaging.PoolBalance()
		_, err = eng.ClassifyClip(lc)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, want)
		}
		if leaked := imaging.PoolBalance() - before; leaked != 0 {
			t.Errorf("workers=%d: error path leaked %d pooled buffers (pool gets != puts across the failed clip)", workers, leaked)
		}
		if got := eng.PoolFree(); got != eng.Workers() {
			t.Errorf("workers=%d: %d Systems free after the failed clip, want %d", workers, got, eng.Workers())
		}
		if got := eng.CheckedOut(); got != 0 {
			t.Errorf("workers=%d: %d clips still checked out, want 0", workers, got)
		}
	}
}

// TestMeasureJumpReleasesPooledSilhouettes pins that MeasureJump returns
// every silhouette the extractor hands it: a repeated measurement leaves
// the imaging pool balance where it was.
func TestMeasureJumpReleasesPooledSilhouettes(t *testing.T) {
	ds, err := GenerateDataset(dataset.GenOptions{
		TrainClips: 1, TestClips: 1, Seed: 73, FaultEvery: 0, VaryBody: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.MeasureJump(ds.Test[0]); err != nil {
		t.Fatal(err)
	}
	before := imaging.PoolBalance()
	if _, err := sys.MeasureJump(ds.Test[0]); err != nil {
		t.Fatal(err)
	}
	if leaked := imaging.PoolBalance() - before; leaked != 0 {
		t.Fatalf("MeasureJump leaked %d pooled buffers over a %d-frame clip", leaked, len(ds.Test[0].Clip.Frames))
	}
}

// TestBatchErrorReleasesPooledSilhouettes is the sequential-path twin:
// clipSilhouettes must release already-extracted silhouettes when a
// later frame fails to decode.
func TestBatchErrorReleasesPooledSilhouettes(t *testing.T) {
	ds, err := GenerateDataset(dataset.GenOptions{
		TrainClips: 1, TestClips: 1, Seed: 74, FaultEvery: 0, VaryBody: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := saveCorpus(t, ds)
	victim := filepath.Join(root, "test", "test-00", "frame-002.ppm")
	if err := os.WriteFile(victim, []byte("not a ppm"), 0o644); err != nil {
		t.Fatal(err)
	}

	src := openSplit(t, root, "test")
	defer src.Close()
	lc, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}

	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ClassifyClip(lc); err == nil {
		t.Fatal("corrupt clip classified without error")
	}

	before := imaging.PoolBalance()
	if _, err := sys.ClassifyClip(lc); err == nil {
		t.Fatal("corrupt clip classified without error")
	}
	if leaked := imaging.PoolBalance() - before; leaked != 0 {
		t.Fatalf("batch error path leaked %d pooled buffers", leaked)
	}
}

// noBackgroundClip builds a clip that fails classification immediately:
// with extraction enabled and no background frame, silhouetteSource
// errors before any frame is read.
func noBackgroundClip(t *testing.T, seed int64) dataset.LabeledClip {
	t.Helper()
	clip, err := synth.Generate(synth.DefaultSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	return dataset.LabeledClip{
		Name: "no-background",
		Clip: &synth.Clip{Frames: clip.Frames},
	}
}

// TestSequentialAbortChecksClipBackIn pins the seqTracked fix: when the
// consumer aborts early on a classify error — or closes the source
// before io.EOF — the last pulled clip must be checked back in, leaving
// the engine's inflight accounting at zero. A long-lived server reads
// that count for admission decisions, so a stuck checkout is a slow
// capacity leak.
func TestSequentialAbortChecksClipBackIn(t *testing.T) {
	eng, err := NewEngine(1)
	if err != nil {
		t.Fatal(err)
	}
	bad := noBackgroundClip(t, 75)

	t.Run("evaluate-error", func(t *testing.T) {
		_, _, err := eng.EvaluateSource(dataset.Materialized([]dataset.LabeledClip{bad}))
		if err == nil {
			t.Fatal("clip without background evaluated without error")
		}
		if got := eng.CheckedOut(); got != 0 {
			t.Fatalf("after aborted EvaluateSource: %d clips still checked out, want 0", got)
		}
	})

	t.Run("classify-all-error", func(t *testing.T) {
		_, err := eng.ClassifyAllSource(dataset.Materialized([]dataset.LabeledClip{bad}))
		if err == nil {
			t.Fatal("clip without background classified without error")
		}
		if got := eng.CheckedOut(); got != 0 {
			t.Fatalf("after aborted ClassifyAllSource: %d clips still checked out, want 0", got)
		}
	})

	t.Run("close-before-eof", func(t *testing.T) {
		ts := eng.seqSource(dataset.Materialized([]dataset.LabeledClip{bad, bad}))
		if _, err := ts.Next(); err != nil {
			t.Fatal(err)
		}
		if got := eng.CheckedOut(); got != 1 {
			t.Fatalf("after Next: %d clips checked out, want 1", got)
		}
		if err := ts.Close(); err != nil {
			t.Fatal(err)
		}
		if got := eng.CheckedOut(); got != 0 {
			t.Fatalf("after Close: %d clips still checked out, want 0", got)
		}
	})

	t.Run("train-error", func(t *testing.T) {
		err := eng.TrainSource(dataset.Materialized([]dataset.LabeledClip{bad}))
		if err == nil {
			t.Fatal("clip without background trained without error")
		}
		if got := eng.CheckedOut(); got != 0 {
			t.Fatalf("after aborted TrainSource: %d clips still checked out, want 0", got)
		}
	})

	// EOF without error must stay balanced too (the pre-existing path).
	t.Run("clean-eof", func(t *testing.T) {
		ts := eng.seqSource(dataset.Materialized(nil))
		if _, err := ts.Next(); err != io.EOF {
			t.Fatalf("Next = %v, want io.EOF", err)
		}
		if got := eng.CheckedOut(); got != 0 {
			t.Fatalf("after EOF: %d clips checked out, want 0", got)
		}
	})
}
