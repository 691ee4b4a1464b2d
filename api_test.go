package slj

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/thinning"
)

// smallDataset keeps end-to-end tests fast: 4 train clips, 2 test clips.
func smallDataset(t *testing.T, seed int64) *Dataset {
	t.Helper()
	ds, err := GenerateDataset(dataset.GenOptions{
		TrainClips: 4, TestClips: 2, Seed: seed, FaultEvery: 0, VaryBody: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.Classifier().Config().Partitions != 8 {
		t.Error("default partitions != 8")
	}
}

func TestNewSystemBadOptions(t *testing.T) {
	if _, err := NewSystem(WithPartitions(7)); err == nil {
		t.Error("odd partitions accepted")
	}
}

func TestTrainRequiresClips(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(nil); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestAnalyzeFrameRequiresBackground(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(t, 51)
	if _, err := sys.AnalyzeFrame(ds.Test[0].Clip.Frames[0].Image); err == nil {
		t.Error("analysis without background accepted")
	}
}

func TestAnalyzeFrameProducesKeyPoints(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(t, 52)
	lc := ds.Test[0]
	sys.SetBackground(lc.Clip.Background)
	okFrames := 0
	for _, fr := range lc.Clip.Frames {
		fa, err := sys.AnalyzeFrame(fr.Image)
		if err != nil {
			t.Fatal(err)
		}
		if fa.Silhouette == nil || fa.Skeleton == nil {
			t.Fatal("missing analysis products")
		}
		if fa.KeyPointsOK {
			okFrames++
			if fa.Encoding.Partitions != 8 {
				t.Fatal("wrong encoding partitions")
			}
		}
	}
	if frac := float64(okFrames) / float64(len(lc.Clip.Frames)); frac < 0.9 {
		t.Errorf("key points extracted on only %.0f%% of frames, want >= 90%%", 100*frac)
	}
}

func TestEndToEndAccuracy(t *testing.T) {
	// The SEC5 shape check in miniature: train on 4 clips, test on 2,
	// full noisy pipeline. The paper reports 81-87%; with a quarter of
	// the training data we accept a lower floor but still demand the
	// system is clearly working.
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(t, 53)
	if err := sys.Train(ds.Train); err != nil {
		t.Fatal(err)
	}
	sum, conf, err := sys.Evaluate(ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.TotalFrames(); got == 0 {
		t.Fatal("no frames evaluated")
	}
	acc := sum.OverallAccuracy()
	t.Logf("end-to-end accuracy: %.1f%% (unknown rate %.1f%%)\n%s",
		100*acc, 100*conf.UnknownRate(), sum.Table())
	if acc < 0.5 {
		t.Errorf("end-to-end accuracy = %.1f%%, want >= 50%%", 100*acc)
	}
}

func TestGroundTruthSilhouetteAblationIsNoWorse(t *testing.T) {
	ds := smallDataset(t, 54)

	run := func(gt bool) float64 {
		sys, err := NewSystem(WithGroundTruthSilhouettes(gt))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Train(ds.Train); err != nil {
			t.Fatal(err)
		}
		sum, _, err := sys.Evaluate(ds.Test)
		if err != nil {
			t.Fatal(err)
		}
		return sum.OverallAccuracy()
	}
	gtAcc := run(true)
	exAcc := run(false)
	t.Logf("ground-truth silhouettes: %.1f%%, extracted: %.1f%%", 100*gtAcc, 100*exAcc)
	// Extraction noise can help or hurt marginally, but ground truth
	// should never be dramatically worse.
	if gtAcc < exAcc-0.15 {
		t.Errorf("ground-truth ablation much worse (%.2f) than extraction (%.2f)", gtAcc, exAcc)
	}
}

func TestCoachOnStandardJump(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(t, 55)
	if err := sys.Train(ds.Train); err != nil {
		t.Fatal(err)
	}
	rep, seq, err := sys.Coach(ds.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(ds.Test[0].Clip.Frames) {
		t.Fatal("sequence length mismatch")
	}
	t.Logf("coach report:\n%s", rep.String())
	// A standard jump decoded by a working classifier should score
	// reasonably; allow a couple of rule misses from residual
	// classification errors.
	if rep.Score < 50 {
		t.Errorf("standard jump scored %d, want >= 50:\n%s", rep.Score, rep.String())
	}
}

func TestGuoHallVariantRuns(t *testing.T) {
	sys, err := NewSystem(WithThinning(thinning.GuoHall))
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(t, 56)
	if err := sys.TrainClip(ds.Train[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ClassifyClip(ds.Test[0]); err != nil {
		t.Fatal(err)
	}
}

func TestPosesHelper(t *testing.T) {
	if got := Poses(nil); len(got) != 0 {
		t.Error("Poses(nil) should be empty")
	}
}

func TestPartitionsOptionPropagates(t *testing.T) {
	sys, err := NewSystem(WithPartitions(16))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Classifier().Config().Partitions != 16 {
		t.Error("partitions option not propagated to classifier")
	}
	ds := smallDataset(t, 57)
	sys.SetBackground(ds.Test[0].Clip.Background)
	fa, err := sys.AnalyzeFrame(ds.Test[0].Clip.Frames[0].Image)
	if err != nil {
		t.Fatal(err)
	}
	if fa.Encoding.Partitions != 16 {
		t.Errorf("encoding partitions = %d, want 16", fa.Encoding.Partitions)
	}
}

func TestFaultClipGetsFlagged(t *testing.T) {
	// Train including fault poses, then coach a fall-back clip: the
	// report should detect it (allowing for classifier noise, we only
	// require the score to drop or the fault to fire).
	dsTrain, err := GenerateDataset(dataset.GenOptions{
		TrainClips: 6, TestClips: 1, Seed: 58, FaultEvery: 2, VaryBody: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(dsTrain.Train); err != nil {
		t.Fatal(err)
	}
	// Build a fault test clip directly.
	faultDS, err := GenerateDataset(dataset.GenOptions{
		TrainClips: 1, TestClips: 1, Seed: 59, FaultEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := sys.Coach(faultDS.Train[0]) // train-00 with FaultEvery=1 carries a fault
	if err != nil {
		t.Fatal(err)
	}
	hasFaultLabel := false
	for _, fr := range faultDS.Train[0].Clip.Frames {
		if fr.Label.IsFault() {
			hasFaultLabel = true
		}
	}
	if !hasFaultLabel {
		t.Skip("generated clip carries no fault; seed choice")
	}
	t.Logf("fault clip report:\n%s", rep.String())
	if rep.Score == 100 {
		t.Error("fault clip scored a perfect 100; scoring insensitive")
	}
}

func TestViterbiOnClip(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(t, 61)
	if err := sys.Train(ds.Train); err != nil {
		t.Fatal(err)
	}
	lc := ds.Test[0]
	seq, err := sys.ClassifyClipViterbi(lc)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(lc.Clip.Frames) {
		t.Fatalf("viterbi decoded %d frames, want %d", len(seq), len(lc.Clip.Frames))
	}
	correct := 0
	for i, p := range seq {
		if p == lc.Clip.Frames[i].Label {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(seq)); acc < 0.5 {
		t.Errorf("viterbi accuracy = %.2f, want >= 0.5", acc)
	}
}

func TestMeasureJumpOnClip(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(t, 62)
	lc := ds.Test[0]
	m, err := sys.MeasureJump(lc)
	if err != nil {
		t.Fatal(err)
	}
	span := lc.Clip.Spec.JumpSpan
	if m.DistancePx < span*0.5 || m.DistancePx > span*1.6 {
		t.Errorf("measured %v px, spec span %v", m.DistancePx, span)
	}
	if m.BodyHeights <= 0 {
		t.Error("missing body-height normalisation")
	}
}

func TestModelSaveLoadThroughFacade(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(t, 63)
	if err := sys.Train(ds.Train); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	sys2, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	// Both systems must classify the test clip identically.
	a, err := sys.ClassifyClip(ds.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys2.ClassifyClip(ds.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Pose != b[i].Pose {
			t.Fatalf("frame %d diverged after model reload: %v vs %v", i, a[i].Pose, b[i].Pose)
		}
	}
}

func TestLoadModelGarbage(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadModel(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage model accepted")
	}
}

func TestRemainingOptions(t *testing.T) {
	// Exercise the option plumbing end to end.
	cfg := DefaultClassifierConfig()
	cfg.ThPose = 0.4
	sys, err := NewSystem(
		WithPruneLen(12),
		WithClassifierConfig(cfg),
		WithExtractorOptions(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Classifier().Config().ThPose != 0.4 {
		t.Error("classifier config option not applied")
	}
	if DatasetOptions(5).Seed != 5 {
		t.Error("DatasetOptions seed not propagated")
	}
}

func TestRingsOptionEndToEnd(t *testing.T) {
	sys, err := NewSystem(WithRings(3))
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(t, 64)
	if err := sys.Train(ds.Train[:2]); err != nil {
		t.Fatal(err)
	}
	res, err := sys.ClassifyClip(ds.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ds.Test[0].Clip.Frames) {
		t.Fatal("length mismatch")
	}
	sys.SetBackground(ds.Test[0].Clip.Background)
	fa, err := sys.AnalyzeFrame(ds.Test[0].Clip.Frames[10].Image)
	if err != nil {
		t.Fatal(err)
	}
	if fa.Encoding.Rings != 3 {
		t.Errorf("encoding rings = %d, want 3", fa.Encoding.Rings)
	}
}

func TestGAFrontEnd(t *testing.T) {
	// The previous-work pipeline end to end, with a tiny GA budget.
	sys, err := NewSystem(
		WithFrontEnd(FrontEndGA),
		WithGAConfig(GAConfig{Population: 10, Generations: 4, Seed: 3}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(t, 65)
	lc := ds.Test[0]
	sys.SetBackground(lc.Clip.Background)
	fa, err := sys.AnalyzeFrame(lc.Clip.Frames[5].Image)
	if err != nil {
		t.Fatal(err)
	}
	if !fa.KeyPointsOK {
		t.Fatal("GA front end produced no key points")
	}
	if fa.Skeleton.Count() == 0 {
		t.Error("GA front end produced an empty stick-model rendering")
	}
}

func TestAutoOrientMirroredClip(t *testing.T) {
	// Train on standard left-to-right jumps, then test a mirrored clip:
	// with AutoOrient the accuracy should be near the unmirrored level;
	// without it the encodings are backwards and accuracy collapses.
	ds := smallDataset(t, 66)
	mkMirrored := func() LabeledClip {
		spec := ds.Test[0].Clip.Spec
		spec.Mirror = true
		clip, err := GenerateClipFromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return LabeledClip{Name: "mirrored", Clip: clip}
	}

	run := func(auto bool) float64 {
		sys, err := NewSystem(WithAutoOrient(auto))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Train(ds.Train); err != nil {
			t.Fatal(err)
		}
		lc := mkMirrored()
		res, err := sys.ClassifyClip(lc)
		if err != nil {
			t.Fatal(err)
		}
		correct := 0
		for i, r := range res {
			if r.Pose == lc.Clip.Frames[i].Label {
				correct++
			}
		}
		return float64(correct) / float64(len(res))
	}
	with := run(true)
	without := run(false)
	t.Logf("mirrored clip accuracy: auto-orient %.2f vs off %.2f", with, without)
	if with < 0.5 {
		t.Errorf("auto-orient accuracy = %.2f, want >= 0.5", with)
	}
	if with <= without {
		t.Errorf("auto-orient (%.2f) should beat raw mirrored decoding (%.2f)", with, without)
	}
}

func TestDistractorRejected(t *testing.T) {
	// A rolling ball in the scene must not break extraction (largest
	// component isolation) or classification.
	spec := DefaultSpec(67)
	spec.Distractor = true
	clip, err := GenerateClipFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(t, 68)
	if err := sys.Train(ds.Train); err != nil {
		t.Fatal(err)
	}
	lc := LabeledClip{Name: "distractor", Clip: clip}
	res, err := sys.ClassifyClip(lc)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, r := range res {
		if r.Pose == clip.Frames[i].Label {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(res)); acc < 0.5 {
		t.Errorf("accuracy with distractor = %.2f, want >= 0.5", acc)
	}
}

func TestRenderAnalysis(t *testing.T) {
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(t, 70)
	lc := ds.Test[0]
	sys.SetBackground(lc.Clip.Background)
	fr := lc.Clip.Frames[10]
	fa, err := sys.AnalyzeFrame(fr.Image)
	if err != nil {
		t.Fatal(err)
	}
	overlay := RenderAnalysis(fr.Image, fa)
	if overlay.W != fr.Image.W || overlay.H != fr.Image.H {
		t.Fatal("overlay size mismatch")
	}
	// The original frame must be untouched and the overlay must differ
	// (skeleton/boundary pixels painted).
	same := true
	for i := range overlay.Pix {
		if overlay.Pix[i] != fr.Image.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("overlay identical to the input frame")
	}
	// The waist cross must be visible in blue.
	if fa.KeyPointsOK {
		w := fa.KeyPoints.Waist
		_, _, b := overlay.At(w.X, w.Y)
		if b < 200 {
			t.Errorf("waist cross not painted: blue=%d", b)
		}
	}
}
