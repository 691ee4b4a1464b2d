package stats

import (
	"strings"
	"testing"

	"repro/internal/pose"
)

func TestConfusionBasics(t *testing.T) {
	var c Confusion
	c.Add(pose.AirTuck, pose.AirTuck)
	c.Add(pose.AirTuck, pose.AirTuck)
	c.Add(pose.AirTuck, pose.AirExtendForward)
	c.Add(pose.LandCrouch, pose.PoseUnknown)
	if c.Total() != 4 {
		t.Errorf("Total = %d, want 4", c.Total())
	}
	if c.Correct() != 2 {
		t.Errorf("Correct = %d, want 2", c.Correct())
	}
	if c.Accuracy() != 0.5 {
		t.Errorf("Accuracy = %v, want 0.5", c.Accuracy())
	}
	if c.UnknownRate() != 0.25 {
		t.Errorf("UnknownRate = %v, want 0.25", c.UnknownRate())
	}
}

func TestConfusionEmpty(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.UnknownRate() != 0 {
		t.Error("empty confusion should report zeros")
	}
}

func TestConfusionOutOfRangeClamps(t *testing.T) {
	var c Confusion
	c.Add(pose.Pose(99), pose.Pose(-3))
	if c.Counts[0][0] != 1 {
		t.Error("out-of-range poses should clamp to the unknown cell")
	}
}

func TestPerPoseRecall(t *testing.T) {
	var c Confusion
	c.Add(pose.AirTuck, pose.AirTuck)
	c.Add(pose.AirTuck, pose.PoseUnknown)
	c.Add(pose.LandStand, pose.LandStand)
	rec := perPoseRecall(&c)
	if rec[pose.AirTuck] != 0.5 {
		t.Errorf("AirTuck recall = %v, want 0.5", rec[pose.AirTuck])
	}
	if rec[pose.LandStand] != 1.0 {
		t.Errorf("LandStand recall = %v, want 1", rec[pose.LandStand])
	}
	if _, ok := rec[pose.AirArch]; ok {
		t.Error("recall reported for a pose never seen")
	}
}

func TestTopConfusions(t *testing.T) {
	var c Confusion
	for i := 0; i < 5; i++ {
		c.Add(pose.AirTuck, pose.AirExtendForward)
	}
	for i := 0; i < 2; i++ {
		c.Add(pose.LandCrouch, pose.LandDeepCrouch)
	}
	c.Add(pose.AirTuck, pose.AirTuck) // diagonal, excluded
	top := c.TopConfusions(10)
	if len(top) != 2 {
		t.Fatalf("top = %d cells, want 2", len(top))
	}
	if top[0].Count != 5 || top[0].Truth != pose.AirTuck {
		t.Errorf("top confusion = %+v", top[0])
	}
	if got := c.TopConfusions(1); len(got) != 1 {
		t.Errorf("limit not applied: %d", len(got))
	}
}

func TestEvaluateClip(t *testing.T) {
	truth := []pose.Pose{
		pose.StandHandsAtSides, pose.StandHandsForward, pose.AirTuck,
		pose.AirTuck, pose.LandCrouch, pose.LandStand,
	}
	pred := []pose.Pose{
		pose.StandHandsAtSides, pose.PoseUnknown, pose.PoseUnknown,
		pose.AirTuck, pose.LandCrouch, pose.LandStand,
	}
	res, err := EvaluateClip("clip1", truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 6 || res.Correct != 4 || res.Unknown != 2 {
		t.Errorf("result = %+v", res)
	}
	if res.Accuracy() != 4.0/6 {
		t.Errorf("accuracy = %v", res.Accuracy())
	}
	// One error run of length 2.
	if res.ErrorRuns[2] != 1 || len(res.ErrorRuns) != 1 {
		t.Errorf("error runs = %v, want {2:1}", res.ErrorRuns)
	}
	if res.MeanErrorRunLength() != 2 {
		t.Errorf("mean run = %v, want 2", res.MeanErrorRunLength())
	}
}

func TestEvaluateClipTrailingRun(t *testing.T) {
	truth := []pose.Pose{pose.AirTuck, pose.AirTuck, pose.AirTuck}
	pred := []pose.Pose{pose.AirTuck, pose.LandCrouch, pose.LandCrouch}
	res, err := EvaluateClip("c", truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorRuns[2] != 1 {
		t.Errorf("trailing error run not recorded: %v", res.ErrorRuns)
	}
}

func TestEvaluateClipLengthMismatch(t *testing.T) {
	_, err := EvaluateClip("c", []pose.Pose{pose.AirTuck}, nil)
	if err == nil {
		t.Fatal("length mismatch not rejected")
	}
}

func TestEvaluateClipPerfect(t *testing.T) {
	truth := []pose.Pose{pose.AirTuck, pose.LandCrouch}
	res, err := EvaluateClip("c", truth, truth)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy() != 1 || len(res.ErrorRuns) != 0 || res.MeanErrorRunLength() != 0 {
		t.Errorf("perfect clip mis-scored: %+v", res)
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	s.Add(ClipResult{Name: "a", Frames: 50, Correct: 45})
	s.Add(ClipResult{Name: "b", Frames: 40, Correct: 32})
	s.Add(ClipResult{Name: "c", Frames: 45, Correct: 39})
	if got := s.TotalFrames(); got != 135 { // the paper's test-set size
		t.Errorf("TotalFrames = %d", got)
	}
	if acc := s.OverallAccuracy(); acc < 0.85 || acc > 0.87 {
		t.Errorf("overall = %v", acc)
	}
	if s.MinAccuracy() != 0.8 {
		t.Errorf("min = %v, want 0.8", s.MinAccuracy())
	}
	if s.MaxAccuracy() != 0.9 {
		t.Errorf("max = %v, want 0.9", s.MaxAccuracy())
	}
	table := s.Table()
	for _, want := range []string{"clip", "overall", "band"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.OverallAccuracy() != 0 || s.MinAccuracy() != 0 || s.MaxAccuracy() != 0 {
		t.Error("empty summary should report zeros")
	}
}

func TestPerStageAccuracy(t *testing.T) {
	truth := []pose.Pose{
		pose.StandHandsAtSides, pose.StandHandsForward, // before jumping
		pose.TakeoffExtension, // jumping
		pose.AirTuck,          // air
		pose.LandCrouch,       // landing
	}
	pred := []pose.Pose{
		pose.StandHandsAtSides, pose.PoseUnknown,
		pose.TakeoffExtension,
		pose.AirExtendForward,
		pose.LandCrouch,
	}
	res, err := EvaluateClip("c", truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	var s Summary
	s.Add(res)
	acc := s.PerStageAccuracy()
	if acc[pose.StageBeforeJump] != 0.5 {
		t.Errorf("before-jump accuracy = %v, want 0.5", acc[pose.StageBeforeJump])
	}
	if acc[pose.StageJump] != 1.0 {
		t.Errorf("jump accuracy = %v, want 1", acc[pose.StageJump])
	}
	if acc[pose.StageAir] != 0.0 {
		t.Errorf("air accuracy = %v, want 0", acc[pose.StageAir])
	}
	if acc[pose.StageLanding] != 1.0 {
		t.Errorf("landing accuracy = %v, want 1", acc[pose.StageLanding])
	}
}

func TestCalibrationValidation(t *testing.T) {
	if _, err := NewCalibration(1); err == nil {
		t.Error("1 bin accepted")
	}
}

func TestCalibrationPerfect(t *testing.T) {
	c, err := NewCalibration(10)
	if err != nil {
		t.Fatal(err)
	}
	// Confidence 0.8: exactly 80% correct -> ECE near 0.
	for i := 0; i < 100; i++ {
		c.Add(0.8, i < 80)
	}
	if ece := c.ECE(); ece > 0.01 {
		t.Errorf("perfectly calibrated ECE = %v", ece)
	}
	if c.Total() != 100 {
		t.Errorf("Total = %d", c.Total())
	}
}

func TestCalibrationOverconfident(t *testing.T) {
	c, err := NewCalibration(10)
	if err != nil {
		t.Fatal(err)
	}
	// Confidence 0.95 but only 50% correct: large ECE.
	for i := 0; i < 100; i++ {
		c.Add(0.95, i%2 == 0)
	}
	if ece := c.ECE(); ece < 0.4 {
		t.Errorf("overconfident ECE = %v, want ~0.45", ece)
	}
}

func TestCalibrationClampAndEmpty(t *testing.T) {
	c, err := NewCalibration(5)
	if err != nil {
		t.Fatal(err)
	}
	if c.ECE() != 0 {
		t.Error("empty ECE should be 0")
	}
	c.Add(1.5, true)   // clamps to top bin
	c.Add(-0.2, false) // clamps to bottom bin
	if c.Total() != 2 {
		t.Errorf("Total = %d", c.Total())
	}
	if !strings.Contains(c.Table(), "expected calibration error") {
		t.Error("table missing ECE line")
	}
}

// perPoseRecall returns recall per true pose (skipping poses never seen).
func perPoseRecall(c *Confusion) map[pose.Pose]float64 {
	out := make(map[pose.Pose]float64)
	for t := 1; t <= pose.NumPoses; t++ {
		total := 0
		for p := range c.Counts[t] {
			total += c.Counts[t][p]
		}
		if total > 0 {
			out[pose.Pose(t)] = float64(c.Counts[t][t]) / float64(total)
		}
	}
	return out
}
