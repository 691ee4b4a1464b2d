package dbn

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/imaging"
	"repro/internal/keypoint"
	"repro/internal/pose"
)

// jitteredAngles perturbs a pose's canonical configuration, simulating
// inter-frame and inter-subject variation.
func jitteredAngles(p pose.Pose, r *rand.Rand, amp float64) pose.JointAngles {
	a := pose.Angles(p)
	j := func(v float64) float64 { return v + (r.Float64()*2-1)*amp }
	return pose.JointAngles{
		TorsoLean: j(a.TorsoLean), Neck: j(a.Neck), Shoulder: j(a.Shoulder),
		Elbow: j(a.Elbow), Hip: j(a.Hip), Knee: j(a.Knee), Ankle: j(a.Ankle),
	}
}

// encodePose produces the ground-truth feature encoding of a pose with
// jitter.
func encodePose(t testing.TB, p pose.Pose, r *rand.Rand, partitions int) keypoint.Encoding {
	t.Helper()
	return encodeRadial(t, p, r, partitions, 0)
}

// encodeRadial is encodePose with radial ring features.
func encodeRadial(t testing.TB, p pose.Pose, r *rand.Rand, partitions, rings int) keypoint.Encoding {
	t.Helper()
	s := pose.Compute(imaging.Pointf{X: 120, Y: 110}, 100, jitteredAngles(p, r, 0.06), pose.DefaultProportions())
	enc, err := keypoint.EncodeRadial(keypoint.FromSkeleton2D(s), partitions, rings)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// canonicalSequence is a correct jump as a pose-label sequence, a few
// frames per pose (roughly the paper's ~40-frame clips).
func canonicalSequence() []pose.Pose {
	plan := []struct {
		p pose.Pose
		n int
	}{
		{pose.StandHandsAtSides, 3},
		{pose.StandHandsForward, 3},
		{pose.StandHandsBackward, 2},
		{pose.CrouchHandsBackward, 3},
		{pose.CrouchHandsForward, 2},
		{pose.TakeoffExtension, 2},
		{pose.TakeoffLean, 2},
		{pose.TakeoffToeOff, 2},
		{pose.AirAscendArmsUp, 2},
		{pose.AirTuck, 3},
		{pose.AirExtendForward, 2},
		{pose.AirDescendLegsForward, 2},
		{pose.AirArmsDownLegsForward, 2},
		{pose.LandHeelStrike, 2},
		{pose.LandCrouch, 3},
		{pose.LandDeepCrouch, 2},
		{pose.LandStandUp, 2},
		{pose.LandStand, 3},
	}
	var seq []pose.Pose
	for _, pl := range plan {
		for i := 0; i < pl.n; i++ {
			seq = append(seq, pl.p)
		}
	}
	return seq
}

// trainedClassifier builds a classifier trained on several jittered clips.
func trainedClassifier(t testing.TB, cfg Config, clips int, seed int64) *Classifier {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	for k := 0; k < clips; k++ {
		var frames []LabeledFrame
		for _, p := range canonicalSequence() {
			frames = append(frames, LabeledFrame{Label: p, Enc: encodeRadial(t, p, r, cfg.Partitions, cfg.Rings)})
		}
		if err := c.TrainSequence(frames); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"odd partitions", func(c *Config) { c.Partitions = 7 }},
		{"tiny partitions", func(c *Config) { c.Partitions = 2 }},
		{"bad dominant", func(c *Config) { c.Dominant = pose.PoseUnknown }},
		{"bad threshold", func(c *Config) { c.ThPose = 1.5 }},
		{"no evidence", func(c *Config) { c.UsePartEvidence = false; c.UseAreaEvidence = false }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mut(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("expected config error")
			}
		})
	}
}

func TestUntrainedClassifierErrors(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := c.NewSession()
	r := rand.New(rand.NewSource(1))
	enc := encodePose(t, pose.StandHandsForward, r, 8)
	if _, err := s.Classify(enc); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("err = %v, want ErrNotTrained", err)
	}
	if c.Trained() {
		t.Error("Trained() true before observations")
	}
}

func TestObserveValidation(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	enc := encodePose(t, pose.StandHandsForward, r, 8)
	if err := c.Observe(pose.StandHandsAtSides, pose.StageBeforeJump, pose.PoseUnknown, enc); !errors.Is(err, ErrBadLabel) {
		t.Errorf("unknown label err = %v", err)
	}
	if err := c.Observe(pose.StandHandsAtSides, pose.Stage(9), pose.StandHandsForward, enc); err == nil {
		t.Error("bad stage accepted")
	}
	bad := enc
	bad.Partitions = 16
	if err := c.Observe(pose.StandHandsAtSides, pose.StageBeforeJump, pose.StandHandsForward, bad); !errors.Is(err, ErrBadEncoding) {
		t.Errorf("bad encoding err = %v", err)
	}
}

func TestClassifyRecoversTrainingPoses(t *testing.T) {
	cfg := DefaultConfig()
	c := trainedClassifier(t, cfg, 8, 42)
	r := rand.New(rand.NewSource(99))

	// Decode a fresh jittered clip and expect high frame accuracy.
	seq := canonicalSequence()
	encs := make([]keypoint.Encoding, len(seq))
	for i, p := range seq {
		encs[i] = encodePose(t, p, r, cfg.Partitions)
	}
	results, err := c.ClassifySequence(encs)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, res := range results {
		if res.Pose == seq[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(seq))
	if acc < 0.7 {
		t.Errorf("accuracy on in-distribution clip = %.2f, want >= 0.7", acc)
		for i, res := range results {
			t.Logf("frame %2d: truth=%v got=%v (p=%.3f stage=%v)", i, seq[i], res.Pose, res.Prob, res.Stage)
		}
	}
}

func TestStageAdvancesThroughJump(t *testing.T) {
	cfg := DefaultConfig()
	c := trainedClassifier(t, cfg, 8, 7)
	r := rand.New(rand.NewSource(3))
	seq := canonicalSequence()
	s := c.NewSession()
	if s.Stage() != pose.StageBeforeJump {
		t.Fatalf("initial stage = %v", s.Stage())
	}
	var last pose.Stage
	for _, p := range seq {
		res, err := s.Classify(encodePose(t, p, r, cfg.Partitions))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stage < last {
			t.Fatalf("stage regressed from %v to %v", last, res.Stage)
		}
		last = res.Stage
	}
	if last != pose.StageLanding {
		t.Errorf("final stage = %v, want landing", last)
	}
}

func TestSessionResetBetweenClips(t *testing.T) {
	cfg := DefaultConfig()
	c := trainedClassifier(t, cfg, 4, 11)
	s1 := c.NewSession()
	if s1.Prev() != pose.StandHandsAtSides {
		t.Errorf("initial prev = %v, want StandHandsAtSides (the paper's reset)", s1.Prev())
	}
	if s1.Stage() != pose.StageBeforeJump {
		t.Errorf("initial stage = %v", s1.Stage())
	}
}

func TestUnknownCarryForward(t *testing.T) {
	// Feed garbage encodings (all parts absent) and verify that the
	// previous-pose input stays at the last recognised pose when
	// CarryLastRecognized is on, and resets to PoseUnknown when off.
	run := func(carry bool) pose.Pose {
		cfg := DefaultConfig()
		cfg.CarryLastRecognized = carry
		c := trainedClassifier(t, cfg, 4, 13)
		s := c.NewSession()
		r := rand.New(rand.NewSource(5))
		// First, a recognisable frame.
		if _, err := s.Classify(encodePose(t, pose.StandHandsForward, r, cfg.Partitions)); err != nil {
			t.Fatal(err)
		}
		recognised := s.Prev()
		if recognised == pose.PoseUnknown {
			t.Skip("first frame not recognised; threshold too strict for this seed")
		}
		// Then a garbage frame that should be Unknown.
		garbage := keypoint.Encoding{Partitions: cfg.Partitions}
		res, err := s.Classify(garbage)
		if err != nil {
			t.Fatal(err)
		}
		if res.Pose != pose.PoseUnknown {
			t.Skip("garbage frame was classified; cannot exercise carry-forward")
		}
		return s.Prev()
	}
	if got := run(true); got == pose.PoseUnknown {
		t.Error("carry-forward ON still reset the previous pose to Unknown")
	}
	if got := run(false); got != pose.PoseUnknown {
		t.Errorf("carry-forward OFF kept prev = %v, want Unknown", got)
	}
}

func TestScoresSortedAndComplete(t *testing.T) {
	cfg := DefaultConfig()
	c := trainedClassifier(t, cfg, 4, 17)
	r := rand.New(rand.NewSource(2))
	s := c.NewSession()
	res, err := s.Classify(encodePose(t, pose.AirTuck, r, cfg.Partitions))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != pose.NumPoses {
		t.Fatalf("scores = %d entries, want %d", len(res.Scores), pose.NumPoses)
	}
	for i := 1; i < len(res.Scores); i++ {
		if res.Scores[i].Prob > res.Scores[i-1].Prob {
			t.Fatal("scores not sorted descending")
		}
	}
	for _, sc := range res.Scores {
		if sc.Prob < 0 || sc.Prob > 1 {
			t.Fatalf("score %v out of [0,1]", sc.Prob)
		}
	}
}

func TestPerPoseThresholdOverride(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PerPoseTh = map[pose.Pose]float64{pose.AirTuck: 0.999999}
	c := trainedClassifier(t, cfg, 4, 19)
	r := rand.New(rand.NewSource(4))
	s := c.NewSession()
	// Walk the session into the air stage first so AirTuck is in context.
	for _, p := range []pose.Pose{
		pose.CrouchHandsForward, pose.TakeoffExtension, pose.AirAscendArmsUp,
	} {
		if _, err := s.Classify(encodePose(t, p, r, cfg.Partitions)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Classify(encodePose(t, pose.AirTuck, r, cfg.Partitions))
	if err != nil {
		t.Fatal(err)
	}
	if res.Pose == pose.AirTuck {
		t.Error("AirTuck accepted despite a ~1.0 threshold override")
	}
}

func TestNetworkAccessor(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.Network(pose.StandHandsForward)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 7 structure: prev + stage + pose + 5 parts + 8 areas = 16.
	if n.Len() != 16 {
		t.Errorf("network nodes = %d, want 16", n.Len())
	}
	if _, err := c.Network(pose.PoseUnknown); err == nil {
		t.Error("Network(PoseUnknown) should fail")
	}
}

func TestPrevPoseInfluencesDecision(t *testing.T) {
	// The dynamic part: an ambiguous encoding must be pulled toward the
	// pose consistent with the previous pose. Train normally, then
	// compare the posterior of TakeoffExtension with prev=CrouchHandsForward
	// versus prev=StandHandsAtSides.
	cfg := DefaultConfig()
	c := trainedClassifier(t, cfg, 8, 23)
	r := rand.New(rand.NewSource(6))
	enc := encodePose(t, pose.TakeoffExtension, r, cfg.Partitions)

	score := func(prev pose.Pose, stage pose.Stage) float64 {
		s := &Session{c: c, prev: prev, lastRecognized: prev, stage: stage}
		res, err := s.Classify(enc)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range res.Scores {
			if sc.Pose == pose.TakeoffExtension {
				return sc.Prob
			}
		}
		return 0
	}
	after := score(pose.CrouchHandsForward, pose.StageBeforeJump)
	cold := score(pose.StandHandsAtSides, pose.StageBeforeJump)
	if after <= cold {
		t.Errorf("P(takeoff | prev=crouch) = %.4f should exceed P(takeoff | prev=stand) = %.4f", after, cold)
	}
}

func TestPartitionsSweepTrains(t *testing.T) {
	// The EXT1 experiment uses 12/16/24 partitions; the bank must build
	// and train for each.
	for _, parts := range []int{8, 12, 16} {
		cfg := DefaultConfig()
		cfg.Partitions = parts
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("partitions=%d: %v", parts, err)
		}
		r := rand.New(rand.NewSource(int64(parts)))
		var frames []LabeledFrame
		for _, p := range canonicalSequence()[:10] {
			frames = append(frames, LabeledFrame{Label: p, Enc: encodePose(t, p, r, parts)})
		}
		if err := c.TrainSequence(frames); err != nil {
			t.Fatalf("partitions=%d: %v", parts, err)
		}
	}
}

func TestClassifySequenceLength(t *testing.T) {
	cfg := DefaultConfig()
	c := trainedClassifier(t, cfg, 2, 31)
	r := rand.New(rand.NewSource(8))
	encs := []keypoint.Encoding{
		encodePose(t, pose.StandHandsAtSides, r, cfg.Partitions),
		encodePose(t, pose.StandHandsForward, r, cfg.Partitions),
	}
	res, err := c.ClassifySequence(encs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2", len(res))
	}
}

func TestConcurrentSessions(t *testing.T) {
	// The classifier is documented safe for concurrent read use; two
	// sessions decoding in parallel must not interfere (run under -race).
	cfg := DefaultConfig()
	c := trainedClassifier(t, cfg, 3, 91)
	r := rand.New(rand.NewSource(7))
	seq := canonicalSequence()[:10]
	encs := make([]keypoint.Encoding, len(seq))
	for i, p := range seq {
		encs[i] = encodePose(t, p, r, cfg.Partitions)
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			s := c.NewSession()
			for _, enc := range encs {
				if _, err := s.Classify(enc); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
