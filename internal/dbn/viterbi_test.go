package dbn

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/keypoint"
	"repro/internal/pose"
)

func TestDecodeViterbiUntrained(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodeViterbi([]keypoint.Encoding{{Partitions: 8}}); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("err = %v, want ErrNotTrained", err)
	}
}

func TestDecodeViterbiEmpty(t *testing.T) {
	c := trainedClassifier(t, DefaultConfig(), 2, 81)
	out, err := c.DecodeViterbi(nil)
	if err != nil || out != nil {
		t.Fatalf("empty decode = %v, %v", out, err)
	}
}

func TestDecodeViterbiPartitionMismatch(t *testing.T) {
	c := trainedClassifier(t, DefaultConfig(), 2, 82)
	if _, err := c.DecodeViterbi([]keypoint.Encoding{{Partitions: 16}}); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("err = %v, want ErrBadEncoding", err)
	}
}

func TestDecodeViterbiAccuracy(t *testing.T) {
	cfg := DefaultConfig()
	c := trainedClassifier(t, cfg, 8, 83)
	r := rand.New(rand.NewSource(17))
	seq := canonicalSequence()
	encs := make([]keypoint.Encoding, len(seq))
	for i, p := range seq {
		encs[i] = encodePose(t, p, r, cfg.Partitions)
	}
	out, err := c.DecodeViterbi(encs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(seq) {
		t.Fatalf("decoded %d frames, want %d", len(out), len(seq))
	}
	correct := 0
	for i := range seq {
		if out[i] == seq[i] {
			correct++
		}
		if out[i] == pose.PoseUnknown {
			t.Fatalf("Viterbi emitted Unknown at frame %d", i)
		}
	}
	if acc := float64(correct) / float64(len(seq)); acc < 0.7 {
		t.Errorf("Viterbi accuracy = %.2f, want >= 0.7", acc)
	}
}

func TestViterbiRepairsIsolatedGarbageFrame(t *testing.T) {
	// A single all-zero (unrecognisable) frame inside a clean sequence:
	// greedy decoding yields Unknown there; Viterbi must bridge it with
	// a plausible pose.
	cfg := DefaultConfig()
	c := trainedClassifier(t, cfg, 8, 84)
	r := rand.New(rand.NewSource(19))
	seq := canonicalSequence()
	encs := make([]keypoint.Encoding, len(seq))
	for i, p := range seq {
		encs[i] = encodePose(t, p, r, cfg.Partitions)
	}
	mid := len(encs) / 2
	encs[mid] = keypoint.Encoding{Partitions: cfg.Partitions}

	out, err := c.DecodeViterbi(encs)
	if err != nil {
		t.Fatal(err)
	}
	if out[mid] == pose.PoseUnknown {
		t.Fatal("Viterbi left the garbage frame Unknown")
	}
	// The bridged pose must be stage-compatible with its neighbours.
	sBefore := pose.StageOf(out[mid-1])
	sAfter := pose.StageOf(out[mid+1])
	sMid := pose.StageOf(out[mid])
	if sMid < sBefore || sMid > sAfter {
		t.Errorf("bridged pose %v (stage %v) incompatible with neighbours (%v..%v)",
			out[mid], sMid, sBefore, sAfter)
	}
}

func TestTransitionModelLearned(t *testing.T) {
	c := trainedClassifier(t, DefaultConfig(), 4, 85)
	m := transitionMatrix(c)
	// Self-transitions dominate (poses are held for several frames).
	self := m[int(pose.AirTuck)][int(pose.AirTuck)]
	jump := m[int(pose.AirTuck)][int(pose.StandHandsAtSides)]
	if self <= jump {
		t.Errorf("P(tuck|tuck)=%v should exceed P(stand|tuck)=%v", self, jump)
	}
	// Rows are distributions over the 22 poses.
	for q := 0; q <= pose.NumPoses; q++ {
		sum := 0.0
		for p := 1; p <= pose.NumPoses; p++ {
			sum += m[q][p]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", q, sum)
		}
	}
	// Illegal stage jumps are vanishingly unlikely but nonzero
	// (smoothed).
	illegal := m[int(pose.StandHandsAtSides)][int(pose.LandCrouch)]
	if illegal <= 0 {
		t.Error("smoothing missing: zero transition probability")
	}
	if illegal > 0.05 {
		t.Errorf("illegal stage jump probability %v too high", illegal)
	}
}

func TestViterbiSurvivesSaveLoad(t *testing.T) {
	cfg := DefaultConfig()
	c := trainedClassifier(t, cfg, 3, 86)
	r := rand.New(rand.NewSource(23))
	seq := canonicalSequence()[:12]
	encs := make([]keypoint.Encoding, len(seq))
	for i, p := range seq {
		encs[i] = encodePose(t, p, r, cfg.Partitions)
	}
	want, err := c.DecodeViterbi(encs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.DecodeViterbi(encs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("frame %d: %v != %v after reload", i, want[i], got[i])
		}
	}
}

// transitionMatrix returns the learned smoothed bigram model (rows:
// previous pose, 0 = clip start/Unknown; columns: current pose 1..22).
func transitionMatrix(c *Classifier) [][]float64 {
	out := make([][]float64, pose.NumPoses+1)
	for q := 0; q <= pose.NumPoses; q++ {
		out[q] = make([]float64, pose.NumPoses+1)
		for p := 1; p <= pose.NumPoses; p++ {
			out[q][p] = c.transitionProb(pose.Pose(q), pose.Pose(p))
		}
	}
	return out
}
