package dbn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bayes"
	"repro/internal/keypoint"
	"repro/internal/pose"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	c := trainedClassifier(t, cfg, 3, 71)

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Trained() {
		t.Fatal("loaded classifier lost trained flag")
	}
	if loaded.Config().Partitions != cfg.Partitions {
		t.Fatal("config not preserved")
	}

	// Classification must be bit-identical between original and loaded.
	r := rand.New(rand.NewSource(5))
	seq := canonicalSequence()
	encs := make([]Score, 0) // placeholder to avoid unused imports
	_ = encs
	sessA := c.NewSession()
	sessB := loaded.NewSession()
	for _, p := range seq[:15] {
		enc := encodePose(t, p, r, cfg.Partitions)
		ra, err := sessA.Classify(enc)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := sessB.Classify(enc)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Pose != rb.Pose {
			t.Fatalf("pose diverged after reload: %v vs %v", ra.Pose, rb.Pose)
		}
		if ra.Prob != rb.Prob {
			t.Fatalf("probability diverged after reload: %v vs %v", ra.Prob, rb.Prob)
		}
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage model accepted")
	}
}

func TestSaveUntrainedLoads(t *testing.T) {
	c, err := New(DefaultConfig())
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
	if loaded.Trained() {
		t.Fatal("untrained model loaded as trained")
	}
	// Classification must still refuse.
	s := loaded.NewSession()
	r := rand.New(rand.NewSource(1))
	if _, err := s.Classify(encodePose(t, pose.StandHandsForward, r, 8)); err == nil {
		t.Fatal("untrained loaded classifier classified")
	}
}

// editedModel saves c, applies edit to the decoded model file and
// re-encodes it.
func editedModel(t testing.TB, c *Classifier, edit func(*modelFile)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var mf modelFile
	if err := gob.NewDecoder(&buf).Decode(&mf); err != nil {
		t.Fatal(err)
	}
	edit(&mf)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(mf); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestLoadRejectsMalformed feeds Load models that decode but would make
// the compiled bank index out of range or yield non-finite posteriors.
func TestLoadRejectsMalformed(t *testing.T) {
	c := trainedClassifier(t, DefaultConfig(), 2, 91)
	node := func(mf *modelFile, p, i int) *bayes.NodeSnapshot { return &mf.Networks[p].Network.Nodes[i] }
	tests := []struct {
		name string
		edit func(*modelFile)
	}{
		{"NaN count", func(mf *modelFile) { node(mf, 0, nodePart0).Counts[0] = math.NaN() }},
		{"infinite count", func(mf *modelFile) { node(mf, 3, nodePose).Counts[1] = math.Inf(1) }},
		{"negative count", func(mf *modelFile) { node(mf, 5, nodePrev).Counts[2] = -1 }},
		{"NaN Laplace", func(mf *modelFile) { mf.Networks[7].Network.Laplace = math.NaN() }},
		{"infinite Laplace", func(mf *modelFile) { mf.Networks[7].Network.Laplace = math.Inf(1) }},
		{"fixed row off the simplex", func(mf *modelFile) {
			nd := node(mf, 2, nodeStage)
			nd.Fixed = make([]float64, len(nd.Counts))
			for k := range nd.Fixed {
				nd.Fixed[k] = 0.5
			}
		}},
		{"part node with too many states", func(mf *modelFile) {
			nd := node(mf, 1, nodePart0+2)
			nd.States++
			nd.Counts = make([]float64, 2*nd.States)
		}},
		{"area node with the wrong parent", func(mf *modelFile) {
			// Counts sized for the new parent, so only the layout check
			// can tell.
			nd := node(mf, 4, nodePart0+keypoint.NumParts)
			nd.Parents = []int{nodeStage}
			nd.Counts = make([]float64, pose.NumStages*nd.States)
		}},
		{"missing node", func(mf *modelFile) {
			net := &mf.Networks[6].Network
			net.Nodes = net.Nodes[:len(net.Nodes)-1]
		}},
		{"missing network", func(mf *modelFile) { mf.Networks = mf.Networks[1:] }},
		{"negative transition count", func(mf *modelFile) { mf.Transitions[1][2] = -1 }},
		{"NaN transition count", func(mf *modelFile) { mf.Transitions[0][5] = math.NaN() }},
		{"NaN threshold", func(mf *modelFile) { mf.Config.ThPose = math.NaN() }},
		{"NaN per-pose threshold", func(mf *modelFile) {
			mf.Thresholds = []poseThreshold{{Pose: int(pose.AirTuck), Th: math.NaN()}}
		}},
		{"per-pose threshold for no pose", func(mf *modelFile) { mf.Thresholds = []poseThreshold{{Pose: 99, Th: 0.5}} }},
		{"NaN config Laplace", func(mf *modelFile) { mf.Config.Laplace = math.NaN() }},
		{"too many partitions", func(mf *modelFile) { mf.Config.Partitions = 1 << 20 }},
		{"too many rings", func(mf *modelFile) { mf.Config.Rings = 1 << 20 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Load(bytes.NewReader(editedModel(t, c, tt.edit))); err == nil {
				t.Fatal("malformed model loaded")
			}
		})
	}
	if _, err := Load(bytes.NewReader(editedModel(t, c, func(*modelFile) {}))); err != nil {
		t.Fatalf("unedited model rejected: %v", err)
	}
}

// FuzzLoad feeds Load arbitrary bytes: it either rejects them, or the
// classifier it returns scores frames with probabilities in [0,1].
func FuzzLoad(f *testing.F) {
	for _, cfg := range []Config{DefaultConfig(), func() Config { c := DefaultConfig(); c.Rings = 3; return c }()} {
		var buf bytes.Buffer
		if err := trainedClassifier(f, cfg, 1, 3).Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("not a model"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		cfg := c.Config()
		s := c.NewSession()
		for k := 0; k < 4; k++ {
			enc := keypoint.Encoding{Partitions: cfg.Partitions, Rings: cfg.Rings}
			for i := range enc.Area {
				enc.Area[i] = (3*i + k) % (cfg.Partitions + 1)
				enc.Ring[i] = (i + k) % (cfg.Rings + 1)
			}
			res, err := s.Classify(enc)
			if errors.Is(err, ErrNotTrained) && !c.Trained() {
				return
			}
			if err != nil {
				t.Fatalf("frame %d: %v", k, err)
			}
			if len(res.Scores) != pose.NumPoses {
				t.Fatalf("frame %d: %d scores", k, len(res.Scores))
			}
			for _, sc := range append(res.Scores, Score{Prob: res.Prob}) {
				if !(sc.Prob >= 0 && sc.Prob <= 1) {
					t.Fatalf("frame %d: probability %v outside [0,1]", k, sc.Prob)
				}
			}
		}
	})
}
