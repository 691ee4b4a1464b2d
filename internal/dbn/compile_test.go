package dbn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/bayes"
	"repro/internal/keypoint"
	"repro/internal/pose"
)

// bankConfigs are the configurations the compiled bank is checked on:
// the paper's, each evidence channel alone, radial rings, and finer
// partitions.
func bankConfigs() map[string]Config {
	out := map[string]Config{}
	add := func(name string, mut func(*Config)) {
		cfg := DefaultConfig()
		mut(&cfg)
		out[name] = cfg
	}
	add("paper", func(*Config) {})
	add("part-only", func(c *Config) { c.UseAreaEvidence = false })
	add("area-only", func(c *Config) { c.UsePartEvidence = false })
	add("rings-3", func(c *Config) { c.Rings = 3 })
	add("partitions-12", func(c *Config) { c.Partitions = 12 })
	add("partitions-16", func(c *Config) { c.Partitions = 16 })
	return out
}

// veEvidence is the evidence map the classifier fed PosteriorVE before
// the bank was compiled: the features the configuration uses, plus the
// previous pose and stage when withState is set.
func veEvidence(c *Classifier, ev []int, withState bool) bayes.Evidence {
	m := bayes.Evidence{}
	if withState {
		m[nodePrev] = ev[nodePrev]
		m[nodeStage] = ev[nodeStage]
	}
	if c.cfg.UsePartEvidence {
		for i := 0; i < keypoint.NumParts; i++ {
			m[nodePart0+i] = ev[nodePart0+i]
		}
	}
	if c.cfg.UseAreaEvidence {
		for j := 0; j < c.cfg.Partitions; j++ {
			m[c.nodeArea0()+j] = ev[c.nodeArea0()+j]
		}
	}
	if c.cfg.Rings > 0 {
		for i := 0; i < keypoint.NumParts; i++ {
			m[c.nodeRing0()+i] = ev[c.nodeRing0()+i]
		}
	}
	return m
}

// hiddenLeaves is the number of joint states enumeration visits for one
// posterior: the product of the cardinalities of every unobserved node.
func hiddenLeaves(c *Classifier, ev bayes.Evidence) int {
	n := c.nets[1]
	leaves := 1
	for i := 0; i < n.Len(); i++ {
		if _, ok := ev[i]; !ok {
			nd, _ := n.Node(i)
			leaves *= nd.States
		}
	}
	return leaves
}

// enumLeafBudget caps the joint states enumeration visits per
// configuration and pattern. Enumeration is exponential in the hidden
// nodes: a pattern whose posterior has few hidden states is enumerated
// for every evidence vector, one with many (the summed-out part nodes of
// area-only) for as many vectors as the budget allows, at least one.
const enumLeafBudget = 2_000_000

// TestCompiledBankMatchesOracles checks every compiled network against
// PosteriorVE bit for bit, and against enumeration to 1e-12, over random
// evidence vectors on every bank configuration and for both evidence
// patterns: Classify's (previous pose, stage and features observed) and
// the Viterbi emissions' (features only).
func TestCompiledBankMatchesOracles(t *testing.T) {
	const vectors = 5000
	for name, cfg := range bankConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := trainedClassifier(t, cfg, 3, 17)
			b, err := c.tables()
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(29))
			ev := make([]int, c.numNodes())
			dist := make([]float64, 2)
			for _, pattern := range []struct {
				name      string
				withState bool
				nets      *[pose.NumPoses + 1]*bayes.Compiled
			}{
				{"classify", true, &b.classify},
				{"emission", false, &b.emission},
			} {
				enumerated := 0
				for k := 0; k < vectors; k++ {
					randomEvidence(r, c, ev)
					p := pose.Pose(k%pose.NumPoses + 1)
					m := veEvidence(c, ev, pattern.withState)
					want, err := c.nets[p].PosteriorVE(nodePose, m)
					if err != nil {
						t.Fatal(err)
					}
					if err := pattern.nets[p].Posterior(ev, dist); err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(dist[0]) != math.Float64bits(want[0]) ||
						math.Float64bits(dist[1]) != math.Float64bits(want[1]) {
						t.Fatalf("%s %v vector %d: compiled %v, PosteriorVE %v", pattern.name, p, k, dist, want)
					}
					if k >= max(1, enumLeafBudget/hiddenLeaves(c, m)) {
						continue
					}
					enumerated++
					exact, err := c.nets[p].Posterior(nodePose, m)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(dist[1]-exact[1]) > 1e-12 || math.Abs(dist[0]-exact[0]) > 1e-12 {
						t.Fatalf("%s %v vector %d: compiled %v, enumeration %v", pattern.name, p, k, dist, exact)
					}
				}
				t.Logf("%s: %d vectors bitwise against PosteriorVE, %d against enumeration", pattern.name, vectors, enumerated)
			}
		})
	}
}

// randomEvidence fills ev with uniformly random in-range states for
// every node but the pose.
func randomEvidence(r *rand.Rand, c *Classifier, ev []int) {
	ev[nodePrev] = r.Intn(prevStates)
	ev[nodeStage] = r.Intn(pose.NumStages)
	for i := 0; i < keypoint.NumParts; i++ {
		ev[nodePart0+i] = r.Intn(c.cfg.Partitions + 1)
		if c.cfg.Rings > 0 {
			ev[c.nodeRing0()+i] = r.Intn(c.cfg.Rings + 1)
		}
	}
	for j := 0; j < c.cfg.Partitions; j++ {
		ev[c.nodeArea0()+j] = r.Intn(2)
	}
}

// oracleSequence decodes a clip the way Session.Classify did before the
// bank was compiled: one PosteriorVE per network, sort.SliceStable, then
// the threshold decision and the state update.
func oracleSequence(t *testing.T, c *Classifier, encs []keypoint.Encoding) []Result {
	t.Helper()
	prev, last, stage := pose.StandHandsAtSides, pose.StandHandsAtSides, pose.StageBeforeJump
	ev := make([]int, c.numNodes())
	var out []Result
	for _, enc := range encs {
		c.features(ev, enc)
		ev[nodePrev], ev[nodeStage] = int(prev), int(stage)-1
		scores := make([]Score, 0, pose.NumPoses)
		for _, p := range pose.AllPoses() {
			dist, err := c.nets[p].PosteriorVE(nodePose, veEvidence(c, ev, true))
			if err != nil {
				t.Fatal(err)
			}
			scores = append(scores, Score{Pose: p, Prob: dist[1]})
		}
		sort.SliceStable(scores, func(i, j int) bool { return scores[i].Prob > scores[j].Prob })
		decided, prob := pose.PoseUnknown, 0.0
		for _, sc := range scores {
			if sc.Prob > c.threshold(sc.Pose) {
				decided, prob = sc.Pose, sc.Prob
				break
			}
		}
		switch {
		case decided != pose.PoseUnknown:
			stage = pose.NextStage(stage, decided)
			prev, last = decided, decided
		case c.cfg.CarryLastRecognized:
			prev = last
		default:
			prev = pose.PoseUnknown
		}
		out = append(out, Result{Pose: decided, Prob: prob, Stage: stage, Scores: scores})
	}
	return out
}

// testClips returns n jittered canonical clips encoded for cfg.
func testClips(t *testing.T, cfg Config, n int, seed int64) [][]keypoint.Encoding {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	out := make([][]keypoint.Encoding, n)
	for k := range out {
		for _, p := range canonicalSequence() {
			out[k] = append(out[k], encodeRadial(t, p, r, cfg.Partitions, cfg.Rings))
		}
	}
	return out
}

// TestClassifyMatchesVEPath decodes whole clips with the compiled bank
// and with the former PosteriorVE path: every decision, probability,
// stage and score order must be identical.
func TestClassifyMatchesVEPath(t *testing.T) {
	for name, cfg := range bankConfigs() {
		t.Run(name, func(t *testing.T) {
			c := trainedClassifier(t, cfg, 3, 41)
			for i, encs := range testClips(t, cfg, 2, 43) {
				got, err := c.ClassifySequence(encs)
				if err != nil {
					t.Fatal(err)
				}
				if want := oracleSequence(t, c, encs); !reflect.DeepEqual(got, want) {
					t.Fatalf("clip %d: compiled results differ from the PosteriorVE path", i)
				}
			}
		})
	}
}

// TestObserveInvalidatesBank classifies, trains further, and checks that
// the next session sees the new counts rather than the stale tables.
func TestObserveInvalidatesBank(t *testing.T) {
	cfg := DefaultConfig()
	c := trainedClassifier(t, cfg, 2, 51)
	encs := testClips(t, cfg, 1, 53)[0]
	before, err := c.ClassifySequence(encs)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(55))
	for _, p := range canonicalSequence() {
		if err := c.Observe(pose.StandHandsAtSides, pose.StageBeforeJump, p, encodePose(t, p, r, cfg.Partitions)); err != nil {
			t.Fatal(err)
		}
	}
	after, err := c.ClassifySequence(encs)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(before, after) {
		t.Fatal("further training left every result unchanged; the test proves nothing")
	}
	if want := oracleSequence(t, c, encs); !reflect.DeepEqual(after, want) {
		t.Fatal("results after further training differ from PosteriorVE on the new counts")
	}
}

// TestConcurrentBankRebuild races sessions on a freshly invalidated
// bank: every worker compiles or loads the bank while the others do, and
// each must decode exactly what the PosteriorVE path decodes (run under
// -race by make race).
func TestConcurrentBankRebuild(t *testing.T) {
	cfg := DefaultConfig()
	c := trainedClassifier(t, cfg, 2, 61)
	encs := testClips(t, cfg, 1, 63)[0][:12]
	want := oracleSequence(t, c, encs)
	const workers = 6
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := c.NewSession()
			for i, enc := range encs {
				res, err := s.Classify(enc)
				if err == nil && !reflect.DeepEqual(res, want[i]) {
					err = fmt.Errorf("frame %d differs from the PosteriorVE path", i)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// TestClassifyDoesNotAllocate pins the zero-allocation contract of the
// per-frame classification that //slj:hotpath proves statically.
func TestClassifyDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig()
	c := trainedClassifier(t, cfg, 2, 71)
	enc := testClips(t, cfg, 1, 73)[0][10]
	s := c.NewSession()
	if _, err := s.Classify(enc); err != nil {
		t.Fatal(err)
	}
	scores := make([]Score, pose.NumPoses)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.classify(enc, scores); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("classify allocates %v times per frame", allocs)
	}
}

// TestViterbiMatchesVEEmissions checks the decoder's emissions against
// PosteriorVE with the previous pose and stage summed out.
func TestViterbiMatchesVEEmissions(t *testing.T) {
	cfg := DefaultConfig()
	c := trainedClassifier(t, cfg, 2, 81)
	b, err := c.tables()
	if err != nil {
		t.Fatal(err)
	}
	ev := make([]int, c.numNodes())
	emis := make([]float64, pose.NumPoses+1)
	for _, enc := range testClips(t, cfg, 1, 83)[0] {
		if err := c.emissionScores(b, ev, enc, emis); err != nil {
			t.Fatal(err)
		}
		for _, p := range pose.AllPoses() {
			want, err := c.nets[p].PosteriorVE(nodePose, veEvidence(c, ev, false))
			if err != nil {
				t.Fatal(err)
			}
			if emis[p] != want[1] {
				t.Fatalf("%v: emission %v, PosteriorVE %v", p, emis[p], want[1])
			}
		}
	}
}
