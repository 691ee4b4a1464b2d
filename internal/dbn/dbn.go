// Package dbn implements the paper's pose classifier: a bank of per-pose
// Bayesian networks (Figure 7(a)) extended dynamically with the previous
// pose and jump-stage variables (Figure 7(b)).
//
// Each of the 22 poses owns a small BN:
//
//	PrevPose ─┐
//	          ├─▶ PoseP (binary: this pose present?)
//	Stage ────┘        │
//	                   ├─▶ Head, Chest, Hand, Knee, Foot  (area of each part)
//	                   └─▶ Area I..Area N                 (area occupied?)
//
// The five part nodes are the paper's hidden nodes; their observed values
// are the Figure 6 feature vector (the area index of each key point
// around the waist). The N area nodes (N = partitions, paper: 8) are the
// paper's observed nodes; they mark which areas hold at least one key
// point, and serve as fallback evidence when part assignment fails on a
// degenerate skeleton.
//
// Decision rule (Section 4.2): every BN scores P(pose present | evidence);
// a per-pose threshold Th_Pose gates the rarer poses because "'Standing &
// hand swung forward' would dominate the decision making"; when no pose is
// accepted the classifier emits Unknown, and — following the paper's
// remedy — the previous-pose input for the next frame stays at the most
// recently recognised pose rather than Unknown.
package dbn

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/bayes"
	"repro/internal/keypoint"
	"repro/internal/obs"
	"repro/internal/pose"
)

// Default decision thresholds. ThPose gates every pose other than the
// dominant one; ThDefault is the acceptance floor for the dominant pose
// (below it the frame is Unknown).
const (
	DefaultThPose    = 0.5
	DefaultThDefault = 0.2
)

// Errors.
var (
	// ErrNotTrained reports classification attempted on an untrained bank.
	ErrNotTrained = errors.New("dbn: classifier has no training observations")
	// ErrBadEncoding reports a feature vector whose partition count does
	// not match the classifier configuration.
	ErrBadEncoding = errors.New("dbn: encoding partitions mismatch")
	// ErrBadLabel reports a training label outside the pose taxonomy.
	ErrBadLabel = errors.New("dbn: invalid pose label")
)

// Config tunes the classifier bank. The zero value is NOT valid; use
// DefaultConfig and modify.
type Config struct {
	// Partitions is the number of feature areas (paper: 8).
	Partitions int
	// ThPose is the per-pose acceptance threshold for non-dominant poses.
	ThPose float64
	// ThDefault is the acceptance floor for the dominant pose.
	ThDefault float64
	// PerPoseTh overrides ThPose for specific poses.
	PerPoseTh map[pose.Pose]float64
	// Dominant is the pose exempted from ThPose — the paper's
	// "Standing & hand swung forward".
	Dominant pose.Pose
	// CarryLastRecognized keeps the previous-pose input at the most
	// recently recognised pose across Unknown frames (the paper's fix);
	// when false an Unknown frame resets the previous pose to the
	// unknown state (the ablation of experiment SEC5b).
	CarryLastRecognized bool
	// UsePartEvidence feeds the five part-area values as evidence.
	UsePartEvidence bool
	// UseAreaEvidence feeds the occupied-area bits as evidence.
	UseAreaEvidence bool
	// Rings enables radial features (the conclusion's "more
	// information" extension): each per-pose network gains five ring
	// nodes holding the quantised waist distance of each part.
	// 0 (the paper's configuration) disables them.
	Rings int
	// Laplace is the CPT smoothing pseudo-count.
	Laplace float64
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Partitions:          keypoint.DefaultPartitions,
		ThPose:              DefaultThPose,
		ThDefault:           DefaultThDefault,
		Dominant:            pose.StandHandsForward,
		CarryLastRecognized: true,
		UsePartEvidence:     true,
		UseAreaEvidence:     true,
		Laplace:             bayes.DefaultLaplace,
	}
}

// node layout within each per-pose network.
const (
	nodePrev  = 0
	nodeStage = 1
	nodePose  = 2
	nodePart0 = 3 // 5 part nodes: 3..7
)

func (c *Classifier) nodeArea0() int { return nodePart0 + keypoint.NumParts }

// nodeRing0 is the index of the first ring node (only present when
// cfg.Rings > 0).
func (c *Classifier) nodeRing0() int { return c.nodeArea0() + c.cfg.Partitions }

// numNodes is the node count of every network in the bank.
func (c *Classifier) numNodes() int {
	n := c.nodeRing0()
	if c.cfg.Rings > 0 {
		n += keypoint.NumParts
	}
	return n
}

// prevStates is the cardinality of the PrevPose variable: the 22 poses
// plus state 0 for "unknown / start of clip".
const prevStates = pose.NumPoses + 1

// Configuration limits. They bound the size of a loaded model's networks
// well above any configuration the experiments use.
const (
	maxPartitions = 64
	maxRings      = 64
)

// unitInterval reports whether x lies in [0,1] (false for NaN).
func unitInterval(x float64) bool { return x >= 0 && x <= 1 }

// Classifier is the trained bank of per-pose DBNs. It is immutable during
// classification and safe for concurrent read use; training must finish
// before sessions start.
type Classifier struct {
	cfg     Config
	nets    [pose.NumPoses + 1]*bayes.Network // indexed by Pose; [0] unused
	trained bool
	// transitions counts labelled pose bigrams (row: previous pose,
	// 0 = clip start; column: current pose) for the Viterbi decoder.
	transitions [pose.NumPoses + 1][pose.NumPoses + 1]float64
	// compiled is the networks' compiled form, shared by every session;
	// nil until first use after Observe.
	compiled atomic.Pointer[bank]
}

// bank is the classifier's compiled form: every pose network flattened
// by bayes.Compile for the two evidence patterns the classifier asks. It
// is immutable once built.
type bank struct {
	// classify observes the previous pose, the stage and the features
	// (Session.Classify).
	classify [pose.NumPoses + 1]*bayes.Compiled
	// emission observes the features only (emissionScores).
	emission [pose.NumPoses + 1]*bayes.Compiled
}

// tables returns the compiled bank, building it if Observe has
// invalidated it. Builders that race compile identical banks, so it does
// not matter whose store lands last.
func (c *Classifier) tables() (*bank, error) {
	if b := c.compiled.Load(); b != nil {
		return b, nil
	}
	var features []int
	if c.cfg.UsePartEvidence {
		for i := 0; i < keypoint.NumParts; i++ {
			features = append(features, nodePart0+i)
		}
	}
	if c.cfg.UseAreaEvidence {
		for j := 0; j < c.cfg.Partitions; j++ {
			features = append(features, c.nodeArea0()+j)
		}
	}
	if c.cfg.Rings > 0 {
		for i := 0; i < keypoint.NumParts; i++ {
			features = append(features, c.nodeRing0()+i)
		}
	}
	withState := append([]int{nodePrev, nodeStage}, features...)
	b := &bank{}
	for _, p := range pose.AllPoses() {
		var err error
		if b.classify[p], err = c.nets[p].Compile(nodePose, withState); err != nil {
			return nil, fmt.Errorf("dbn: compiling %v network: %w", p, err)
		}
		if b.emission[p], err = c.nets[p].Compile(nodePose, features); err != nil {
			return nil, fmt.Errorf("dbn: compiling %v network: %w", p, err)
		}
	}
	c.compiled.Store(b)
	return b, nil
}

// features writes the frame's feature evidence into ev, which is indexed
// by network node: part areas, occupied-area bits and rings. Entries the
// configuration does not observe are written but never read.
func (c *Classifier) features(ev []int, enc keypoint.Encoding) {
	for i := 0; i < keypoint.NumParts; i++ {
		ev[nodePart0+i] = enc.Area[i]
	}
	areas := ev[c.nodeArea0() : c.nodeArea0()+c.cfg.Partitions]
	for j := range areas {
		areas[j] = 0
	}
	for _, a := range enc.Area {
		if a >= 1 && a <= c.cfg.Partitions {
			areas[a-1] = 1
		}
	}
	if c.cfg.Rings > 0 {
		for i := 0; i < keypoint.NumParts; i++ {
			ev[c.nodeRing0()+i] = enc.Ring[i]
		}
	}
}

// New builds an untrained classifier bank.
func New(cfg Config) (*Classifier, error) {
	if cfg.Partitions < 4 || cfg.Partitions%2 != 0 {
		return nil, fmt.Errorf("dbn: partitions = %d, want even and >= 4", cfg.Partitions)
	}
	if !cfg.Dominant.Valid() {
		return nil, fmt.Errorf("dbn: dominant pose %v invalid", cfg.Dominant)
	}
	if cfg.Partitions > maxPartitions {
		return nil, fmt.Errorf("dbn: partitions = %d, want <= %d", cfg.Partitions, maxPartitions)
	}
	if !unitInterval(cfg.ThPose) || !unitInterval(cfg.ThDefault) {
		return nil, fmt.Errorf("dbn: thresholds out of [0,1]")
	}
	for p, th := range cfg.PerPoseTh {
		if !p.Valid() || !unitInterval(th) {
			return nil, fmt.Errorf("dbn: threshold %v for pose %v out of [0,1]", th, p)
		}
	}
	if cfg.Rings < 0 || cfg.Rings > maxRings {
		return nil, fmt.Errorf("dbn: rings = %d, want 0..%d", cfg.Rings, maxRings)
	}
	if math.IsNaN(cfg.Laplace) || math.IsInf(cfg.Laplace, 0) {
		return nil, fmt.Errorf("dbn: laplace = %v, want finite", cfg.Laplace)
	}
	if !cfg.UsePartEvidence && !cfg.UseAreaEvidence {
		return nil, errors.New("dbn: at least one evidence channel must be enabled")
	}
	c := &Classifier{cfg: cfg}
	for _, p := range pose.AllPoses() {
		n := bayes.New()
		n.SetLaplace(cfg.Laplace)
		mustAdd := func(name string, states int, parents ...int) int {
			id, err := n.AddNode(name, states, parents...)
			if err != nil {
				panic(fmt.Sprintf("dbn: building %v network: %v", p, err))
			}
			return id
		}
		prev := mustAdd("prev_pose", prevStates)
		stage := mustAdd("stage", pose.NumStages)
		poseNode := mustAdd("pose:"+p.String(), 2, prev, stage)
		for _, part := range keypoint.Parts() {
			mustAdd(part.String(), cfg.Partitions+1, poseNode)
		}
		for j := 1; j <= cfg.Partitions; j++ {
			mustAdd(fmt.Sprintf("area%d", j), 2, poseNode)
		}
		for _, part := range keypoint.Parts() {
			if cfg.Rings > 0 {
				mustAdd(part.String()+"_ring", cfg.Rings+1, poseNode)
			}
		}
		c.nets[p] = n
	}
	return c, nil
}

// Config returns a copy of the effective configuration.
func (c *Classifier) Config() Config { return c.cfg }

// assignment builds the complete observation vector for one network.
func (c *Classifier) assignment(prev pose.Pose, stage pose.Stage, present bool, enc keypoint.Encoding) []int {
	n := nodePart0 + keypoint.NumParts + c.cfg.Partitions
	if c.cfg.Rings > 0 {
		n += keypoint.NumParts
	}
	out := make([]int, n)
	out[nodePrev] = int(prev) // PoseUnknown = 0 maps to the unknown state
	out[nodeStage] = int(stage) - 1
	if present {
		out[nodePose] = 1
	}
	for i := 0; i < keypoint.NumParts; i++ {
		out[nodePart0+i] = enc.Area[i]
	}
	for j, occ := range enc.OccupiedAreas() {
		if occ {
			out[c.nodeArea0()+j] = 1
		}
	}
	if c.cfg.Rings > 0 {
		for i := 0; i < keypoint.NumParts; i++ {
			out[c.nodeRing0()+i] = enc.Ring[i]
		}
	}
	return out
}

// Observe adds one labelled training frame: the ground-truth pose of the
// frame, the previous frame's ground-truth pose (PoseUnknown for the first
// frame), the jump stage, and the frame's feature encoding. Every network
// in the bank learns from the frame — positively for the true pose's
// network, negatively for all others.
func (c *Classifier) Observe(prev pose.Pose, stage pose.Stage, truth pose.Pose, enc keypoint.Encoding) error {
	if !truth.Valid() {
		return fmt.Errorf("%w: %v", ErrBadLabel, truth)
	}
	if !stage.Valid() {
		return fmt.Errorf("dbn: invalid stage %v", stage)
	}
	if enc.Partitions != c.cfg.Partitions {
		return fmt.Errorf("%w: got %d, configured %d", ErrBadEncoding, enc.Partitions, c.cfg.Partitions)
	}
	if enc.Rings != c.cfg.Rings {
		return fmt.Errorf("%w: got %d rings, configured %d", ErrBadEncoding, enc.Rings, c.cfg.Rings)
	}
	if prev != pose.PoseUnknown && !prev.Valid() {
		return fmt.Errorf("%w: previous pose %v", ErrBadLabel, prev)
	}
	// Drop the compiled bank once the counts have changed, on every
	// return path: a rebuild that ran mid-update would hold stale tables.
	defer c.compiled.Store(nil)
	for _, p := range pose.AllPoses() {
		if err := c.nets[p].Observe(c.assignment(prev, stage, p == truth, enc), 1); err != nil {
			return fmt.Errorf("dbn: observing into %v network: %w", p, err)
		}
	}
	c.noteTransition(prev, truth)
	c.trained = true
	return nil
}

// LabeledFrame is one training frame.
type LabeledFrame struct {
	// Label is the ground-truth pose.
	Label pose.Pose
	// Enc is the frame's feature encoding.
	Enc keypoint.Encoding
}

// TrainSequence observes a whole labelled clip, deriving the previous-pose
// chain and the stage flag exactly as the paper's training phase does:
// the first frame resets the stage to "before jumping" and the previous
// pose to "standing & hand overlap with body".
func (c *Classifier) TrainSequence(frames []LabeledFrame) error {
	prev := pose.StandHandsAtSides
	stage := pose.StageBeforeJump
	for i, f := range frames {
		if err := c.Observe(prev, stage, f.Label, f.Enc); err != nil {
			return fmt.Errorf("dbn: frame %d: %w", i, err)
		}
		stage = pose.NextStage(stage, f.Label)
		prev = f.Label
	}
	return nil
}

// Score holds one pose's posterior for a frame.
type Score struct {
	Pose pose.Pose
	Prob float64
}

// Result is the classification of one frame.
type Result struct {
	// Pose is the decision; PoseUnknown when nothing is accepted.
	Pose pose.Pose
	// Prob is the accepted pose's posterior (0 for Unknown).
	Prob float64
	// Stage is the jump-stage flag AFTER processing this frame.
	Stage pose.Stage
	// Scores lists every pose's posterior, descending.
	Scores []Score
}

// threshold returns the acceptance threshold for p.
func (c *Classifier) threshold(p pose.Pose) float64 {
	if th, ok := c.cfg.PerPoseTh[p]; ok {
		return th
	}
	if p == c.cfg.Dominant {
		return c.cfg.ThDefault
	}
	return c.cfg.ThPose
}

// Session carries the per-clip decoding state: the previous-pose input
// and the jump-stage flag. Sessions are not safe for concurrent use; make
// one per clip.
type Session struct {
	c *Classifier
	// prev is the previous-pose input for the next frame.
	prev pose.Pose
	// lastRecognized is the most recently accepted pose.
	lastRecognized pose.Pose
	// stage is the current jump-stage flag.
	stage pose.Stage
	// sc instruments decisions (latency, Unknown rate per jump stage);
	// nil disables.
	sc *obs.Scope
	// frame counts Classify calls, so Unknown decisions journal with
	// the frame index they were made on.
	frame int
	// ev is the evidence vector, indexed by network node.
	ev []int
	// slab backs the Scores of the results still to come.
	slab []Score
}

// slabFrames is how many frames' Scores one Session.Classify slab
// allocation covers.
const slabFrames = 16

// NewSession starts decoding a clip: "When the first frame enters, we
// reset the jumping stage to 'before jumping' and the current pose to
// 'standing & hand overlap with body'."
func (c *Classifier) NewSession() *Session {
	return &Session{
		c:              c,
		prev:           pose.StandHandsAtSides,
		lastRecognized: pose.StandHandsAtSides,
		stage:          pose.StageBeforeJump,
	}
}

// SetScope attaches an observability scope to the session: each
// Classify call is timed into the classify stage histogram and every
// decision is attributed to the jump stage it was made under (the
// pipeline.decided.* / pipeline.unknown.* counters). A nil scope (the
// default) disables instrumentation at zero cost.
func (s *Session) SetScope(sc *obs.Scope) { s.sc = sc }

// Stage returns the current jump-stage flag.
func (s *Session) Stage() pose.Stage { return s.stage }

// Prev returns the previous-pose input that the next frame will use.
func (s *Session) Prev() pose.Pose { return s.prev }

// Classify decodes one frame and advances the session state.
func (s *Session) Classify(enc keypoint.Encoding) (Result, error) {
	if s.ev == nil {
		s.ev = make([]int, s.c.numNodes())
	}
	if len(s.slab) < pose.NumPoses {
		s.slab = make([]Score, slabFrames*pose.NumPoses)
	}
	r, err := s.classify(enc, s.slab[:pose.NumPoses:pose.NumPoses])
	if err == nil {
		s.slab = s.slab[pose.NumPoses:]
	}
	return r, err
}

// classify is Classify with the result's Scores backed by scores, which
// holds one slot per pose: every network's posterior is a walk over its
// compiled tables.
//
//slj:hotpath
func (s *Session) classify(enc keypoint.Encoding, scores []Score) (Result, error) {
	c := s.c
	if !c.trained {
		return Result{}, ErrNotTrained
	}
	sp := s.sc.Start(obs.StageClassify)
	defer sp.End()
	if enc.Partitions != c.cfg.Partitions || enc.Rings != c.cfg.Rings {
		return Result{}, fmt.Errorf("%w: got %d partitions/%d rings, configured %d/%d", //slj:alloc-ok cold error path, the frame is rejected
			ErrBadEncoding, enc.Partitions, enc.Rings, c.cfg.Partitions, c.cfg.Rings)
	}
	b, err := c.tables() //slj:alloc-ok compiles once after training; later frames only load the pointer
	if err != nil {
		return Result{}, err
	}
	c.features(s.ev, enc)
	s.ev[nodePrev] = int(s.prev)
	s.ev[nodeStage] = int(s.stage) - 1
	var dist [2]float64
	for p := pose.Pose(1); int(p) <= pose.NumPoses; p++ {
		if err := b.classify[p].Posterior(s.ev, dist[:]); err != nil {
			return Result{}, fmt.Errorf("dbn: scoring %v: %w", p, err) //slj:alloc-ok cold error path, the frame is rejected
		}
		scores[p-1] = Score{Pose: p, Prob: dist[1]}
	}
	slices.SortStableFunc(scores, byProbDesc)

	// Decision: best pose whose posterior clears its threshold; the
	// dominant pose uses the (lower) ThDefault floor.
	decided := pose.PoseUnknown
	prob := 0.0
	for _, sc := range scores {
		if sc.Prob > c.threshold(sc.Pose) {
			decided, prob = sc.Pose, sc.Prob
			break
		}
	}

	// The decision is attributed to the stage it was made UNDER (the
	// evidence fed to the networks), not the stage it advances to.
	s.sc.Decision(int(s.stage), s.frame, decided == pose.PoseUnknown)
	s.frame++

	// Advance the dynamic state.
	if decided != pose.PoseUnknown {
		s.stage = pose.NextStage(s.stage, decided)
		s.prev = decided
		s.lastRecognized = decided
	} else if c.cfg.CarryLastRecognized {
		s.prev = s.lastRecognized
	} else {
		s.prev = pose.PoseUnknown
	}
	return Result{Pose: decided, Prob: prob, Stage: s.stage, Scores: scores}, nil
}

// byProbDesc orders scores by descending posterior. slices.SortStableFunc
// runs the insertion-sort and symMerge passes sort.SliceStable runs and
// only ever tests byProbDesc(a, b) < 0, so ties keep pose order exactly
// as the former sort.SliceStable with a ">" test did.
func byProbDesc(a, b Score) int {
	switch {
	case a.Prob > b.Prob:
		return -1
	case a.Prob < b.Prob:
		return 1
	}
	return 0
}

// ClassifySequence decodes a whole clip with a fresh session, returning
// one result per frame.
func (c *Classifier) ClassifySequence(encs []keypoint.Encoding) ([]Result, error) {
	return c.ClassifySequenceScoped(encs, nil)
}

// ClassifySequenceScoped is ClassifySequence with an observability
// scope attached to the clip's session (nil behaves exactly like
// ClassifySequence).
func (c *Classifier) ClassifySequenceScoped(encs []keypoint.Encoding, sc *obs.Scope) ([]Result, error) {
	s := c.NewSession()
	s.SetScope(sc)
	s.slab = make([]Score, len(encs)*pose.NumPoses)
	out := make([]Result, 0, len(encs))
	for i, enc := range encs {
		r, err := s.Classify(enc)
		if err != nil {
			return nil, fmt.Errorf("dbn: frame %d: %w", i, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Network exposes the per-pose network for inspection (experiments print
// Figure 7 structures from it). The returned network is live; do not
// mutate it: classification reads the compiled bank, which only Observe
// rebuilds.
func (c *Classifier) Network(p pose.Pose) (*bayes.Network, error) {
	if !p.Valid() {
		return nil, fmt.Errorf("%w: %v", ErrBadLabel, p)
	}
	return c.nets[p], nil
}

// Trained reports whether any observation has been made.
func (c *Classifier) Trained() bool { return c.trained }
