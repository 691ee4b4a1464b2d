package dbn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"repro/internal/bayes"
	"repro/internal/pose"
)

// poseNetwork pairs a pose with its network snapshot in the model file.
type poseNetwork struct {
	Pose    int
	Network bayes.Snapshot
}

// poseThreshold is one Config.PerPoseTh entry, flattened for stable
// serialisation.
type poseThreshold struct {
	Pose int
	Th   float64
}

// modelFile is the on-disk representation of a trained classifier. Maps
// are flattened into ordered slices so identical classifiers serialise
// to identical bytes (gob encodes map entries in random iteration
// order), which the parallel-vs-sequential golden tests rely on.
type modelFile struct {
	// Version guards the format.
	Version int
	// Config is the classifier configuration with PerPoseTh nilled out;
	// the overrides travel in Thresholds instead.
	Config Config
	// Thresholds holds Config.PerPoseTh sorted by pose.
	Thresholds []poseThreshold
	Trained    bool
	// Networks lists every pose's network snapshot in pose order.
	Networks []poseNetwork
	// Transitions is the labelled pose-bigram count matrix for the
	// Viterbi decoder.
	Transitions [pose.NumPoses + 1][pose.NumPoses + 1]float64
}

// modelVersion 2 replaced the pose→network map with an ordered slice,
// making Save deterministic.
const modelVersion = 2

// Save serialises the trained bank with encoding/gob. The output is
// deterministic: saving the same trained classifier twice yields
// identical bytes.
func (c *Classifier) Save(w io.Writer) error {
	cfg := c.cfg
	cfg.PerPoseTh = nil
	mf := modelFile{
		Version:     modelVersion,
		Config:      cfg,
		Trained:     c.trained,
		Networks:    make([]poseNetwork, 0, pose.NumPoses),
		Transitions: c.transitions,
	}
	for p, th := range c.cfg.PerPoseTh {
		mf.Thresholds = append(mf.Thresholds, poseThreshold{Pose: int(p), Th: th})
	}
	sort.Slice(mf.Thresholds, func(i, j int) bool { return mf.Thresholds[i].Pose < mf.Thresholds[j].Pose })
	for _, p := range pose.AllPoses() {
		mf.Networks = append(mf.Networks, poseNetwork{Pose: int(p), Network: c.nets[p].Snapshot()})
	}
	if err := gob.NewEncoder(w).Encode(mf); err != nil {
		return fmt.Errorf("dbn: encoding model: %w", err)
	}
	return nil
}

// Load reconstructs a classifier saved with Save.
func Load(r io.Reader) (*Classifier, error) {
	var mf modelFile
	if err := gob.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("dbn: decoding model: %w", err)
	}
	if mf.Version != modelVersion {
		return nil, fmt.Errorf("dbn: model version %d, want %d", mf.Version, modelVersion)
	}
	if len(mf.Thresholds) > 0 {
		mf.Config.PerPoseTh = make(map[pose.Pose]float64, len(mf.Thresholds))
		for _, pt := range mf.Thresholds {
			mf.Config.PerPoseTh[pose.Pose(pt.Pose)] = pt.Th
		}
	}
	c, err := New(mf.Config)
	if err != nil {
		return nil, fmt.Errorf("dbn: model config: %w", err)
	}
	nets := make(map[int]bayes.Snapshot, len(mf.Networks))
	for _, pn := range mf.Networks {
		nets[pn.Pose] = pn.Network
	}
	for _, p := range pose.AllPoses() {
		snap, ok := nets[int(p)]
		if !ok {
			return nil, fmt.Errorf("dbn: model missing network for %v", p)
		}
		// The compiled tables index by evidence state, so the network
		// must have exactly the layout New builds; checking it first
		// also keeps FromSnapshot from sizing tables by untrusted counts.
		if err := sameLayout(c.nets[p], snap); err != nil {
			return nil, fmt.Errorf("dbn: network for %v: %w", p, err)
		}
		net, err := bayes.FromSnapshot(snap)
		if err != nil {
			return nil, fmt.Errorf("dbn: network for %v: %w", p, err)
		}
		c.nets[p] = net
	}
	for _, row := range mf.Transitions {
		for _, v := range row {
			if !(v >= 0) || math.IsInf(v, 1) {
				return nil, fmt.Errorf("dbn: transition count %v is negative or not finite", v)
			}
		}
	}
	c.trained = mf.Trained
	c.transitions = mf.Transitions
	if _, err := c.tables(); err != nil {
		return nil, err
	}
	return c, nil
}

// sameLayout checks that a saved network has want's nodes: the same
// count, and each node the same cardinality and parents.
func sameLayout(want *bayes.Network, got bayes.Snapshot) error {
	if len(got.Nodes) != want.Len() {
		return fmt.Errorf("%d nodes, want %d", len(got.Nodes), want.Len())
	}
	for i, ns := range got.Nodes {
		nd, err := want.Node(i)
		if err != nil {
			return err
		}
		if ns.States != nd.States || !slices.Equal(ns.Parents, nd.Parents) {
			return fmt.Errorf("node %d has %d states and parents %v, want %d states and parents %v",
				i, ns.States, ns.Parents, nd.States, nd.Parents)
		}
	}
	return nil
}
