package dbn

import (
	"fmt"
	"math"

	"repro/internal/keypoint"
	"repro/internal/pose"
)

// Sequence decoding. The paper's classifier is greedy — each frame's
// decision feeds the next frame's previous-pose input, so "a
// misclassified frame will still affect the classification of its
// subsequent frames" and errors arrive in consecutive runs. The
// conclusion asks for "some refinement on the DBN"; the natural one is
// joint decoding: Viterbi over the whole clip, combining per-frame
// emission scores from the BN bank with a pose-transition model learned
// from the training labels. Experiment EXT3 compares the two decoders.

// transitionSmoothing is the Laplace pseudo-count for the learned
// pose-bigram model.
const transitionSmoothing = 0.5

// noteTransition accumulates one labelled bigram (prev may be
// PoseUnknown at clip starts; it occupies row 0).
func (c *Classifier) noteTransition(prev, cur pose.Pose) {
	c.transitions[int(prev)][int(cur)]++
}

// transitionProb returns the smoothed P(cur | prev).
func (c *Classifier) transitionProb(prev, cur pose.Pose) float64 {
	row := c.transitions[int(prev)]
	total := 0.0
	for _, v := range row[1:] { // column 0 (Unknown) is never a decoding target
		total += v
	}
	den := total + transitionSmoothing*float64(pose.NumPoses)
	return (row[int(cur)] + transitionSmoothing) / den
}

// emissionScores writes into out[p], for one frame, P(pose p present |
// features) for every pose, using feature evidence only (previous pose
// and stage are marginalised out, so the score is decoder-independent).
// ev is the evidence scratch vector.
func (c *Classifier) emissionScores(b *bank, ev []int, enc keypoint.Encoding, out []float64) error {
	c.features(ev, enc)
	var dist [2]float64
	for p := pose.Pose(1); int(p) <= pose.NumPoses; p++ {
		if err := b.emission[p].Posterior(ev, dist[:]); err != nil {
			return fmt.Errorf("dbn: emission for %v: %w", p, err)
		}
		out[p] = dist[1]
	}
	return nil
}

// DecodeViterbi decodes a whole clip jointly: the most probable pose
// sequence under the learned transition model and the per-frame BN
// emissions. Stage legality is enforced by the transition model itself
// (illegal stage jumps never occur in training labels, so their smoothed
// probabilities are minimal). It never outputs Unknown.
func (c *Classifier) DecodeViterbi(encs []keypoint.Encoding) ([]pose.Pose, error) {
	if !c.trained {
		return nil, ErrNotTrained
	}
	if len(encs) == 0 {
		return nil, nil
	}
	for i, enc := range encs {
		if enc.Partitions != c.cfg.Partitions {
			return nil, fmt.Errorf("%w: frame %d has %d, configured %d",
				ErrBadEncoding, i, enc.Partitions, c.cfg.Partitions)
		}
	}
	b, err := c.tables()
	if err != nil {
		return nil, err
	}
	ev := make([]int, c.numNodes())
	emis := make([]float64, pose.NumPoses+1)
	nStates := pose.NumPoses
	logTrans := make([][]float64, nStates+1)
	for q := 0; q <= nStates; q++ {
		logTrans[q] = make([]float64, nStates+1)
		for p := 1; p <= nStates; p++ {
			logTrans[q][p] = math.Log(c.transitionProb(pose.Pose(q), pose.Pose(p)))
		}
	}

	const floor = 1e-12
	delta := make([][]float64, len(encs))
	back := make([][]int, len(encs))
	for t := range encs {
		if err := c.emissionScores(b, ev, encs[t], emis); err != nil {
			return nil, err
		}
		delta[t] = make([]float64, nStates+1)
		back[t] = make([]int, nStates+1)
		for p := 1; p <= nStates; p++ {
			le := math.Log(math.Max(emis[p], floor))
			if t == 0 {
				// Clip start: the paper resets the previous pose to
				// "standing & hands overlap with body"; the bigram row
				// of that pose is the start distribution.
				delta[t][p] = logTrans[int(pose.StandHandsAtSides)][p] + le
				continue
			}
			bestQ, bestV := 1, math.Inf(-1)
			for q := 1; q <= nStates; q++ {
				if v := delta[t-1][q] + logTrans[q][p]; v > bestV {
					bestQ, bestV = q, v
				}
			}
			delta[t][p] = bestV + le
			back[t][p] = bestQ
		}
	}

	// Backtrack.
	last := len(encs) - 1
	bestP, bestV := 1, math.Inf(-1)
	for p := 1; p <= nStates; p++ {
		if delta[last][p] > bestV {
			bestP, bestV = p, delta[last][p]
		}
	}
	out := make([]pose.Pose, len(encs))
	out[last] = pose.Pose(bestP)
	for t := last; t > 0; t-- {
		bestP = back[t][bestP]
		out[t-1] = pose.Pose(bestP)
	}
	return out, nil
}
