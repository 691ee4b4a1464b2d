// Package stats provides the evaluation metrics of Section 5: per-clip
// and overall pose-classification accuracy, confusion matrices, per-stage
// breakdowns, and the consecutive-error-run analysis behind the paper's
// observation that "most errors in our experiments occurred in
// consecutive frames".
package stats

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/pose"
)

// Confusion is a pose confusion matrix. Rows are truth, columns are
// predictions; index 0 is PoseUnknown.
type Confusion struct {
	// Counts[t][p] is the number of frames with truth t predicted p.
	Counts [pose.NumPoses + 1][pose.NumPoses + 1]int
}

// Add records one frame.
func (c *Confusion) Add(truth, predicted pose.Pose) {
	c.Counts[clampPose(truth)][clampPose(predicted)]++
}

func clampPose(p pose.Pose) int {
	if p < 0 || int(p) > pose.NumPoses {
		return 0
	}
	return int(p)
}

// Total returns the number of recorded frames.
func (c *Confusion) Total() int {
	n := 0
	for t := range c.Counts {
		for p := range c.Counts[t] {
			n += c.Counts[t][p]
		}
	}
	return n
}

// Correct returns the number of frames predicted exactly right.
func (c *Confusion) Correct() int {
	n := 0
	for i := range c.Counts {
		n += c.Counts[i][i]
	}
	return n
}

// Accuracy returns Correct/Total, or 0 for an empty matrix.
func (c *Confusion) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.Correct()) / float64(t)
}

// UnknownRate returns the fraction of frames predicted Unknown.
func (c *Confusion) UnknownRate() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	n := 0
	for truth := range c.Counts {
		n += c.Counts[truth][0]
	}
	return float64(n) / float64(t)
}

// TopConfusions returns the n largest off-diagonal cells, descending.
func (c *Confusion) TopConfusions(n int) []ConfusionCell {
	var cells []ConfusionCell
	for t := range c.Counts {
		for p := range c.Counts[t] {
			if t != p && c.Counts[t][p] > 0 {
				cells = append(cells, ConfusionCell{
					Truth: pose.Pose(t), Predicted: pose.Pose(p), Count: c.Counts[t][p],
				})
			}
		}
	}
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].Count > cells[j].Count })
	if len(cells) > n {
		cells = cells[:n]
	}
	return cells
}

// ConfusionCell is one off-diagonal confusion entry.
type ConfusionCell struct {
	Truth, Predicted pose.Pose
	Count            int
}

// ClipResult is the evaluation of one clip.
type ClipResult struct {
	// Name identifies the clip.
	Name string
	// Frames is the clip length.
	Frames int
	// Correct is the number of exactly-right frames.
	Correct int
	// Unknown is the number of rejected frames.
	Unknown int
	// ErrorRuns is the run-length histogram of consecutive-error spans:
	// ErrorRuns[k] = number of maximal error runs of length k.
	ErrorRuns map[int]int
	// StageCorrect and StageTotal break accuracy down by the TRUE
	// frame's canonical stage.
	StageCorrect, StageTotal map[pose.Stage]int
}

// Accuracy returns the clip's frame accuracy.
func (c ClipResult) Accuracy() float64 {
	if c.Frames == 0 {
		return 0
	}
	return float64(c.Correct) / float64(c.Frames)
}

// EvaluateClip scores a prediction sequence against the truth. The
// sequences must be equal length.
func EvaluateClip(name string, truth, predicted []pose.Pose) (ClipResult, error) {
	if len(truth) != len(predicted) {
		return ClipResult{}, fmt.Errorf("stats: %d truth frames vs %d predictions", len(truth), len(predicted))
	}
	res := ClipResult{
		Name: name, Frames: len(truth),
		ErrorRuns:    make(map[int]int),
		StageCorrect: make(map[pose.Stage]int),
		StageTotal:   make(map[pose.Stage]int),
	}
	run := 0
	for i := range truth {
		st := pose.StageOf(truth[i])
		res.StageTotal[st]++
		ok := truth[i] == predicted[i]
		if ok {
			res.Correct++
			res.StageCorrect[st]++
			if run > 0 {
				res.ErrorRuns[run]++
				run = 0
			}
		} else {
			run++
		}
		if predicted[i] == pose.PoseUnknown {
			res.Unknown++
		}
	}
	if run > 0 {
		res.ErrorRuns[run]++
	}
	return res, nil
}

// MeanErrorRunLength returns the average length of maximal error runs,
// or 0 when there are none. Values well above 1 confirm the paper's
// errors-cluster-in-consecutive-frames observation.
func (c ClipResult) MeanErrorRunLength() float64 {
	runs, frames := 0, 0
	for length, count := range c.ErrorRuns {
		runs += count
		frames += length * count
	}
	if runs == 0 {
		return 0
	}
	return float64(frames) / float64(runs)
}

// Summary aggregates clip results into the Section 5 table.
type Summary struct {
	Clips []ClipResult
}

// Add appends a clip result.
func (s *Summary) Add(c ClipResult) { s.Clips = append(s.Clips, c) }

// PerStageAccuracy aggregates stage-level accuracy across clips; stages
// never seen are absent from the map.
func (s *Summary) PerStageAccuracy() map[pose.Stage]float64 {
	correct := make(map[pose.Stage]int)
	total := make(map[pose.Stage]int)
	for _, c := range s.Clips {
		for st, n := range c.StageTotal {
			total[st] += n
		}
		for st, n := range c.StageCorrect {
			correct[st] += n
		}
	}
	out := make(map[pose.Stage]float64, len(total))
	for st, n := range total {
		if n > 0 {
			out[st] = float64(correct[st]) / float64(n)
		}
	}
	return out
}

// OverallAccuracy returns total correct over total frames.
func (s *Summary) OverallAccuracy() float64 {
	correct, frames := 0, 0
	for _, c := range s.Clips {
		correct += c.Correct
		frames += c.Frames
	}
	if frames == 0 {
		return 0
	}
	return float64(correct) / float64(frames)
}

// MinAccuracy and MaxAccuracy give the per-clip accuracy band — the
// paper reports "from 81% to 87% for the three test video clips".
func (s *Summary) MinAccuracy() float64 {
	if len(s.Clips) == 0 {
		return 0
	}
	m := s.Clips[0].Accuracy()
	for _, c := range s.Clips[1:] {
		if a := c.Accuracy(); a < m {
			m = a
		}
	}
	return m
}

// MaxAccuracy returns the best per-clip accuracy.
func (s *Summary) MaxAccuracy() float64 {
	m := 0.0
	for _, c := range s.Clips {
		if a := c.Accuracy(); a > m {
			m = a
		}
	}
	return m
}

// TotalFrames returns the summed clip lengths.
func (s *Summary) TotalFrames() int {
	n := 0
	for _, c := range s.Clips {
		n += c.Frames
	}
	return n
}

// Table renders the per-clip accuracy table in the shape of the paper's
// Section 5 result.
func (s *Summary) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s %14s\n", "clip", "frames", "correct", "unknown", "acc", "mean err run")
	for _, c := range s.Clips {
		fmt.Fprintf(&b, "%-12s %8d %8d %8d %7.1f%% %14.2f\n",
			c.Name, c.Frames, c.Correct, c.Unknown, 100*c.Accuracy(), c.MeanErrorRunLength())
	}
	fmt.Fprintf(&b, "%-12s %8d %8s %8s %7.1f%%  (band %.0f%%-%.0f%%)\n",
		"overall", s.TotalFrames(), "", "", 100*s.OverallAccuracy(),
		100*s.MinAccuracy(), 100*s.MaxAccuracy())
	return b.String()
}
