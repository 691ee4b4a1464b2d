// Golden tests for the per-worker frame arena: the arena-backed hot
// path must be bit-identical to the pre-arena allocate-per-frame path
// (WithFrameScratch(false)) at every worker count, and the steady-state
// per-frame cost must stay at zero heap allocations.
package slj

import (
	"bytes"
	"reflect"
	"testing"
)

// arenaVariants are the front-end configurations whose outputs must not
// depend on whether the arena is enabled.
var arenaVariants = []struct {
	name string
	opts []Option
}{
	{"default", nil},
	{"ground-truth", []Option{WithGroundTruthSilhouettes(true)}},
	{"auto-orient", []Option{WithAutoOrient(true)}},
}

// TestArenaTrainMatchesPreArena pins the trained model bytes: training
// through the arena must produce the identical classifier.
func TestArenaTrainMatchesPreArena(t *testing.T) {
	ds := smallDataset(t, 71)
	for _, v := range arenaVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			_, want := trainGolden(t, ds, append([]Option{WithFrameScratch(false)}, v.opts...)...)
			_, got := trainGolden(t, ds, v.opts...)
			if !bytes.Equal(got, want) {
				t.Error("arena-trained model differs from pre-arena model")
			}
		})
	}
}

// TestArenaMatchesPreArena runs Evaluate and ClassifyAll at workers
// {1, 2, 8} with the arena enabled and compares every result against the
// sequential pre-arena path.
func TestArenaMatchesPreArena(t *testing.T) {
	ds := smallDataset(t, 72)
	for _, v := range arenaVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			ref, model := trainGolden(t, ds, append([]Option{WithFrameScratch(false)}, v.opts...)...)
			wantSum, wantConf, err := ref.Evaluate(ds.Test)
			if err != nil {
				t.Fatal(err)
			}
			var wantRes [][]Result
			for _, lc := range ds.Test {
				res, err := ref.ClassifyClip(lc)
				if err != nil {
					t.Fatal(err)
				}
				wantRes = append(wantRes, res)
			}
			for _, workers := range []int{1, 2, 8} {
				eng, err := NewEngine(workers, v.opts...)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.LoadModel(bytes.NewReader(model)); err != nil {
					t.Fatal(err)
				}
				sum, conf, err := eng.Evaluate(ds.Test)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sum, wantSum) {
					t.Errorf("workers=%d: arena summary differs from pre-arena", workers)
				}
				if !reflect.DeepEqual(conf, wantConf) {
					t.Errorf("workers=%d: arena confusion differs from pre-arena", workers)
				}
				got, err := eng.ClassifyAll(ds.Test)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, wantRes) {
					t.Errorf("workers=%d: arena ClassifyAll differs from pre-arena", workers)
				}
			}
		})
	}
}

// TestFrameAnalysisAllocs pins the zero-allocation per-frame hot path:
// once the arena and the imaging pool are warm, the whole front end
// (extraction → thinning → graph → key points → encoding) must run
// without heap allocation. The issue budget allows 8 allocs/op of slack
// for toolchain drift.
func TestFrameAnalysisAllocs(t *testing.T) {
	ds := smallDataset(t, 73)
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	lc := ds.Test[0]
	sys.SetBackground(lc.Clip.Background)
	frame := lc.Clip.Frames[len(lc.Clip.Frames)/2].Image
	for i := 0; i < 5; i++ { // warm the arena and the imaging pool
		if _, err := sys.AnalyzeFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sys.AnalyzeFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("AnalyzeFrame allocates %.1f objects per frame in steady state, want <= 8", allocs)
	}
}
