// Benchmarks, one per paper artifact (Figures 1-8, the Section 5
// evaluation and its ablation, the GA baseline and the extension sweeps)
// plus micro-benchmarks of each pipeline stage. Each experiment bench
// runs the corresponding internal/experiments runner in its Quick
// configuration; full-size numbers come from `go run ./cmd/sljexp`.
package slj_test

import (
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"testing"

	slj "repro"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/imaging"
	"repro/internal/keypoint"
	"repro/internal/obs"
	"repro/internal/pose"
	"repro/internal/skelgraph"
	"repro/internal/synth"
	"repro/internal/thinning"
)

func benchCfg() experiments.Config { return experiments.Config{Seed: 2008, Quick: true} }

func runExperiment(b *testing.B, name string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(name, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1ObjectExtraction regenerates Figure 1 (background
// subtraction + median smoothing quality).
func BenchmarkFig1ObjectExtraction(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig2Thinning regenerates Figure 2 (raw thinning artefacts).
func BenchmarkFig2Thinning(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig3LoopCut regenerates Figure 3 (maximum-spanning-tree loop
// cutting, against the minimum-spanning ablation).
func BenchmarkFig3LoopCut(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4Pruning regenerates Figure 4 (one-at-a-time pruning
// against delete-all-at-once).
func BenchmarkFig4Pruning(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5Gallery regenerates Figure 5 (skeleton gallery).
func BenchmarkFig5Gallery(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6Encoding regenerates Figure 6 (area feature encoding).
func BenchmarkFig6Encoding(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7Inference regenerates Figure 7 (BN/DBN structure and the
// dynamic-edge probe).
func BenchmarkFig7Inference(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8FullPipeline regenerates Figure 8 (skeletons across a
// whole jump).
func BenchmarkFig8FullPipeline(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkSec5Evaluation regenerates the Section 5 headline numbers
// (per-clip accuracy, threshold ablation).
func BenchmarkSec5Evaluation(b *testing.B) { runExperiment(b, "sec5") }

// BenchmarkSec5bAblation regenerates the previous-pose policy ablation
// and the consecutive-error-run histogram.
func BenchmarkSec5bAblation(b *testing.B) { runExperiment(b, "sec5b") }

// BenchmarkGABaseline regenerates the GA-vs-thinning cost comparison.
func BenchmarkGABaseline(b *testing.B) { runExperiment(b, "ga") }

// BenchmarkExt1Partitions regenerates the partition-count sweep.
func BenchmarkExt1Partitions(b *testing.B) { runExperiment(b, "ext1") }

// BenchmarkExt2TrainingSize regenerates the training-set-size sweep.
func BenchmarkExt2TrainingSize(b *testing.B) { runExperiment(b, "ext2") }

// BenchmarkExt3ViterbiDecoding regenerates the greedy-vs-Viterbi
// decoding comparison.
func BenchmarkExt3ViterbiDecoding(b *testing.B) { runExperiment(b, "ext3") }

// BenchmarkExt4EvidenceChannels regenerates the hidden-parts vs
// observed-areas evidence ablation.
func BenchmarkExt4EvidenceChannels(b *testing.B) { runExperiment(b, "ext4") }

// BenchmarkExt5Skeletonizer regenerates the end-to-end skeletonizer
// ablation (Z-S vs Guo-Hall vs medial axis).
func BenchmarkExt5Skeletonizer(b *testing.B) { runExperiment(b, "ext5") }

// BenchmarkExt6RadialFeatures regenerates the radial-feature sweep.
func BenchmarkExt6RadialFeatures(b *testing.B) { runExperiment(b, "ext6") }

// BenchmarkExt7GAPipeline regenerates the complete-system comparison
// (thinning pipeline vs GA stick-model pipeline).
func BenchmarkExt7GAPipeline(b *testing.B) { runExperiment(b, "ext7") }

// BenchmarkExt8Orientation regenerates the mirrored-clip robustness
// comparison.
func BenchmarkExt8Orientation(b *testing.B) { runExperiment(b, "ext8") }

// BenchmarkExt9LabelNoise regenerates the label-noise sweep.
func BenchmarkExt9LabelNoise(b *testing.B) { runExperiment(b, "ext9") }

// BenchmarkExt10Baseline regenerates the DBN-vs-lookup comparison.
func BenchmarkExt10Baseline(b *testing.B) { runExperiment(b, "ext10") }

// BenchmarkJumpMeasurement regenerates the tracked jump-distance table.
func BenchmarkJumpMeasurement(b *testing.B) { runExperiment(b, "jump") }

// BenchmarkCV regenerates the k-fold cross-validation summary.
func BenchmarkCV(b *testing.B) { runExperiment(b, "cv") }

// --- parallel evaluation engine -------------------------------------------

// benchTrainedEngine builds a dataset and a trained engine with the given
// worker count, shared classifier, fresh extractor per worker.
func benchTrainedEngine(b *testing.B, workers int) (*slj.Engine, *dataset.Dataset) {
	b.Helper()
	ds, err := dataset.Generate(dataset.GenOptions{TrainClips: 2, TestClips: 2, Seed: 11, VaryBody: true})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := slj.NewEngine(workers)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Train(ds.Train); err != nil {
		b.Fatal(err)
	}
	return eng, ds
}

// BenchmarkEvaluateSequential measures the paper-faithful sequential
// System.Evaluate over the test split — the baseline the parallel engine
// is compared against.
func BenchmarkEvaluateSequential(b *testing.B) {
	eng, ds := benchTrainedEngine(b, 1)
	sys := eng.System()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.Evaluate(ds.Test); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateParallel measures Engine.Evaluate at several worker
// counts. Output is bit-identical to BenchmarkEvaluateSequential's at
// every setting; on a w-core machine the clip fan-out approaches a w-fold
// speedup until the serial DBN decode dominates.
func BenchmarkEvaluateParallel(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng, ds := benchTrainedEngine(b, w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Evaluate(ds.Test); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineClassifyClip measures Engine.ClassifyClip, which splits
// one clip's frames into contiguous ranges over the idle Systems of the
// pool (one range at workers=1) and then decodes the DBN serially.
func BenchmarkEngineClassifyClip(b *testing.B) {
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng, ds := benchTrainedEngine(b, w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.ClassifyClip(ds.Test[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamEvaluate measures the streaming evaluation path: each
// iteration opens a lazy DirSource over an on-disk corpus and evaluates
// it, decoding clips and frames on demand. Beyond the standard metrics
// it reports frames/s throughput and the peak decoded-clip residency
// (engine.clips_in_flight), which the streaming layer bounds to the
// worker count.
func BenchmarkStreamEvaluate(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			ds, err := dataset.Generate(dataset.GenOptions{TrainClips: 2, TestClips: 2, Seed: 11, VaryBody: true})
			if err != nil {
				b.Fatal(err)
			}
			root := b.TempDir()
			if err := dataset.Save(root, ds); err != nil {
				b.Fatal(err)
			}
			scope := obs.NewScope(obs.NewRegistry())
			eng, err := slj.NewEngine(w, slj.WithObservability(scope))
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Train(ds.Train); err != nil {
				b.Fatal(err)
			}
			_, testFrames := ds.TotalFrames()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, err := dataset.OpenDir(filepath.Join(root, "test"))
				if err != nil {
					b.Fatal(err)
				}
				_, _, err = eng.EvaluateSource(src)
				src.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(testFrames)*float64(b.N)/s, "frames/s")
			}
			for _, g := range scope.Registry().Snapshot().Gauges {
				if g.Name == "engine.clips_in_flight" {
					b.ReportMetric(float64(g.Value), "peak-clips")
				}
			}
		})
	}
}

// --- micro-benchmarks of the pipeline stages ------------------------------

func benchSilhouette() *imaging.Binary {
	s := pose.Compute(imaging.Pointf{X: 150, Y: 100}, 90,
		pose.Angles(pose.CrouchHandsBackward), pose.DefaultProportions())
	return synth.RenderSilhouette(s, synth.DefaultShape(), 90, 320, 200)
}

// BenchmarkStageThinning measures Zhang-Suen thinning of one silhouette.
func BenchmarkStageThinning(b *testing.B) {
	sil := benchSilhouette()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		thinning.Thin(sil, thinning.ZhangSuen)
	}
}

// BenchmarkStageGraphBuild measures skeleton-graph construction with loop
// cutting and pruning on one reused arena, as each System runs it.
func BenchmarkStageGraphBuild(b *testing.B) {
	skel := thinning.Thin(benchSilhouette(), thinning.ZhangSuen)
	sc := new(skelgraph.Scratch)
	build := func() {
		g, err := skelgraph.BuildScratch(skel, sc)
		if err != nil {
			b.Fatal(err)
		}
		g.Prune(skelgraph.DefaultPruneLen)
	}
	build() // warm the arena: steady-state frames, not its first growth
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
}

// BenchmarkStageKeyPoints measures key-point extraction plus encoding on
// one reused arena, as each System runs it.
func BenchmarkStageKeyPoints(b *testing.B) {
	skel := thinning.Thin(benchSilhouette(), thinning.ZhangSuen)
	g, err := skelgraph.Build(skel)
	if err != nil {
		b.Fatal(err)
	}
	g.Prune(skelgraph.DefaultPruneLen)
	sc := new(keypoint.Scratch)
	locate := func() {
		kp, err := keypoint.FromGraphScratch(g, sc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := keypoint.Encode(kp, keypoint.DefaultPartitions); err != nil {
			b.Fatal(err)
		}
	}
	locate() // warm the arenas: steady-state frames, not their first growth
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		locate()
	}
}

// BenchmarkStageFrameAnalysis measures the whole vision front end on one
// RGB frame (extraction through encoding).
func BenchmarkStageFrameAnalysis(b *testing.B) {
	ds, err := dataset.Generate(dataset.GenOptions{TrainClips: 1, TestClips: 1, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := slj.NewSystem()
	if err != nil {
		b.Fatal(err)
	}
	lc := ds.Test[0]
	sys.SetBackground(lc.Clip.Background)
	frame := lc.Clip.Frames[len(lc.Clip.Frames)/2].Image
	// Warm the per-System arena and the imaging pool so the steady-state
	// per-frame cost is measured, not first-frame arena growth.
	for i := 0; i < 3; i++ {
		if _, err := sys.AnalyzeFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.AnalyzeFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageFrameAnalysisObserved measures the same front end with
// the full flight recorder attached — registry, error journal, info-
// level structured logger and span tracer on one shared sink — so the
// bench gate bounds the per-frame cost of instrumentation being ON.
// (The uninstrumented variant above pins the 0 allocs/op contract.)
func BenchmarkStageFrameAnalysisObserved(b *testing.B) {
	ds, err := dataset.Generate(dataset.GenOptions{TrainClips: 1, TestClips: 1, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	scope := obs.NewScope(reg)
	scope.SetJournal(obs.NewJournal(reg, 256))
	sink := obs.NewLineSink(io.Discard)
	scope.SetLogger(obs.NewLogger(sink, slog.LevelInfo))
	tracer := obs.NewTracerSink(sink)
	scope.SetTracer(tracer)
	defer tracer.Close()
	sys, err := slj.NewSystem(slj.WithObservability(scope.WithClip("bench")))
	if err != nil {
		b.Fatal(err)
	}
	lc := ds.Test[0]
	sys.SetBackground(lc.Clip.Background)
	frame := lc.Clip.Frames[len(lc.Clip.Frames)/2].Image
	for i := 0; i < 3; i++ {
		if _, err := sys.AnalyzeFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.AnalyzeFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageClassifyFrame measures one DBN classification (22
// networks, a walk over each one's compiled tables).
func BenchmarkStageClassifyFrame(b *testing.B) {
	ds, err := dataset.Generate(dataset.GenOptions{TrainClips: 2, TestClips: 1, Seed: 10})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := slj.NewSystem(slj.WithGroundTruthSilhouettes(true))
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Train(ds.Train); err != nil {
		b.Fatal(err)
	}
	fa := sys.AnalyzeSilhouette(ds.Test[0].Clip.Frames[10].Silhouette)
	sess := sys.Classifier().NewSession()
	// The first frame compiles the bank, once per trained model.
	if _, err := sess.Classify(fa.Encoding); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Classify(fa.Encoding); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageSynthFrame measures synthetic frame generation.
func BenchmarkStageSynthFrame(b *testing.B) {
	spec := synth.DefaultSpec(3)
	spec.Script = []synth.Step{{Pose: pose.AirTuck, Frames: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}
