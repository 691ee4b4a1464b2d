package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"syscall"
	"time"

	slj "repro"
	"repro/internal/dataset"
	"repro/internal/dbn"
	"repro/internal/extract"
	"repro/internal/imaging"
	"repro/internal/keypoint"
	"repro/internal/pose"
	"repro/internal/scoring"
	"repro/internal/skelgraph"
	"repro/internal/thinning"
)

// span is one recorded layer call, in the internal/obs span JSONL schema
// that sljtrace converts for Perfetto.
type span struct {
	TUS   int64  `json:"t_us"`
	Clip  string `json:"clip"`
	Trace string `json:"trace"`
	Stage string `json:"stage"`
	NS    int64  `json:"ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing and reads no clock.
type recorder struct {
	epoch time.Time
	spans []span
}

func (r *recorder) start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

func (r *recorder) end(t0 time.Time, clip, trace, stage string) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{
		TUS: t0.Sub(r.epoch).Microseconds(), Clip: clip, Trace: trace,
		Stage: stage, NS: time.Since(t0).Nanoseconds(),
	})
}

// stageNS sums span durations by stage. Layer spans never nest, so each
// span's duration is its self time.
func (r *recorder) stageNS() map[string]int64 {
	out := map[string]int64{}
	for _, s := range r.spans {
		out[s.Stage] += s.NS
	}
	return out
}

func (r *recorder) write(path string) error {
	return rewrite(path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		enc := json.NewEncoder(bw)
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return bw.Flush()
	})
}

// replayer runs clips through the layer packages in pipeline order,
// composed the way slj.System composes them: per frame ReadFrame →
// Extract → ThinIntoCounted → BuildScratch/Prune/ToBinaryInto →
// FromGraphScratch/EncodeRadial → Session.Classify, then scoring.Evaluate
// per clip. One span covers each layer call.
type replayer struct {
	clf  *dbn.Classifier // nil replays the front end only
	ex   *extract.Extractor
	gsc  *skelgraph.Scratch
	ksc  *keypoint.Scratch
	skel *imaging.Binary // reused skeleton rasterisation, as in System's frame arena
	rec  *recorder

	frames, thinPasses, graphFails, kpAttempts, kpOK, unknown int
}

// clipReplay is one replayed clip's per-frame products.
type clipReplay struct {
	truth   []pose.Pose
	encs    []keypoint.Encoding
	results []dbn.Result
}

func newReplayer(clf *dbn.Classifier, rec *recorder) (*replayer, error) {
	ex, err := extract.NewExtractor()
	if err != nil {
		return nil, err
	}
	return &replayer{clf: clf, ex: ex, gsc: skelgraph.GetScratch(), ksc: keypoint.GetScratch(), rec: rec}, nil
}

func (r *replayer) close() {
	skelgraph.PutScratch(r.gsc)
	keypoint.PutScratch(r.ksc)
}

// clips replays every clip directory in order and returns the wall time.
func (r *replayer) clips(dirs []string) ([]clipReplay, time.Duration, error) {
	t0 := time.Now()
	out := make([]clipReplay, 0, len(dirs))
	for i, dir := range dirs {
		cr, err := r.clip(dir, fmt.Sprintf("t%06d", i+1))
		if err != nil {
			return nil, 0, fmt.Errorf("replaying %s: %w", filepath.Base(dir), err)
		}
		out = append(out, cr)
	}
	return out, time.Since(t0), nil
}

func (r *replayer) clip(dir, trace string) (clipReplay, error) {
	name := filepath.Base(dir)
	t0 := r.rec.start()
	cr, err := dataset.OpenClip(dir)
	r.rec.end(t0, name, trace, "dataset.open")
	if err != nil {
		return clipReplay{}, err
	}
	t0 = r.rec.start()
	r.ex.SetBackground(cr.Background())
	r.rec.end(t0, name, trace, "extract")
	var out clipReplay
	var sess *dbn.Session
	if r.clf != nil {
		sess = r.clf.NewSession()
	}
	for i := 0; i < cr.NumFrames(); i++ {
		t0 = r.rec.start()
		fr, err := cr.ReadFrame(i)
		r.rec.end(t0, name, trace, "dataset.decode")
		if err != nil {
			return clipReplay{}, err
		}
		t0 = r.rec.start()
		sil, err := r.ex.Extract(fr.Image)
		r.rec.end(t0, name, trace, "extract")
		if err != nil {
			return clipReplay{}, err
		}
		enc := r.analyze(sil, name, trace)
		imaging.PutBinary(sil)
		r.frames++
		out.truth = append(out.truth, fr.Label)
		out.encs = append(out.encs, enc)
		if sess == nil {
			continue
		}
		t0 = r.rec.start()
		res, err := sess.Classify(enc)
		r.rec.end(t0, name, trace, "dbn")
		if err != nil {
			return clipReplay{}, err
		}
		if res.Pose == pose.PoseUnknown {
			r.unknown++
		}
		out.results = append(out.results, res)
	}
	if sess != nil {
		t0 = r.rec.start()
		_ = scoring.Evaluate(slj.Poses(out.results))
		r.rec.end(t0, name, trace, "scoring")
	}
	return out, nil
}

// analyze is slj.System.AnalyzeSilhouette's thinning front end.
func (r *replayer) analyze(sil *imaging.Binary, clip, trace string) keypoint.Encoding {
	enc := keypoint.Encoding{Partitions: keypoint.DefaultPartitions}
	t0 := r.rec.start()
	skel, passes := thinning.ThinIntoCounted(imaging.GetBinary(sil.W, sil.H), sil, thinning.ZhangSuen)
	r.rec.end(t0, clip, trace, "thinning")
	r.thinPasses += passes

	t0 = r.rec.start()
	g, err := skelgraph.BuildScratch(skel, r.gsc)
	imaging.PutBinary(skel)
	if err == nil {
		g.Prune(skelgraph.DefaultPruneLen)
		if r.skel == nil {
			r.skel = imaging.NewBinary(g.W, g.H)
		} else {
			r.skel.Reset(g.W, g.H)
		}
		g.ToBinaryInto(r.skel)
	}
	r.rec.end(t0, clip, trace, "skelgraph")
	if err != nil {
		r.graphFails++
		return enc
	}

	r.kpAttempts++
	t0 = r.rec.start()
	kp, err := keypoint.FromGraphScratch(g, r.ksc)
	if err == nil {
		var e keypoint.Encoding
		if e, err = keypoint.EncodeRadial(kp, keypoint.DefaultPartitions, 0); err == nil {
			enc = e
			r.kpOK++
		}
	}
	r.rec.end(t0, clip, trace, "keypoint")
	return enc
}

// referenceEncodings runs the eval clips through slj.System.AnalyzeFrame,
// the library's own composition of the front end, for the replay's
// bit-identity gate.
func referenceEncodings(c *corpus) ([][]keypoint.Encoding, error) {
	sys, err := slj.NewSystem()
	if err != nil {
		return nil, err
	}
	out := make([][]keypoint.Encoding, len(c.names))
	for i, name := range c.names {
		r, err := dataset.OpenClip(filepath.Join(c.eval, name))
		if err != nil {
			return nil, err
		}
		sys.SetBackground(r.Background())
		for f := 0; f < r.NumFrames(); f++ {
			fr, err := r.ReadFrame(f)
			if err != nil {
				return nil, err
			}
			fa, err := sys.AnalyzeFrame(fr.Image)
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], fa.Encoding)
		}
	}
	return out, nil
}

// trainReplay trains a fresh bank on replayed encodings, timing only
// TrainSequence, and returns the time and the serialised model.
func trainReplay(clips []clipReplay) (time.Duration, []byte, error) {
	clf, err := dbn.New(dbn.DefaultConfig())
	if err != nil {
		return 0, nil, err
	}
	var d time.Duration
	for _, cr := range clips {
		frames := make([]dbn.LabeledFrame, len(cr.encs))
		for i := range frames {
			frames[i] = dbn.LabeledFrame{Label: cr.truth[i], Enc: cr.encs[i]}
		}
		t0 := time.Now()
		err := clf.TrainSequence(frames)
		d += time.Since(t0)
		if err != nil {
			return 0, nil, err
		}
	}
	var b bytes.Buffer
	err = clf.Save(&b)
	return d, b.Bytes(), err
}

// classifyAllocs decodes the replayed encodings again with
// Session.Classify alone, between two reads of the memory statistics.
func classifyAllocs(clf *dbn.Classifier, clips []clipReplay) (allocs, bytes float64, err error) {
	var m0, m1 runtime.MemStats
	frames := 0
	runtime.ReadMemStats(&m0)
	for _, cr := range clips {
		sess := clf.NewSession()
		for _, enc := range cr.encs {
			if _, err := sess.Classify(enc); err != nil {
				return 0, 0, err
			}
			frames++
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(max(frames, 1))
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfProbe measures the serving layer's own cost: for each eval clip, one
// at a time, the HTTP score round trip minus the same request served
// in-process on the server's engine (OpenClip, Engine.ClassifyClip,
// scoring.Evaluate). It returns the median difference and the mean reply
// size.
func selfProbe(s *server, cl *client, c *corpus, ref *reference, t *tally) (selfMS, replyBytes float64) {
	var diffs []float64
	total := 0
	for i, rc := range ref.clips {
		t0 := time.Now()
		r, err := dataset.OpenClip(filepath.Join(c.eval, rc.name))
		var res []dbn.Result
		if err == nil {
			res, err = s.eng.ClassifyClip(r.Labeled())
		}
		if err == nil {
			_ = scoring.Evaluate(slj.Poses(res))
		}
		direct := time.Since(t0)
		t.check(err == nil && reflect.DeepEqual(res, rc.results), "in-process score of %s differs from the reference (error: %v)", rc.name, err)
		rep := cl.score(rc, i, time.Now())
		t.check(rep.ok, "probe score of %s: status %d, reply does not match the reference", rc.name, rep.status)
		diffs = append(diffs, ms(rep.done.Sub(rep.due)-direct))
		total += rep.bytes
	}
	return median(diffs), ratio(total, len(ref.clips))
}

// traceRun is the --trace 1 run of any workload. It measures each layer
// from the benchmark's side: one untraced engine pass, an untraced and a
// traced single-goroutine replay of the eval clips, a training replay, an
// open-loop score phase at the workload's rate and the serve self-time
// probe. Spans are written to cfg.work when the run ends.
func traceRun(w workload, cfg config, c *corpus, out io.Writer) (result, error) {
	eng, err := trainEngine(c, cfg.workers)
	if err != nil {
		return result{}, err
	}
	model, err := saveModel(eng)
	if err != nil {
		return result{}, err
	}
	ref, err := newReference(model, c)
	if err != nil {
		return result{}, err
	}
	refEncs, err := referenceEncodings(c)
	if err != nil {
		return result{}, err
	}
	s, err := startServer(c, cfg.workers, model)
	if err != nil {
		return result{}, err
	}
	defer s.srv.Close()
	cl := newClient(s.url, cfg.workers)
	defer cl.close()
	evalDirs := make([]string, len(c.names))
	for i, name := range c.names {
		evalDirs[i] = filepath.Join(c.eval, name)
	}
	trainEntries, err := os.ReadDir(c.train)
	if err != nil {
		return result{}, err
	}
	var trainDirs []string
	for _, e := range trainEntries {
		trainDirs = append(trainDirs, filepath.Join(c.train, e.Name()))
	}

	var t tally
	poolBase := imaging.PoolBalance()

	// Engine: one untraced pass, its allocations and its pool traffic.
	var m0, m1 runtime.MemStats
	hits0, miss0, _ := imaging.PoolCounters()
	runtime.ReadMemStats(&m0)
	pass := evalPass(eng, c, ref, &t)
	runtime.ReadMemStats(&m1)
	hits1, miss1, _ := imaging.PoolCounters()

	// Replays: untraced for the single-thread CPU baseline, then traced.
	clf := eng.System().Classifier()
	plainR, err := newReplayer(clf, nil)
	if err != nil {
		return result{}, err
	}
	defer plainR.close()
	cpu0 := cpuTime()
	plain, plainWall, err := plainR.clips(evalDirs)
	if err != nil {
		return result{}, err
	}
	replayCPU := cpuTime() - cpu0
	rec := &recorder{epoch: time.Now()}
	tracedR, err := newReplayer(clf, rec)
	if err != nil {
		return result{}, err
	}
	defer tracedR.close()
	traced, tracedWall, err := tracedR.clips(evalDirs)
	if err != nil {
		return result{}, err
	}
	for i, rc := range ref.clips {
		t.check(reflect.DeepEqual(plain[i].results, rc.results) && reflect.DeepEqual(traced[i].results, rc.results),
			"replayed decisions of %s differ from the engine's", rc.name)
		t.check(slices.Equal(plain[i].encs, refEncs[i]) && slices.Equal(traced[i].encs, refEncs[i]),
			"replayed encodings of %s differ from the engine's", rc.name)
	}
	layerNS := rec.stageNS()
	var sumNS int64
	for _, ns := range layerNS {
		sumNS += ns
	}
	cover := float64(sumNS) / float64(tracedWall)
	t.check(math.Abs(cover-1) <= 0.05, "layer self times sum to %.3f of the replay wall time", cover)

	// DBN: training from replayed encodings must rebuild the engine's model.
	trainR, err := newReplayer(nil, nil)
	if err != nil {
		return result{}, err
	}
	defer trainR.close()
	trainClips, _, err := trainR.clips(trainDirs)
	if err != nil {
		return result{}, err
	}
	trainTime, retrained, err := trainReplay(trainClips)
	if err != nil {
		return result{}, err
	}
	t.check(bytes.Equal(retrained, model), "model trained on replayed encodings differs from the engine's")
	allocs, allocBytes, err := classifyAllocs(clf, traced)
	if err != nil {
		return result{}, err
	}

	// Serve: an open-loop phase at the workload's rate, then the probe.
	replies := openLoop(cl, ref, w.rate, requestCount(w.rate, math.Min(cfg.seconds, 4)), cfg.workers)
	shed := 0
	var lag []float64
	for i, r := range replies {
		if r.status == 503 {
			shed++
		}
		t.check(r.ok, "score request %d: status %d, reply does not match the reference", i, r.status)
		lag = append(lag, ms(r.sent.Sub(r.due)))
	}
	selfMS, replyBytes := selfProbe(s, cl, c, ref, &t)
	checkLeaks(&t, poolBase, eng, s.eng)

	spans := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
	if err := rec.write(spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "%d spans over %d frames written to %s (sljtrace renders them)\n", len(rec.spans), tracedR.frames, spans)

	frames := float64(tracedR.frames)
	perFrame := func(stage string) float64 { return float64(layerNS[stage]) / 1e6 / frames }
	perClip := func(stage string) float64 { return float64(layerNS[stage]) / 1e6 / float64(len(evalDirs)) }
	return t.result(map[string]float64{
		"dataset.open_ms_per_clip":    perClip("dataset.open"),
		"dataset.decode_ms_per_frame": perFrame("dataset.decode"),
		"extract.ms_per_frame":        perFrame("extract"),
		"thinning.ms_per_frame":       perFrame("thinning"),
		"thinning.passes_per_frame":   float64(tracedR.thinPasses) / frames,
		"skelgraph.ms_per_frame":      perFrame("skelgraph"),
		"skelgraph.fail_ratio":        ratio(tracedR.graphFails, tracedR.frames),
		"keypoint.ms_per_frame":       perFrame("keypoint"),
		"keypoint.ok_ratio":           ratio(tracedR.kpOK, tracedR.kpAttempts),
		"dbn.classify_ms_per_frame":   perFrame("dbn"),
		"dbn.allocs_per_frame":        allocs,
		"dbn.bytes_per_frame":         allocBytes,
		"dbn.unknown_ratio":           ratio(tracedR.unknown, tracedR.frames),
		"dbn.train_s":                 trainTime.Seconds(),
		"scoring.ms_per_clip":         perClip("scoring"),
		"imaging.pool_hit_ratio":      ratio(int(hits1-hits0), int(hits1-hits0+miss1-miss0)),
		"engine.parallel_efficiency":  replayCPU.Seconds() / (pass.wall.Seconds() * float64(eng.Workers())),
		"engine.allocs_per_frame":     float64(m1.Mallocs-m0.Mallocs) / float64(ref.frames),
		"serve.self_ms":               selfMS,
		"serve.response_bytes":        replyBytes,
		"serve.shed":                  float64(shed),
		"loadgen.lag_p95_ms":          percentile(lag, 0.95),
		"trace.overhead_ratio":        tracedWall.Seconds()/plainWall.Seconds() - 1,
		"trace.layers_over_wall":      cover,
	}, perLayer), nil
}
