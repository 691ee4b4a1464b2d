package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	slj "repro"
	"repro/internal/dataset"
	"repro/internal/dbn"
	"repro/internal/imaging"
	"repro/internal/pose"
	"repro/internal/serve"
	"repro/internal/stats"
)

// batchRun is eval-paper and eval-hd: set-up trains the engine from disk;
// the timed phase repeats Engine.EvaluateSource passes over the streamed
// eval split until cfg.seconds have passed.
func batchRun(cfg config, c *corpus, out io.Writer) (result, error) {
	var eng *slj.Engine
	var setup []float64
	for i := 0; i < cfg.setupRepeats; i++ {
		t0 := time.Now()
		e, err := trainEngine(c, cfg.workers)
		if err != nil {
			return result{}, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		eng = e
	}
	model, err := saveModel(eng)
	if err != nil {
		return result{}, err
	}
	ref, err := newReference(model, c)
	if err != nil {
		return result{}, err
	}

	var t tally
	poolBase := imaging.PoolBalance()
	var passes []batchPass
	for deadline := time.Now().Add(seconds(cfg.seconds)); len(passes) == 0 || time.Now().Before(deadline); {
		passes = append(passes, evalPass(eng, c, ref, &t))
	}
	checkLeaks(&t, poolBase, eng)
	heap := liveHeapMB()
	runtime.KeepAlive(eng)

	lat := make([]float64, len(passes))
	fps := make([]float64, len(passes))
	for i, p := range passes {
		lat[i] = ms(p.wall)
		fps[i] = float64(ref.frames) / p.wall.Seconds()
	}
	fmt.Fprintf(out, "%d passes of %d frames; pass latency percentiles over %d samples\n", len(passes), ref.frames, len(lat))
	return t.result(map[string]float64{
		"setup_s":        median(setup),
		"frames_per_s":   median(fps),
		"accuracy":       passes[0].acc,
		"request_p50_ms": median(lat),
		"request_p95_ms": percentile(lat, 0.95),
		"success_ratio":  t.successRatio(),
		"heap_live_mb":   heap,
	}, endToEnd), nil
}

// batchPass is one Engine.EvaluateSource over the eval split.
type batchPass struct {
	wall time.Duration
	acc  float64
}

// evalPass runs one pass and gates its summary and confusion matrix
// against the reference decode.
func evalPass(eng *slj.Engine, c *corpus, ref *reference, t *tally) batchPass {
	t0 := time.Now()
	src, err := dataset.OpenDir(c.eval)
	var sum stats.Summary
	var conf *stats.Confusion
	if err == nil {
		sum, conf, err = eng.EvaluateSource(src)
		src.Close()
	}
	p := batchPass{wall: time.Since(t0), acc: sum.OverallAccuracy()}
	ok := err == nil && reflect.DeepEqual(sum, ref.summary) && *conf == ref.conf
	t.add(len(ref.clips), ok, "evaluation pass differs from the reference decode (error: %v)", err)
	return p
}

// reference is the sequential System.ClassifyClip decode of the eval
// clips, made once at set-up and untimed. Every correctness gate compares
// against it.
type reference struct {
	clips   []refClip
	summary stats.Summary
	conf    stats.Confusion
	frames  int
}

type refClip struct {
	name    string
	truth   []pose.Pose
	results []dbn.Result
}

func newReference(model []byte, c *corpus) (*reference, error) {
	sys, err := slj.NewSystem()
	if err != nil {
		return nil, err
	}
	if err := sys.LoadModel(bytes.NewReader(model)); err != nil {
		return nil, err
	}
	ref := &reference{}
	for _, name := range c.names {
		r, err := dataset.OpenClip(filepath.Join(c.eval, name))
		if err != nil {
			return nil, err
		}
		lc := r.Labeled()
		res, err := sys.ClassifyClip(lc)
		if err != nil {
			return nil, err
		}
		truth, preds := lc.Clip.Labels(), slj.Poses(res)
		cr, err := stats.EvaluateClip(name, truth, preds)
		if err != nil {
			return nil, err
		}
		ref.summary.Add(cr)
		for i := range truth {
			ref.conf.Add(truth[i], preds[i])
		}
		ref.clips = append(ref.clips, refClip{name: name, truth: truth, results: res})
		ref.frames += len(truth)
	}
	return ref, nil
}

// matches reports whether a score reply carries the clip's frame count and
// its reference pose sequence.
func (rc refClip) matches(res *serve.ScoreResult) bool {
	if res.Clip != rc.name || res.Frames != len(rc.truth) || len(res.Poses) != len(rc.results) {
		return false
	}
	for i, p := range res.Poses {
		if p != rc.results[i].Pose.String() {
			return false
		}
	}
	return true
}

// trainEngine builds an engine and trains it from the streamed train split.
func trainEngine(c *corpus, workers int, opts ...slj.Option) (*slj.Engine, error) {
	eng, err := slj.NewEngine(workers, opts...)
	if err != nil {
		return nil, err
	}
	src, err := dataset.OpenDir(c.train)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	if err := eng.TrainSource(src); err != nil {
		return nil, err
	}
	return eng, nil
}

// loadEngine builds an engine holding a saved model.
func loadEngine(model []byte, workers int, opts ...slj.Option) (*slj.Engine, error) {
	eng, err := slj.NewEngine(workers, opts...)
	if err != nil {
		return nil, err
	}
	return eng, eng.LoadModel(bytes.NewReader(model))
}

func saveModel(eng *slj.Engine) ([]byte, error) {
	var b bytes.Buffer
	err := eng.SaveModel(&b)
	return b.Bytes(), err
}

// checkLeaks applies the leak gates after a phase: the imaging pool got
// back every buffer the phase took, and each engine is quiescent.
func checkLeaks(t *tally, poolBase int64, engs ...*slj.Engine) {
	d := imaging.PoolBalance() - poolBase
	t.check(d == 0, "imaging pool balance moved by %d", d)
	for _, e := range engs {
		t.check(e.CheckedOut() == 0, "engine has %d clips checked out", e.CheckedOut())
		t.check(e.PoolFree() == e.Workers(), "engine pool has %d of %d workers free", e.PoolFree(), e.Workers())
	}
}

// liveHeapMB is the heap still reachable after two collections (the
// second one also empties the sync.Pool victim caches).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
