package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	slj "repro"
	"repro/internal/imaging"
	"repro/internal/serve"
)

// server is sljserve in-process: the full serve.Stack, an instrumented
// engine and a serve.Server on a loopback port.
type server struct {
	eng *slj.Engine
	srv *serve.Server
	url string
}

// startServer builds and starts the server. With a nil model the engine
// trains from the corpus's train split, as sljserve does without -model;
// otherwise it loads the model.
func startServer(c *corpus, workers int, model []byte) (*server, error) {
	st, err := serve.NewStack(serve.StackConfig{})
	if err != nil {
		return nil, err
	}
	opts := []slj.Option{slj.WithObservability(st.Scope)}
	var eng *slj.Engine
	if model == nil {
		eng, err = trainEngine(c, workers, opts...)
	} else {
		eng, err = loadEngine(model, workers, opts...)
	}
	var srv *serve.Server
	if err == nil {
		srv, err = serve.New(serve.Config{Engine: eng, DataRoot: c.root, EngineOptions: opts, Obs: st})
	}
	if err != nil {
		_ = st.Stop() // the build error is the one to report
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		_ = srv.Close() // the listen error is the one to report
		return nil, err
	}
	return &server{eng: eng, srv: srv, url: "http://" + srv.Addr() + "/rpc"}, nil
}

// client sends score requests over at most conns keep-alive connections.
type client struct {
	tr  *http.Transport
	hc  *http.Client
	url string
}

func newClient(url string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}, url: url}
}

func (cl *client) close() { cl.tr.CloseIdleConnections() }

// reply is one score request's outcome.
type reply struct {
	due, sent, done time.Time
	status, bytes   int
	// ok is a 200 whose ScoreResult carries the clip's frame count and the
	// reference pose sequence.
	ok bool
	// correct counts the frames of an ok reply whose pose is the ground
	// truth.
	frames, correct int
}

// score asks the server to score clip rc; due is when the request was
// scheduled to go out.
func (cl *client) score(rc refClip, id int, due time.Time) reply {
	r := reply{due: due, sent: time.Now()}
	body := fmt.Sprintf(`{"method":"score","params":{"dir":%q},"id":%d}`, "eval/"+rc.name, id)
	resp, err := cl.hc.Post(cl.url, "application/json", strings.NewReader(body))
	if err != nil {
		r.done = time.Now()
		fmt.Fprintf(os.Stderr, "perfbench: score %s: %v\n", rc.name, err)
		return r
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.status, r.bytes = resp.StatusCode, len(data)
	var env struct {
		Result *serve.ScoreResult `json:"result"`
	}
	if err == nil {
		err = json.Unmarshal(data, &env)
	}
	if err != nil || r.status != http.StatusOK || env.Result == nil || !rc.matches(env.Result) {
		return r
	}
	r.ok, r.frames = true, len(rc.truth)
	for i, p := range env.Result.Poses {
		if p == rc.truth[i].String() {
			r.correct++
		}
	}
	return r
}

// requestCount is the number of requests a schedule at rate sends in s
// seconds.
func requestCount(rate, s float64) int { return max(1, int(math.Round(rate*s))) }

// openLoop sends n score requests on a fixed interval of 1/rate, cycling
// over the eval clips, through conns client goroutines. Sends do not wait
// for replies: a request due while every client is busy goes out late,
// and its latency, counted from the due time, includes that wait.
func openLoop(cl *client, ref *reference, rate float64, n, conns int) []reply {
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, n) // one slot per request, so the schedule never blocks
	out := make([]reply, n)
	var wg sync.WaitGroup
	wg.Add(conns)
	for k := 0; k < conns; k++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				out[j.i] = cl.score(ref.clips[j.i%len(ref.clips)], j.i, j.due)
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	return out
}

// cycleP95 is the median, over the whole cycles of the schedule through
// the clip set, of each cycle's nearest-rank p95, and the number of
// cycles. A host stall of a second or two lifts the ten or so requests it
// overlaps, which is the whole tail beyond a p95 taken over the run; it
// lifts one or two cycles, and the median drops them. With less than one
// whole cycle it is the p95 over all samples.
func cycleP95(lat []float64, cycle int) (float64, int) {
	var p []float64
	for i := 0; i+cycle <= len(lat); i += cycle {
		p = append(p, percentile(lat[i:i+cycle], 0.95))
	}
	if len(p) == 0 {
		return percentile(lat, 0.95), 1
	}
	return median(p), len(p)
}

// serveRun is serve-score: set-up is training plus server start; after an
// untimed warm-up cycle, the timed phase is the open-loop score schedule.
func serveRun(w workload, cfg config, c *corpus, out io.Writer) (result, error) {
	var s *server
	var setup []float64
	for i := 0; i < cfg.setupRepeats; i++ {
		if s != nil {
			if err := s.srv.Close(); err != nil {
				return result{}, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = startServer(c, cfg.workers, nil); err != nil {
			return result{}, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer s.srv.Close()
	model, err := saveModel(s.eng)
	if err != nil {
		return result{}, err
	}
	ref, err := newReference(model, c)
	if err != nil {
		return result{}, err
	}
	cl := newClient(s.url, cfg.workers)
	defer cl.close()

	var t tally
	poolBase := imaging.PoolBalance()
	// One untimed cycle over the clips first, so the page cache, the heap
	// and the server's pools are warm when the timed schedule starts.
	for i, r := range openLoop(cl, ref, w.rate, len(ref.clips), cfg.workers) {
		t.check(r.ok, "warm-up score request %d: status %d, reply does not match the reference", i, r.status)
	}
	replies := openLoop(cl, ref, w.rate, requestCount(w.rate, cfg.seconds), cfg.workers)
	checkLeaks(&t, poolBase, s.eng)
	heap := liveHeapMB()

	end := replies[0].done
	for _, r := range replies {
		if r.done.After(end) {
			end = r.done
		}
	}
	wall := end.Sub(replies[0].due)
	var lat []float64
	frames, correct := 0, 0
	for i, r := range replies {
		t.check(r.ok, "score request %d: status %d, reply does not match the reference", i, r.status)
		l := r.done.Sub(r.due)
		if !r.ok {
			l = wall // a failed or shed request misses every latency limit
		}
		lat = append(lat, ms(l))
		frames += r.frames
		correct += r.correct
	}
	p95, cycles := cycleP95(lat, len(ref.clips))
	fmt.Fprintf(out, "%d score requests at %g/s; p50 over %d samples, p95 the median of %d cycles of %d\n",
		len(replies), w.rate, len(lat), cycles, len(ref.clips))
	return t.result(map[string]float64{
		"setup_s":        median(setup),
		"frames_per_s":   float64(frames) / wall.Seconds(),
		"accuracy":       ratio(correct, frames),
		"request_p50_ms": median(lat),
		"request_p95_ms": p95,
		"success_ratio":  t.successRatio(),
		"heap_live_mb":   heap,
	}, endToEnd), nil
}
