// Package serve is the network face of the pipeline: a stdlib-only
// net/http JSON service exposing clip classification, corpus evaluation
// and coaching reports over a single POST /rpc endpoint, with the obs
// /debug endpoints mounted alongside (DESIGN.md §15).
//
// Three properties a batch CLI never needed shape the design:
//
//   - Admission control. Every request declares a worker cost drawn
//     from one shared budget (the engine's worker count). When the
//     budget is spent — or the SLO health verdict says the process is
//     not ready — the server sheds load with 503 + Retry-After instead
//     of queueing unboundedly: callers retry against a healthy replica
//     rather than pile onto a sick one. classify-clip and score are
//     charged one System. Engine.ClassifyClip may spread the clip's
//     frames over more, but it borrows only Systems that are idle at
//     that moment, never waits for one, and returns each when the
//     clip's frame ranges are done.
//   - Model registry. Engines are cached by the content hash of the
//     serialized DBN bank, so switching models per request is one map
//     lookup, not a deserialization.
//   - Graceful shutdown. Close drains in-flight requests before the
//     observability stack is stopped and the log sink flushed, so the
//     final requests of a deploy are both answered and recorded.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	slj "repro"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/scoring"
	"repro/internal/stats"
	"repro/internal/synth"
)

// DefaultMaxBody caps the request body; classification requests are
// small JSON envelopes, so anything past this is a client bug.
const DefaultMaxBody = 1 << 20

// DefaultDrainTimeout bounds how long Close waits for in-flight
// requests before hard-closing connections.
const DefaultDrainTimeout = 30 * time.Second

// Config assembles a Server.
type Config struct {
	// Engine is the shared classification engine; its worker count is
	// the server's total admission budget. Required.
	Engine *slj.Engine
	// DataRoot confines request-supplied clip/model paths: a request
	// "dir" resolves under this directory and may not escape it. Empty
	// disables path-based requests (synthetic clips still work).
	DataRoot string
	// MaxBody caps the request body in bytes (0 = DefaultMaxBody).
	MaxBody int64
	// ModelCacheCap bounds the model registry (0 = 4 engines).
	ModelCacheCap int
	// EngineOptions build the per-model engines of the model registry;
	// pass the same options the base engine was built with (e.g. the
	// observability scope) so cached engines are instrumented alike.
	EngineOptions []slj.Option
	// Obs is the server observability bundle (nil = uninstrumented:
	// no /debug endpoints, health always ready).
	Obs *Stack
	// DrainTimeout bounds graceful shutdown (0 = DefaultDrainTimeout).
	DrainTimeout time.Duration
}

// Server is the HTTP service. Create with New, serve with Start (or
// mount Handler in a custom server), stop with Close.
type Server struct {
	cfg      Config
	eng      *slj.Engine
	models   *modelCache
	mux      *http.ServeMux
	srv      *http.Server
	ln       net.Listener
	capacity int64

	admitted atomic.Int64 // worker budget currently granted
	draining atomic.Bool

	requests  *obs.Counter
	shed      *obs.Counter
	errCount  *obs.Counter
	inflightG *obs.Gauge
	latency   *obs.Histogram

	methods map[string]method
}

// method is one registry entry: its handler plus how its admission cost
// is derived from the request's worker ask.
type method struct {
	// cost converts the request's workers field into the admission
	// charge (clamped to [1, capacity] by the caller).
	cost func(workers int) int
	run  func(s *Server, params json.RawMessage, budget int) (any, *apiError)
}

// New builds the server and registers its metrics and method registry.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("serve: Config.Engine is required")
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	s := &Server{
		cfg:      cfg,
		eng:      cfg.Engine,
		models:   newModelCache(cfg.Engine.Workers(), cfg.ModelCacheCap, cfg.EngineOptions),
		capacity: int64(cfg.Engine.Workers()),
	}
	if reg := cfg.Obs.Registry(); reg != nil {
		s.requests = reg.Counter("serve.requests")
		s.shed = reg.Counter("serve.shed")
		s.errCount = reg.Counter("serve.errors")
		s.inflightG = reg.Gauge("serve.inflight_workers")
		s.latency = reg.Histogram("serve.request_ns", obs.LatencyBounds)
		// Pool-leak detector: source clips checked out across the base
		// engine and every cached model engine. Quiescent servers read 0.
		reg.RegisterFunc("serve.clips_checked_out", func() int64 {
			n := s.eng.CheckedOut()
			for _, e := range s.models.engines() {
				n += e.CheckedOut()
			}
			return n
		})
	}
	s.methods = map[string]method{
		"classify-clip":   {cost: func(int) int { return 1 }, run: (*Server).classifyClip},
		"score":           {cost: func(int) int { return 1 }, run: (*Server).score},
		"evaluate-corpus": {cost: func(w int) int { return w }, run: (*Server).evaluateCorpus},
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/rpc", s.handleRPC)
	obs.MountDebug(s.mux, cfg.Obs)
	return s, nil
}

// Handler returns the server's root handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (port 0 for ephemeral — see Addr) and serves
// until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listening on %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint — Serve always returns non-nil after Close
	return nil
}

// Addr reports the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down gracefully, in strict order: first new
// requests are shed (503) and the HTTP server drains — requests already
// admitted get up to DrainTimeout to finish; then the observability
// stack stops (health evaluator before sampler, so no late tick flips
// the verdict of a dying process) and the log sink is flushed. The
// order matters: in-flight requests still record metrics and log lines,
// so the stack must outlive the drain.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.draining.Store(true)
	var err error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		err = s.srv.Shutdown(ctx)
		if errors.Is(err, context.DeadlineExceeded) {
			err = s.srv.Close()
		}
	}
	if serr := s.cfg.Obs.Stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("serve: closing: %w", err)
	}
	return nil
}

// apiError is the error half of a response envelope.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`

	status int // HTTP status; not serialized
}

func errBadRequest(format string, args ...any) *apiError {
	return &apiError{Code: "bad-request", Message: fmt.Sprintf(format, args...), status: http.StatusBadRequest}
}

func errInternal(err error) *apiError {
	return &apiError{Code: "internal", Message: err.Error(), status: http.StatusInternalServerError}
}

// request is the POST /rpc envelope.
type request struct {
	Method string          `json:"method"`
	Params json.RawMessage `json:"params"`
	ID     json.RawMessage `json:"id"`
}

// response is the reply envelope; ID echoes the request's verbatim.
type response struct {
	ID     json.RawMessage `json:"id,omitempty"`
	Result any             `json:"result,omitempty"`
	Error  *apiError       `json:"error,omitempty"`
}

func writeResponse(w http.ResponseWriter, status int, resp response) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// admit tries to charge cost workers against the shared budget; release
// undoes it. Admission fails while draining, while the SLO health
// verdict is not ready, and when the budget would overflow — the three
// load-shedding signals.
func (s *Server) admit(cost int64) bool {
	if s.draining.Load() {
		return false
	}
	if h := s.healthEval(); !h.Ready() {
		return false
	}
	for {
		cur := s.admitted.Load()
		if cur+cost > s.capacity {
			return false
		}
		if s.admitted.CompareAndSwap(cur, cur+cost) {
			s.inflightG.Set(cur + cost)
			return true
		}
	}
}

func (s *Server) release(cost int64) {
	s.inflightG.Set(s.admitted.Add(-cost))
}

func (s *Server) healthEval() *obs.HealthEvaluator {
	if s.cfg.Obs == nil {
		return nil // nil evaluator reports Ready
	}
	return s.cfg.Obs.Health
}

// handleRPC decodes the envelope, charges admission, dispatches the
// method and writes the reply.
func (s *Server) handleRPC(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	t0 := time.Now()
	defer func() { s.latency.Observe(time.Since(t0).Nanoseconds()) }()

	if r.Method != http.MethodPost {
		s.errCount.Inc()
		writeResponse(w, http.StatusMethodNotAllowed, response{
			Error: &apiError{Code: "method-not-allowed", Message: "POST required"},
		})
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	var req request
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.errCount.Inc()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeResponse(w, http.StatusRequestEntityTooLarge, response{
				Error: &apiError{Code: "body-too-large", Message: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBody)},
			})
			return
		}
		writeResponse(w, http.StatusBadRequest, response{
			Error: &apiError{Code: "bad-request", Message: "malformed JSON: " + err.Error()},
		})
		return
	}
	m, ok := s.methods[req.Method]
	if !ok {
		s.errCount.Inc()
		writeResponse(w, http.StatusNotFound, response{
			ID:    req.ID,
			Error: &apiError{Code: "unknown-method", Message: fmt.Sprintf("unknown method %q", req.Method)},
		})
		return
	}

	// The worker ask rides every params shape; decode it alone here.
	var ask struct {
		Workers int `json:"workers"`
	}
	_ = json.Unmarshal(req.Params, &ask)
	budget := clamp(m.cost(ask.Workers), 1, int(s.capacity))

	if !s.admit(int64(budget)) {
		s.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeResponse(w, http.StatusServiceUnavailable, response{
			ID:    req.ID,
			Error: &apiError{Code: "overloaded", Message: "worker budget exhausted or not ready; retry later"},
		})
		return
	}
	defer s.release(int64(budget))

	result, aerr := m.run(s, req.Params, budget)
	if aerr != nil {
		s.errCount.Inc()
		status := aerr.status
		if status == 0 {
			status = http.StatusInternalServerError
		}
		writeResponse(w, status, response{ID: req.ID, Error: aerr})
		return
	}
	writeResponse(w, http.StatusOK, response{ID: req.ID, Result: result})
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ---- request parameter shapes -----------------------------------------

// SynthParams asks the server to generate a clip instead of reading one
// from disk — the load-test and demo path, no corpus required.
type SynthParams struct {
	Seed   int64 `json:"seed"`
	Mirror bool  `json:"mirror,omitempty"`
}

// ClipParams selects one clip: a corpus directory under DataRoot, or a
// synthetic spec. Model optionally routes through the model registry;
// Workers is the admission ask (evaluate-corpus fans out that wide).
type ClipParams struct {
	Dir       string       `json:"dir,omitempty"`
	Synthetic *SynthParams `json:"synthetic,omitempty"`
	Model     string       `json:"model,omitempty"`
	Workers   int          `json:"workers,omitempty"`
}

// CorpusParams selects a split directory under DataRoot.
type CorpusParams struct {
	Dir     string `json:"dir"`
	Model   string `json:"model,omitempty"`
	Workers int    `json:"workers,omitempty"`
}

// resolvePath confines a request-supplied relative path under DataRoot.
func (s *Server) resolvePath(rel string) (string, *apiError) {
	if s.cfg.DataRoot == "" {
		return "", errBadRequest("no data root configured; only synthetic clips are served")
	}
	if rel == "" || !filepath.IsLocal(rel) {
		return "", errBadRequest("path %q must be relative and stay inside the data root", rel)
	}
	return filepath.Join(s.cfg.DataRoot, rel), nil
}

// engineFor routes a request to the base engine or, via the model
// registry, to the engine holding the named model.
func (s *Server) engineFor(model string) (*slj.Engine, *apiError) {
	if model == "" {
		return s.eng, nil
	}
	path, aerr := s.resolvePath(model)
	if aerr != nil {
		return nil, aerr
	}
	eng, err := s.models.engineFor(path)
	if err != nil {
		return nil, errBadRequest("loading model %q: %v", model, err)
	}
	return eng, nil
}

// loadClip materialises the requested clip.
func (s *Server) loadClip(p ClipParams) (dataset.LabeledClip, *apiError) {
	switch {
	case p.Synthetic != nil && p.Dir != "":
		return dataset.LabeledClip{}, errBadRequest("give dir or synthetic, not both")
	case p.Synthetic != nil:
		spec := synth.DefaultSpec(p.Synthetic.Seed)
		spec.Mirror = p.Synthetic.Mirror
		clip, err := synth.Generate(spec)
		if err != nil {
			return dataset.LabeledClip{}, errInternal(err)
		}
		return dataset.LabeledClip{Name: fmt.Sprintf("synthetic-%d", p.Synthetic.Seed), Clip: clip}, nil
	case p.Dir != "":
		dir, aerr := s.resolvePath(p.Dir)
		if aerr != nil {
			return dataset.LabeledClip{}, aerr
		}
		r, err := dataset.OpenClip(dir)
		if err != nil {
			return dataset.LabeledClip{}, errBadRequest("opening clip %q: %v", p.Dir, err)
		}
		return r.Labeled(), nil
	default:
		return dataset.LabeledClip{}, errBadRequest("params need dir or synthetic")
	}
}

// ---- result shapes -----------------------------------------------------

// FrameResult is one classified frame.
type FrameResult struct {
	Frame int     `json:"frame"`
	Pose  string  `json:"pose"`
	Stage string  `json:"stage"`
	Prob  float64 `json:"prob"`
}

// ClassifyResult is the classify-clip reply.
type ClassifyResult struct {
	Clip   string        `json:"clip"`
	Frames []FrameResult `json:"frames"`
}

func (s *Server) classifyClip(params json.RawMessage, _ int) (any, *apiError) {
	var p ClipParams
	if err := json.Unmarshal(params, &p); err != nil {
		return nil, errBadRequest("params: %v", err)
	}
	eng, aerr := s.engineFor(p.Model)
	if aerr != nil {
		return nil, aerr
	}
	lc, aerr := s.loadClip(p)
	if aerr != nil {
		return nil, aerr
	}
	res, err := eng.ClassifyClip(lc)
	if err != nil {
		return nil, errBadRequest("classifying: %v", err)
	}
	return classifyResult(lc.Name, res), nil
}

func classifyResult(name string, res []slj.Result) ClassifyResult {
	out := ClassifyResult{Clip: name, Frames: make([]FrameResult, len(res))}
	for i, r := range res {
		out.Frames[i] = FrameResult{Frame: i, Pose: r.Pose.String(), Stage: r.Stage.String(), Prob: r.Prob}
	}
	return out
}

// FaultResult is one detected jump fault with its coaching advice.
type FaultResult struct {
	Code        string `json:"code"`
	Description string `json:"description"`
	Advice      string `json:"advice"`
	FirstFrame  int    `json:"first_frame"`
	LastFrame   int    `json:"last_frame"`
	Deduction   int    `json:"deduction"`
}

// ScoreResult is the score reply: the coaching report over the decided
// pose sequence.
type ScoreResult struct {
	Clip          string        `json:"clip"`
	Score         int           `json:"score"`
	Frames        int           `json:"frames"`
	UnknownFrames int           `json:"unknown_frames"`
	Faults        []FaultResult `json:"faults"`
	Poses         []string      `json:"poses"`
}

func (s *Server) score(params json.RawMessage, _ int) (any, *apiError) {
	var p ClipParams
	if err := json.Unmarshal(params, &p); err != nil {
		return nil, errBadRequest("params: %v", err)
	}
	eng, aerr := s.engineFor(p.Model)
	if aerr != nil {
		return nil, aerr
	}
	lc, aerr := s.loadClip(p)
	if aerr != nil {
		return nil, aerr
	}
	res, err := eng.ClassifyClip(lc)
	if err != nil {
		return nil, errBadRequest("classifying: %v", err)
	}
	seq := slj.Poses(res)
	rep := scoring.Evaluate(seq)
	out := ScoreResult{
		Clip:          lc.Name,
		Score:         rep.Score,
		Frames:        rep.Frames,
		UnknownFrames: rep.UnknownFrames,
		Faults:        make([]FaultResult, len(rep.Faults)),
		Poses:         make([]string, len(seq)),
	}
	for i, f := range rep.Faults {
		out.Faults[i] = FaultResult{
			Code:        string(f.Code),
			Description: f.Description,
			Advice:      f.Advice,
			FirstFrame:  f.FirstFrame,
			LastFrame:   f.LastFrame,
			Deduction:   f.Deduction,
		}
	}
	for i, p := range seq {
		out.Poses[i] = p.String()
	}
	return out, nil
}

// ClipScore is one clip's accuracy line in an evaluate-corpus reply.
type ClipScore struct {
	Name     string  `json:"name"`
	Frames   int     `json:"frames"`
	Correct  int     `json:"correct"`
	Unknown  int     `json:"unknown"`
	Accuracy float64 `json:"accuracy"`
}

// EvaluateResult is the evaluate-corpus reply.
type EvaluateResult struct {
	Clips    []ClipScore `json:"clips"`
	Frames   int         `json:"frames"`
	Accuracy float64     `json:"accuracy"`
}

// evaluateCorpus streams the split at Dir through the engine with the
// request's own worker budget — the per-request fan-out the admission
// charge paid for. The accumulation mirrors Engine.EvaluateSource, so
// the numbers match a batch evaluation of the same split exactly.
func (s *Server) evaluateCorpus(params json.RawMessage, budget int) (any, *apiError) {
	var p CorpusParams
	if err := json.Unmarshal(params, &p); err != nil {
		return nil, errBadRequest("params: %v", err)
	}
	eng, aerr := s.engineFor(p.Model)
	if aerr != nil {
		return nil, aerr
	}
	dir, aerr := s.resolvePath(p.Dir)
	if aerr != nil {
		return nil, aerr
	}
	src, err := dataset.OpenDir(dir)
	if err != nil {
		return nil, errBadRequest("opening corpus %q: %v", p.Dir, err)
	}
	defer src.Close()
	if src.Len() == 0 {
		return nil, errBadRequest("corpus %q has no clips", p.Dir)
	}
	type clipOut struct {
		name         string
		truth, preds []slj.Pose
	}
	outs, err := parallel.MapSource(budget, src.Next,
		func(_ int, lc dataset.LabeledClip) (clipOut, error) {
			res, cerr := eng.ClassifyClip(lc)
			if cerr != nil {
				return clipOut{}, cerr
			}
			return clipOut{name: lc.Name, truth: lc.Clip.Labels(), preds: slj.Poses(res)}, nil
		})
	if err != nil {
		return nil, errBadRequest("evaluating: %v", err)
	}
	var sum stats.Summary
	for _, o := range outs {
		cr, serr := stats.EvaluateClip(o.name, o.truth, o.preds)
		if serr != nil {
			return nil, errInternal(serr)
		}
		sum.Add(cr)
	}
	out := EvaluateResult{
		Clips:    make([]ClipScore, len(sum.Clips)),
		Frames:   sum.TotalFrames(),
		Accuracy: sum.OverallAccuracy(),
	}
	for i, c := range sum.Clips {
		out.Clips[i] = ClipScore{Name: c.Name, Frames: c.Frames, Correct: c.Correct, Unknown: c.Unknown, Accuracy: c.Accuracy()}
	}
	return out, nil
}
