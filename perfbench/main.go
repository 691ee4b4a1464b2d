// Command perfbench is the repository benchmark. It drives the standing
// long jump pipeline through its public APIs only — slj.Engine,
// serve.Server with the full serve.Stack, package dataset and the layer
// packages — in one process, on a corpus it generates from --seed before
// anything is timed. See README.md in this directory for why each workload
// exists and which layer metric should move which end-to-end metric.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload eval-paper --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, taken
// from a replay of the workload's clips that records spans.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// width, height are the frame size; scale multiplies the body height,
	// jump span and flight rise so the figure fills the frame alike.
	width, height int
	scale         float64
	// evalClips is the size of the evaluated (or served) clip set.
	evalClips int
	// serve selects the open-loop score phase instead of batch passes.
	serve bool
	// rate is the score request rate of the open-loop phase, per second.
	// The trace run drives every workload's clips through the server at
	// its rate, so each rate sits near half of that clip size's capacity.
	rate float64
}

var workloads = []workload{
	{name: "eval-paper", width: 320, height: 200, scale: 1, evalClips: 24, rate: 8},
	{name: "eval-hd", width: 640, height: 400, scale: 2, evalClips: 8, rate: 2},
	{name: "serve-score", width: 320, height: 200, scale: 1, evalClips: 24, rate: 8, serve: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// work is the directory temporary corpora and span files go under.
	work string
	// trainClips and evalClips override the corpus sizes (0 keeps the
	// defaults); the tests shrink them.
	trainClips, evalClips int
	// setupRepeats is how many times set-up runs; setup_s is the median.
	setupRepeats int
	// workers is the engine worker count and the client connection count.
	workers int
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: eval-paper, eval-hd or serve-score")
		seed    = flag.Int64("seed", 1, "corpus generator seed")
		seconds = flag.Float64("seconds", 25, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 replays the clips layer by layer with spans and reports per-layer metrics")
		work    = flag.String("work", ".bench_build", "directory for temporary corpora and span files")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work,
		setupRepeats: 3, workers: runtime.NumCPU(),
	}
	res, err := run(w, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
