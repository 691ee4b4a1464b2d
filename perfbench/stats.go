package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports all
// of them; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"frames_per_s", "frames/s"},
	{"accuracy", "ratio"},
	{"request_p50_ms", "ms"},
	{"request_p95_ms", "ms"},
	{"success_ratio", "ratio"},
	{"heap_live_mb", "MB"},
}

// perLayer are the metrics of a traced run, grouped by layer package.
var perLayer = []metricDef{
	{"dataset.open_ms_per_clip", "ms"},
	{"dataset.decode_ms_per_frame", "ms"},
	{"extract.ms_per_frame", "ms"},
	{"thinning.ms_per_frame", "ms"},
	{"thinning.passes_per_frame", "count"},
	{"skelgraph.ms_per_frame", "ms"},
	{"skelgraph.fail_ratio", "ratio"},
	{"keypoint.ms_per_frame", "ms"},
	{"keypoint.ok_ratio", "ratio"},
	{"dbn.classify_ms_per_frame", "ms"},
	{"dbn.allocs_per_frame", "count"},
	{"dbn.bytes_per_frame", "bytes"},
	{"dbn.unknown_ratio", "ratio"},
	{"dbn.train_s", "s"},
	{"scoring.ms_per_clip", "ms"},
	{"imaging.pool_hit_ratio", "ratio"},
	{"engine.parallel_efficiency", "ratio"},
	{"engine.allocs_per_frame", "count"},
	{"serve.self_ms", "ms"},
	{"serve.response_bytes", "bytes"},
	{"serve.shed", "count"},
	{"loadgen.lag_p95_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.layers_over_wall", "ratio"},
}

// tally counts operations and failed ones; a failure is reported on
// standard error. Every gate is one operation.
type tally struct{ attempted, failed int }

// add records n operations that succeeded or failed together.
func (t *tally) add(n int, ok bool, format string, args ...any) {
	t.attempted += n
	if !ok {
		t.failed += n
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.add(1, ok, format, args...)
}

func (t *tally) successRatio() float64 { return ratio(t.attempted-t.failed, t.attempted) }

// result builds the output line with the metrics of list, in its units.
// A value that is not finite fails the run instead of the JSON encoding.
func (t *tally) result(values map[string]float64, list []metricDef) result {
	m := make(map[string]metric, len(list))
	for _, d := range list {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.check(false, "metric %s is %v", d.name, v)
			v = 0
		}
		m[d.name] = metric{Value: v, Unit: d.unit}
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank p-quantile.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
