// Command sljtop is a stdlib-only terminal dashboard for a running slj
// job: it polls the obs endpoints a binary exposes under -metrics and
// renders throughput, per-stage latency quantiles, worker-pool
// occupancy, and pipeline health counters with sparkline history.
//
// Usage:
//
//	sljtop -addr 127.0.0.1:6060            # live, refreshes every second
//	sljtop -addr 127.0.0.1:6060 -once      # one frame, plain text (CI)
//	sljtop -snapshot metrics_snapshot.json # offline, from -metrics-out
//
// Live mode reads /debug/metrics (totals) and /debug/timeseries (the
// sampler's ring buffers — enabled by default via -sample-interval on
// the instrumented binaries). Snapshot mode renders totals only.
// -connect-timeout keeps -once useful in scripts that race the job's
// start-up: sljtop retries until the endpoint answers or the timeout
// expires.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// pipelineOrder lists the stage.<name>.ns histograms in processing
// order; other histograms render after these, alphabetically.
var pipelineOrder = []string{
	"stage.detect.ns", "stage.smooth.ns", "stage.thin.ns",
	"stage.graph.ns", "stage.keypoint.ns", "stage.classify.ns",
	"stage.frame.ns",
}

// view is one fetched dashboard frame: the totals snapshot plus the
// optional subsystems (sampler series, health verdict, error journal)
// — each absent endpoint degrades its panel rather than failing.
type view struct {
	snap   obs.Snapshot
	ts     obs.TimeSeries
	health *obs.HealthSnapshot
	errs   *obs.JournalSnapshot
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sljtop: ")

	var (
		addr     = flag.String("addr", "", "obs endpoint of the running job, host:port (the binary's -metrics address)")
		snapshot = flag.String("snapshot", "", "render a -metrics-out JSON snapshot instead of polling a live job")
		interval = flag.Duration("interval", time.Second, "refresh period in live mode")
		once     = flag.Bool("once", false, "render one frame without terminal control sequences and exit (for CI/scripts)")
		timeout  = flag.Duration("connect-timeout", 5*time.Second, "keep retrying the first fetch for this long before giving up")
	)
	flag.Parse()
	if (*addr == "") == (*snapshot == "") {
		fmt.Fprintln(os.Stderr, "sljtop: exactly one of -addr or -snapshot is required")
		flag.Usage()
		os.Exit(2)
	}

	if *snapshot != "" {
		snap, err := readSnapshotFile(*snapshot)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(render(view{snap: snap}, *snapshot))
		return
	}

	client := &http.Client{Timeout: 5 * time.Second}
	v, err := fetchWithRetry(client, *addr, *timeout)
	if err != nil {
		log.Fatal(err)
	}
	if *once {
		fmt.Print(render(v, *addr))
		return
	}
	for {
		// Home the cursor and clear to end of screen; a full clear per
		// frame would flicker.
		fmt.Print("\033[H\033[2J" + render(v, *addr))
		time.Sleep(*interval)
		v, err = fetch(client, *addr)
		if err != nil {
			log.Fatal(err) // the job exited; its server is gone
		}
	}
}

// fetchWithRetry polls fetch until it succeeds or the timeout passes —
// the job being watched may still be compiling or binding its listener.
func fetchWithRetry(client *http.Client, addr string, timeout time.Duration) (view, error) {
	deadline := time.Now().Add(timeout)
	for {
		v, err := fetch(client, addr)
		if err == nil {
			return v, nil
		}
		if time.Now().After(deadline) {
			return view{}, fmt.Errorf("no obs endpoint at %s after %s: %w", addr, timeout, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// fetch reads the totals snapshot and, when mounted, the sampler rings,
// the health verdict, and the error journal. Each optional endpoint
// that is missing (its subsystem disabled) degrades its panel rather
// than failing. /debug/health answers 503 when the job is failing its
// SLOs — that response still carries the snapshot we want to render, so
// it is accepted alongside 200.
func fetch(client *http.Client, addr string) (view, error) {
	var v view
	if err := getJSON(client, "http://"+addr+"/debug/metrics", &v.snap, http.StatusOK); err != nil {
		return view{}, err
	}
	if err := getJSON(client, "http://"+addr+"/debug/timeseries", &v.ts, http.StatusOK); err != nil {
		v.ts = obs.TimeSeries{}
	}
	var hs obs.HealthSnapshot
	if err := getJSON(client, "http://"+addr+"/debug/health", &hs, http.StatusOK, http.StatusServiceUnavailable); err == nil {
		v.health = &hs
	}
	var js obs.JournalSnapshot
	if err := getJSON(client, "http://"+addr+"/debug/errors", &js, http.StatusOK); err == nil {
		v.errs = &js
	}
	return v, nil
}

func getJSON(client *http.Client, url string, into any, okStatuses ...int) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	ok := false
	for _, s := range okStatuses {
		if resp.StatusCode == s {
			ok = true
		}
	}
	if !ok {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

func readSnapshotFile(path string) (obs.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return obs.Snapshot{}, err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return obs.Snapshot{}, fmt.Errorf("parsing snapshot %s: %w", path, err)
	}
	return snap, nil
}

// sparkline renders points as 8-level block characters, scaled to the
// series' own min..max so shape survives any magnitude.
func sparkline(points []float64, width int) string {
	if len(points) > width {
		points = points[len(points)-width:]
	}
	if len(points) == 0 {
		return ""
	}
	lo, hi := points[0], points[0]
	for _, p := range points {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, p := range points {
		idx := 0
		if hi > lo {
			idx = int((p - lo) / (hi - lo) * float64(len(levels)-1))
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}

// render lays out one dashboard frame from the fetched view.
func render(v view, source string) string {
	snap, ts := v.snap, v.ts
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	gauges := map[string]int64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	hists := map[string]obs.HistogramSnapshot{}
	var histNames []string
	for _, h := range snap.Histograms {
		hists[h.Name] = h.HistogramSnapshot
		histNames = append(histNames, h.Name)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "slj · %s · %s\n\n", source, time.Now().Format("15:04:05"))

	// Throughput: current rate from the sampler when present, lifetime
	// totals always.
	fps, haveFPS := ts.Latest("derived.frames_per_s")
	cps, _ := ts.Latest("derived.clips_per_s")
	fmt.Fprintf(&b, "throughput  frames %d", counters["pipeline.frames"])
	if haveFPS {
		fmt.Fprintf(&b, " @ %.1f/s %s", fps, sparkSeries(ts, "derived.frames_per_s"))
	}
	fmt.Fprintf(&b, "\n            clips  %d", counters["parallel.items"])
	if haveFPS {
		fmt.Fprintf(&b, " @ %.2f/s %s", cps, sparkSeries(ts, "derived.clips_per_s"))
	}
	b.WriteString("\n\n")

	// Per-stage latency: totals quantiles (always available) plus the
	// windowed p50 sparkline when the sampler is on.
	fmt.Fprintf(&b, "latency     %-22s %10s %9s %9s %9s  %s\n", "histogram", "count", "p50", "p95", "p99", "p50 history")
	for _, name := range orderedHistograms(histNames) {
		h := hists[name]
		fmt.Fprintf(&b, "            %-22s %10d %9s %9s %9s  %s\n",
			name, h.Count,
			obs.FormatNS(h.Quantile(0.50)), obs.FormatNS(h.Quantile(0.95)), obs.FormatNS(h.Quantile(0.99)),
			sparkSeries(ts, name+".p50"))
	}
	b.WriteString("\n")

	// Worker pool / streaming occupancy.
	fmt.Fprintf(&b, "workers     pool_free %d · clips_in_flight %d · workers_max %d\n",
		gauges["engine.pool_free"], gauges["engine.clips_in_flight"], counters["parallel.workers_max"])
	hits, misses := counters["imaging.pool.hits"], counters["imaging.pool.misses"]
	if hits+misses > 0 {
		fmt.Fprintf(&b, "pool        hit rate %.1f%% (%d hits, %d misses, %d double puts) %s\n",
			100*float64(hits)/float64(hits+misses), hits, misses, counters["imaging.pool.double_puts"],
			sparkSeries(ts, "derived.pool_hit_rate"))
	}
	b.WriteString("\n")

	// Health: decisions and front-end fallbacks.
	decided, unknown := int64(0), int64(0)
	for name, v := range counters {
		if strings.HasPrefix(name, "pipeline.decided.") {
			decided += v
		}
		if strings.HasPrefix(name, "pipeline.unknown.") {
			unknown += v
		}
	}
	unknownPct := 0.0
	if decided > 0 {
		unknownPct = 100 * float64(unknown) / float64(decided)
	}
	fmt.Fprintf(&b, "health      decided %d · unknown %d (%.1f%%) · graph_fail %d · keypoint_miss %d (degenerate %d, no_torso %d) · hand_absent %d\n",
		decided, unknown, unknownPct,
		counters["pipeline.graph_fail"], counters["pipeline.keypoint_miss"],
		counters["pipeline.keypoint_miss.degenerate"], counters["pipeline.keypoint_miss.no_torso"],
		counters["pipeline.hand_absent"])
	if v.health != nil {
		b.WriteString("\n")
		fmt.Fprintf(&b, "alerts      verdict %s", v.health.Verdict)
		if len(v.health.Reasons) > 0 {
			fmt.Fprintf(&b, " · %d breaching", len(v.health.Reasons))
		}
		b.WriteString("\n")
		for _, st := range v.health.SLOs {
			if st.Level == obs.SLOOK.String() {
				continue
			}
			// The breach reason embeds the correlating trace ID when the
			// SLO's error class has a journaled exemplar.
			fmt.Fprintf(&b, "  %-10s %-10s burn fast %.2f slow %.2f  %s\n",
				st.Level, st.Name, st.BurnFast, st.BurnSlow, st.Reason)
		}
	}

	if v.errs != nil && v.errs.Total > 0 {
		b.WriteString("\n")
		fmt.Fprintf(&b, "errors      %d journaled\n", v.errs.Total)
		for _, c := range v.errs.Classes {
			last := c.Exemplars[len(c.Exemplars)-1]
			fmt.Fprintf(&b, "  %-20s %6d  last %s clip=%s %s\n",
				c.Class, c.Count, last.Trace, orDash(last.Clip), last.Msg)
		}
	}

	if ts.Ticks > 0 {
		fmt.Fprintf(&b, "\nsampler     %d ticks @ %s, window %d\n",
			ts.Ticks, time.Duration(ts.IntervalNS), ts.Window)
	}
	return b.String()
}

// orDash substitutes "-" for an empty field so columns stay aligned.
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// sparkSeries renders the named series' ring as a sparkline, or "" when
// the series is absent (sampling off).
func sparkSeries(ts obs.TimeSeries, name string) string {
	for _, s := range ts.Series {
		if s.Name == name {
			return sparkline(s.Points, 32)
		}
	}
	return ""
}

// orderedHistograms sorts histogram names pipeline-first: the six
// stage.* histograms in processing order, then everything else
// alphabetically.
func orderedHistograms(names []string) []string {
	rank := map[string]int{}
	for i, n := range pipelineOrder {
		rank[n] = i
	}
	sort.Slice(names, func(i, j int) bool {
		ri, iok := rank[names[i]]
		rj, jok := rank[names[j]]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		case jok:
			return false
		default:
			return names[i] < names[j]
		}
	})
	return names
}
