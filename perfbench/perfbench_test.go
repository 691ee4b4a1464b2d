package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/synth"
)

// tiny is the short-mode configuration: two train and two eval clips and
// half a second of measurement, enough to run every gate.
func tiny(t *testing.T, trace bool) config {
	return config{
		seed: 3, seconds: 0.5, trace: trace, work: t.TempDir(),
		trainClips: 2, evalClips: 2, setupRepeats: 1, workers: 2,
	}
}

// TestWorkloadsPassGates runs every workload, untraced and traced, on a
// tiny corpus: no operation may fail, every gate must pass, and the
// metrics must be exactly the ones BENCHMARK.json declares.
func TestWorkloadsPassGates(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				cfg := tiny(t, trace)
				var out bytes.Buffer
				res, err := run(w, cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s = %+v, want unit %s", d.name, m, d.unit)
					}
				}
				if trace {
					checkSpansRender(t, filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed)))
				}
			})
		}
	}
}

// checkSpansRender converts a span file the way sljtrace does.
func checkSpansRender(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out bytes.Buffer
	if err := obs.WriteTraceEvents(f, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace events: %v, %d events", err, len(doc.TraceEvents))
	}
}

// TestNamesMatchBenchmarkJSON checks the workload and metric names the
// program uses against BENCHMARK.json, and their spelling.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var got []named
	for _, w := range workloads {
		got = append(got, named{Name: w.name})
	}
	for _, list := range []struct {
		what      string
		got, want []named
	}{
		{"workloads", got, spec.Workloads},
		{"end_to_end", defs(endToEnd), spec.EndToEnd},
		{"per_layer", defs(perLayer), spec.PerLayer},
	} {
		if fmt.Sprint(list.got) != fmt.Sprint(list.want) {
			t.Errorf("%s: program has %v, BENCHMARK.json has %v", list.what, list.got, list.want)
		}
		for _, n := range list.got {
			if !name.MatchString(n.Name) {
				t.Errorf("%s: name %q is not [A-Za-z0-9_.-]", list.what, n.Name)
			}
		}
	}
}

// named is a BENCHMARK.json entry's name and, for metrics, unit.
type named struct{ Name, Unit string }

func defs(list []metricDef) []named {
	out := make([]named, len(list))
	for i, d := range list {
		out[i].Name, out[i].Unit = d.name, d.unit
	}
	return out
}

// TestCorpusFollowsSeed pins the generator: the same seed gives the same
// digest, another seed different clips.
func TestCorpusFollowsSeed(t *testing.T) {
	digest := func(seed int64) string {
		c, err := generate(workloads[0], seed, t.TempDir(), 1, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		return c.digest
	}
	a, b, other := digest(5), digest(5), digest(6)
	if a != b {
		t.Errorf("seed 5 gave digests %s and %s", a, b)
	}
	if a == other {
		t.Errorf("seeds 5 and 6 both gave digest %s", a)
	}
}

// TestSaveClipMatchesDataset pins saveClip to dataset.SaveClip's bytes,
// including when it rewrites a directory that held a different clip.
func TestSaveClipMatchesDataset(t *testing.T) {
	spec := clipSpec(workloads[0], 9, 3, true)
	spec.Script = spec.Script[:3]
	clip, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	lc := dataset.LabeledClip{Name: "c", Clip: clip}
	want, got := t.TempDir(), t.TempDir()
	if err := dataset.SaveClip(want, lc); err != nil {
		t.Fatal(err)
	}
	longer, err := synth.Generate(synth.DefaultSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := saveClip(got, dataset.LabeledClip{Name: "c", Clip: longer}); err != nil {
		t.Fatal(err)
	}
	if err := saveClip(got, lc); err != nil {
		t.Fatal(err)
	}
	// The longer clip's extra frames stay behind as files; the clip's own
	// files, which are all dataset.OpenClip reads, must match.
	for i := range clip.Frames {
		for _, name := range []string{fmt.Sprintf("frame-%03d.ppm", i), fmt.Sprintf("silhouette-%03d.pbm", i)} {
			sameFile(t, filepath.Join(want, name), filepath.Join(got, name))
		}
	}
	sameFile(t, filepath.Join(want, "labels.txt"), filepath.Join(got, "labels.txt"))
	sameFile(t, filepath.Join(want, "background.ppm"), filepath.Join(got, "background.ppm"))
}

func sameFile(t *testing.T, a, b string) {
	t.Helper()
	x, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	y, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x, y) {
		t.Errorf("%s differs from dataset.SaveClip's", filepath.Base(b))
	}
}
