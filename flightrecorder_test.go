package slj

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
)

// fullScope builds the complete flight-recorder bundle the CLI starts:
// registry, journal, a debug-level event log carrying spans and log
// events on one sink, sampler (ticked by hand) and SLO health
// evaluator. It returns the scope plus the pieces the tests assert on;
// stop appends the event log to logs.
func fullScope(t *testing.T, logs *bytes.Buffer) (*obs.Scope, *obs.Journal, *obs.HealthEvaluator, *obs.Sampler, func()) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	st, err := obs.NewStack(obs.StackConfig{SampleInterval: time.Hour, LogPath: path, LogLevel: "debug"})
	if err != nil {
		t.Fatal(err)
	}
	stop := func() {
		st.Sampler.Stop() // final tick runs the health eval hook
		if err := st.Stop(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		logs.Write(data)
	}
	return st.Scope, st.Journal, st.Health, st.Sampler, stop
}

// TestEngineLoggedMatchesSequential pins the flight-recorder contract:
// with everything on — structured debug logging, the error journal,
// span tracing onto the same sink as the logs, the sampler and the SLO
// evaluator — engine results stay bit-identical to the uninstrumented
// sequential path at every worker count, every emitted line is valid
// JSON, and each clip's span records agree on one trace ID.
func TestEngineLoggedMatchesSequential(t *testing.T) {
	ds := smallDataset(t, 65)
	sys, model := trainGolden(t, ds)
	wantSum, wantConf, err := sys.Evaluate(ds.Test)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		var logs bytes.Buffer
		scope, journal, health, _, stop := fullScope(t, &logs)
		eng, err := NewEngine(workers, WithObservability(scope))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadModel(bytes.NewReader(model)); err != nil {
			t.Fatal(err)
		}
		sum, conf, err := eng.Evaluate(ds.Test)
		stop()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sum, wantSum) {
			t.Errorf("workers=%d: instrumented summary differs from sequential", workers)
		}
		if !reflect.DeepEqual(*conf, *wantConf) {
			t.Errorf("workers=%d: instrumented confusion matrix differs from sequential", workers)
		}
		if got := health.Health(); got != obs.VerdictReady {
			t.Errorf("workers=%d: healthy run verdict = %v, want ready\n%+v",
				workers, got, health.Snapshot())
		}
		if got := journal.Count(obs.ErrClassDecode); got != 0 {
			t.Errorf("workers=%d: healthy run journaled %d decode errors", workers, got)
		}

		// The shared sink carries spans and log events; no line tore and
		// every clip's span records carry exactly one trace ID.
		clipTrace := map[string]string{}
		lines := strings.Split(strings.TrimSpace(logs.String()), "\n")
		if len(lines) == 0 {
			t.Fatalf("workers=%d: no output lines", workers)
		}
		for _, line := range lines {
			var rec struct {
				Clip  string `json:"clip"`
				Trace string `json:"trace"`
				Stage string `json:"stage"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("workers=%d: bad line %q: %v", workers, line, err)
			}
			if rec.Clip == "" {
				continue // run-level event or unlabelled span
			}
			if rec.Trace == "" {
				t.Fatalf("workers=%d: clip-labelled line missing trace: %s", workers, line)
			}
			if prev, ok := clipTrace[rec.Clip]; ok && prev != rec.Trace {
				t.Fatalf("workers=%d: clip %s carries two traces %s and %s",
					workers, rec.Clip, prev, rec.Trace)
			}
			clipTrace[rec.Clip] = rec.Trace
		}
		if len(clipTrace) != len(ds.Test) {
			t.Errorf("workers=%d: traced %d clips, want %d", workers, len(clipTrace), len(ds.Test))
		}
		// Trace IDs are unique across clips.
		seen := map[string]string{}
		for clip, tr := range clipTrace {
			if other, dup := seen[tr]; dup {
				t.Errorf("workers=%d: clips %s and %s share trace %s", workers, clip, other, tr)
			}
			seen[tr] = clip
		}
	}
}

// TestCorruptClipHealthEndToEnd injects a corrupt clip into an on-disk
// corpus and drives an instrumented streaming evaluation over it with
// skip-corrupt ingest. The acceptance chain: the journal records a
// decode-class entry with a trace ID, the errors.decode counter moves,
// the health verdict lands on degraded with the decode class
// attributed, and the breach reason carries the same trace ID as the
// journal entry.
func TestCorruptClipHealthEndToEnd(t *testing.T) {
	ds := smallDataset(t, 65)
	root := saveCorpus(t, ds)

	// Corrupt one test clip's background so its header fails to decode.
	dirs, err := os.ReadDir(filepath.Join(root, "test"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no test clips saved")
	}
	bad := filepath.Join(root, "test", dirs[0].Name(), "background.ppm")
	if err := os.WriteFile(bad, []byte("not a ppm\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	scope, journal, health, smp, stop := fullScope(t, &logs)
	eng, err := NewEngine(2, WithObservability(scope))
	if err != nil {
		t.Fatal(err)
	}
	_, model := trainGolden(t, ds)
	if err := eng.LoadModel(bytes.NewReader(model)); err != nil {
		t.Fatal(err)
	}

	src, err := dataset.OpenDir(filepath.Join(root, "test"))
	if err != nil {
		t.Fatal(err)
	}
	resilient := dataset.SkipCorrupt(src, scope)
	smp.Tick() // rate baseline before the errors land
	sum, _, err := eng.EvaluateSource(resilient)
	if err != nil {
		t.Fatalf("skip-corrupt evaluation aborted: %v", err)
	}
	stop() // final sampler tick -> final health eval

	if got := resilient.(interface{ Skipped() int }).Skipped(); got != 1 {
		t.Errorf("skipped = %d clips, want 1", got)
	}
	if got, want := len(sum.Clips), len(ds.Test)-1; got != want {
		t.Errorf("evaluated %d clips, want %d", got, want)
	}

	// Journal: one decode entry, carrying a trace ID and the message.
	if got := journal.Count(obs.ErrClassDecode); got != 1 {
		t.Fatalf("journal decode count = %d, want 1", got)
	}
	jsnap := journal.Snapshot()
	var decodeClass *obs.JournalClass
	for i := range jsnap.Classes {
		if jsnap.Classes[i].Class == obs.ErrClassDecode {
			decodeClass = &jsnap.Classes[i]
		}
	}
	if decodeClass == nil {
		t.Fatalf("no decode class in journal snapshot: %+v", jsnap)
	}
	entry := decodeClass.Exemplars[len(decodeClass.Exemplars)-1]
	if entry.Trace == "" {
		t.Fatal("journal entry has no trace ID")
	}
	if !strings.Contains(entry.Msg, dirs[0].Name()) {
		t.Errorf("journal message %q does not name the corrupt clip %s", entry.Msg, dirs[0].Name())
	}

	// Health: degraded with the decode_errors objective breaching, the
	// breach attributed to the decode class via the journal's trace ID.
	hsnap := health.Snapshot()
	if hsnap.Verdict != obs.VerdictDegraded {
		t.Fatalf("verdict = %v, want degraded\n%+v", hsnap.Verdict, hsnap)
	}
	var decodeSLO *obs.SLOState
	for i := range hsnap.SLOs {
		if hsnap.SLOs[i].Name == "decode_errors" {
			decodeSLO = &hsnap.SLOs[i]
		}
	}
	if decodeSLO == nil || decodeSLO.Level == "ok" {
		t.Fatalf("decode_errors objective not breaching: %+v", hsnap.SLOs)
	}
	if decodeSLO.Trace != entry.Trace {
		t.Errorf("health trace %q != journal trace %q", decodeSLO.Trace, entry.Trace)
	}
	if !strings.Contains(decodeSLO.Reason, entry.Trace) {
		t.Errorf("breach reason %q missing trace %s", decodeSLO.Reason, entry.Trace)
	}

	// The error-level log line carries the same trace ID.
	if !strings.Contains(logs.String(), entry.Trace) {
		t.Errorf("log stream missing trace %s:\n%s", entry.Trace, logs.String())
	}
}
