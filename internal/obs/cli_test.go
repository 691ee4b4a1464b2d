package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// startCLI parses args into a fresh CLI and starts it.
func startCLI(t *testing.T, args ...string) (*CLI, *Scope, error) {
	t.Helper()
	var c CLI
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	sc, err := c.Start()
	return &c, sc, err
}

// TestCLIReportAndEventLog runs the batch observability surface end to
// end: one -report file carries the metrics, health and errors sections,
// and the debug-level -log converts to trace events span for span.
func TestCLIReportAndEventLog(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "RUN_REPORT.json")
	events := filepath.Join(dir, "events.jsonl")
	c, sc, err := startCLI(t, "-report", report, "-log", events, "-log-level", "debug")
	if err != nil {
		t.Fatal(err)
	}
	clip := sc.WithClip("clip-a")
	clip.Start(StageThin).End()
	clip.FrameDone()
	clip.Start(StageClassify).End()
	clip.ClipDone()
	clip.RecordError(ErrClassDecode, errors.New("torn header"))
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}

	rep, err := LoadRunReport(report)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != RunReportSchema || rep.Frames != 1 || rep.Clips != 1 {
		t.Errorf("report schema %d frames %d clips %d, want %d/1/1", rep.Schema, rep.Frames, rep.Clips, RunReportSchema)
	}
	if len(rep.Metrics.Counters) == 0 || len(rep.Metrics.Histograms) == 0 {
		t.Errorf("report metrics section is empty: %+v", rep.Metrics)
	}
	if rep.Health == nil || rep.Health.Ticks < 1 {
		t.Errorf("report health section = %+v, want the final evaluation", rep.Health)
	}
	if rep.Errors == nil || rep.Errors.Total != 1 || rep.Errors.Recent[0].Trace != clip.TraceID() {
		t.Errorf("report errors section = %+v, want the one decode error under %s", rep.Errors, clip.TraceID())
	}
	if _, err := os.Stat(reportMarkdownPath(report)); err != nil {
		t.Errorf("markdown sibling: %v", err)
	}

	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out bytes.Buffer
	if err := WriteTraceEvents(f, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var spans []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans = append(spans, ev.Name)
		}
	}
	if got := strings.Join(spans, ","); got != "thin,classify" {
		t.Errorf("trace events = %q, want thin,classify (log lines skipped)", got)
	}
	log, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"msg":"run started"`, `"msg":"torn header"`, `"msg":"run finished"`} {
		if !bytes.Contains(log, []byte(want)) {
			t.Errorf("event log missing %s:\n%s", want, log)
		}
	}
}

// TestCLIStartFailsCleanly: an unopenable -log path fails Start with no
// scope, leaves nothing to stop, and does not stop a later Start.
func TestCLIStartFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "missing", "events.jsonl")
	c, sc, err := startCLI(t, "-log", bad, "-metrics", "127.0.0.1:0", "-report", filepath.Join(dir, "r.json"))
	if err == nil || sc != nil {
		t.Fatalf("Start with a bad -log = (%v, %v), want an error and no scope", sc, err)
	}
	if err := c.Stop(); err != nil {
		t.Errorf("Stop after a failed Start = %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "r.json")); !os.IsNotExist(err) {
		t.Errorf("failed run wrote a report (stat err %v)", err)
	}
	c, sc, err = startCLI(t, "-metrics", "127.0.0.1:0")
	if err != nil || sc == nil {
		t.Fatalf("Start after a failed Start = (%v, %v)", sc, err)
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestCLIFlags pins the flag surface and the inert zero value.
func TestCLIFlags(t *testing.T) {
	var c CLI
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.RegisterFlags(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := "log,log-level,metrics,report,report-compare,sample-interval,trace"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("flags = %s, want %s", got, want)
	}
	if sc, err := c.Start(); sc != nil || err != nil {
		t.Errorf("Start with no flags = (%v, %v), want (nil, nil)", sc, err)
	}
	if err := c.Stop(); err != nil {
		t.Error(err)
	}
}
