package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"testing"
)

// TestWriteTraceEvents converts a debug-level event log written by real
// scopes and checks the Chrome trace-event structure: valid JSON, one
// complete event per span, one named thread row per clip, and the log
// events that are not spans skipped.
func TestWriteTraceEvents(t *testing.T) {
	var spans bytes.Buffer
	sink := NewLineSink(&spans)
	root := NewScope(NewRegistry())
	root.SetLogger(NewLogger(sink, slog.LevelDebug))
	root.Logger().Info("run started")
	scA := root.WithClip("clip-a")
	scB := root.WithClip("clip-b")
	scA.Start(StageThin).End()
	scB.Start(StageGraph).End()
	scA.RecordError(ErrClassDecode, errors.New("torn header"))
	scA.Start(StageClassify).End()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := WriteTraceEvents(&spans, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			TS   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("trace events are not valid JSON: %v\n%s", err, out.String())
	}
	var complete, meta int
	tidsByClip := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Dur < 0 || ev.Pid != 1 || ev.Tid == 0 {
				t.Errorf("bad complete event: %+v", ev)
			}
		case "M":
			meta++
			if ev.Name != "thread_name" {
				t.Errorf("bad metadata event name %q", ev.Name)
			}
			tidsByClip[ev.Args["name"]] = ev.Tid
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if complete != 3 {
		t.Errorf("complete events = %d, want 3", complete)
	}
	if meta != 2 {
		t.Errorf("thread metadata events = %d, want 2 (one per clip)", meta)
	}
	if tidsByClip["clip-a"] == tidsByClip["clip-b"] {
		t.Error("clips share a tid; each clip must get its own row")
	}

	// Stage names survive as event names.
	if !strings.Contains(out.String(), `"name":"thin"`) {
		t.Errorf("thin span missing from events: %s", out.String())
	}
}

func TestWriteTraceEventsErrors(t *testing.T) {
	// Malformed line aborts with its line number.
	in := strings.NewReader("{\"t_us\":1,\"stage\":\"thin\",\"ns\":5}\nnot json\n")
	var out bytes.Buffer
	err := WriteTraceEvents(in, &out)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line-2 parse error", err)
	}

	// Empty input still yields a valid, empty document.
	out.Reset()
	if err := WriteTraceEvents(strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
}
