package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock yields times advancing by step per call, starting at base.
// The handler's epoch consumes the first call, so the first record's
// t_us is exactly step in microseconds.
func fakeClock(step time.Duration) func() time.Time {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	n := 0
	return func() time.Time {
		t := base.Add(time.Duration(n) * step)
		n++
		return t
	}
}

// TestLogHandlerGoldenJSONL pins the handler's byte layout: with an
// injected clock, two runs over the same events must produce identical
// bytes — flattened dotted group keys, attrs sorted by key, one fixed
// formatting path per value kind.
func TestLogHandlerGoldenJSONL(t *testing.T) {
	emit := func() string {
		var buf bytes.Buffer
		sink := NewLineSink(&buf)
		h := NewLogHandler(sink, LogOptions{Level: slog.LevelDebug, Clock: fakeClock(time.Millisecond)})
		l := slog.New(h)

		l.Info("run started", "workers", 4, "stream", true)
		l.With("clip", "test-001", "trace", "t000001").
			Warn("keypoint miss", "frame", 12, "ratio", 0.5)
		l.WithGroup("dbn").Debug("decision", "stage", 3, "unknown", false)
		l.Error("decode failed",
			"err", errors.New("torn header"),
			"took", 1500*time.Nanosecond,
			"nan", math.NaN(),
		)
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	got := emit()
	want := `{"t_us":1000,"level":"INFO","msg":"run started","stream":true,"workers":4}
{"t_us":2000,"level":"WARN","msg":"keypoint miss","clip":"test-001","frame":12,"ratio":0.5,"trace":"t000001"}
{"t_us":3000,"level":"DEBUG","msg":"decision","dbn.stage":3,"dbn.unknown":false}
{"t_us":4000,"level":"ERROR","msg":"decode failed","err":"torn header","nan":"NaN","took":1500}
`
	if got != want {
		t.Errorf("golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Byte determinism: a second identical run produces identical bytes.
	if again := emit(); again != got {
		t.Errorf("two identical runs differ:\nfirst:\n%s\nsecond:\n%s", got, again)
	}
	// Every line is valid JSON.
	for i, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Errorf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
	}
}

// TestLogHandlerLevelGate checks Enabled and Handle respect the
// configured minimum level, and that a nil sink disables everything.
func TestLogHandlerLevelGate(t *testing.T) {
	var buf bytes.Buffer
	sink := NewLineSink(&buf)
	l := NewLogger(sink, slog.LevelWarn)
	if l.Enabled(nil, slog.LevelInfo) {
		t.Error("info enabled under a warn-level handler")
	}
	if !l.Enabled(nil, slog.LevelError) {
		t.Error("error disabled under a warn-level handler")
	}
	l.Info("dropped")
	l.Warn("kept")
	sink.Flush()
	if got := buf.String(); strings.Contains(got, "dropped") || !strings.Contains(got, "kept") {
		t.Errorf("level gate failed:\n%s", got)
	}

	var nilHandler *LogHandler = &LogHandler{}
	if nilHandler.Enabled(nil, slog.LevelError) {
		t.Error("handler with nil sink reports enabled")
	}
}

// TestParseLogLevel covers the flag mapping including the empty default
// and the error case.
func TestParseLogLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want slog.Level
		ok   bool
	}{
		{"debug", slog.LevelDebug, true},
		{"info", slog.LevelInfo, true},
		{"", slog.LevelInfo, true},
		{"warn", slog.LevelWarn, true},
		{"error", slog.LevelError, true},
		{"loud", 0, false},
	} {
		got, err := ParseLogLevel(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParseLogLevel(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestSharedSinkSpansAndLogsRace hammers one LineSink with span events
// and log records concurrently — 8 goroutines each emitting both record
// kinds — and checks no line tore: every output line is a complete,
// valid JSON object. Run under -race this is the regression test for
// the shared serialized output path.
func TestSharedSinkSpansAndLogsRace(t *testing.T) {
	var buf bytes.Buffer
	sink := NewLineSink(&buf)
	h := NewLogHandler(sink, LogOptions{Level: slog.LevelDebug})
	logger := slog.New(h)

	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			clip := fmt.Sprintf("clip-%d", g)
			trace := fmt.Sprintf("t%06d", g+1)
			for i := 0; i < perG; i++ {
				h.span(clip, trace, StageThin, time.Now(), int64(i))
				logger.Info("frame done", "clip", clip, "trace", trace, "frame", i)
			}
		}(g)
	}
	wg.Wait()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if want := goroutines * perG * 2; len(lines) != want {
		t.Fatalf("got %d lines, want %d", len(lines), want)
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d tore (not valid JSON): %v\n%s", i, err, line)
		}
		if _, ok := m["t_us"]; !ok {
			t.Fatalf("line %d missing t_us: %s", i, line)
		}
	}
}

// TestLineSinkCloseIdempotent checks Close flushes, closes the
// underlying closer exactly once, and is safe on nil.
func TestLineSinkCloseIdempotent(t *testing.T) {
	cc := &countingCloser{}
	sink := NewLineSink(cc)
	b := sink.line()
	b = append(b, "x\n"...)
	sink.commit(b)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if cc.closes != 1 {
		t.Errorf("underlying closer closed %d times, want 1", cc.closes)
	}
	if cc.buf.String() != "x\n" {
		t.Errorf("flushed %q, want %q", cc.buf.String(), "x\n")
	}
	var nilSink *LineSink
	if err := nilSink.Close(); err != nil {
		t.Errorf("nil sink Close = %v", err)
	}
	if err := nilSink.Flush(); err != nil {
		t.Errorf("nil sink Flush = %v", err)
	}
}

type countingCloser struct {
	buf    bytes.Buffer
	closes int
}

func (c *countingCloser) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *countingCloser) Close() error                { c.closes++; return nil }
