// Structured event logging: a deterministic JSONL slog.Handler over a
// LineSink. At debug level pipeline spans are events on the same sink.
// One sink = one mutex = one interleaving-free stream, so spans and log
// events never tear lines across engine workers.
package obs

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
)

// LineSink serialises whole-line writes from many goroutines into one
// buffered stream. Producers (log records and span events) format
// directly into the sink's reused buffer between line/commit, so a
// line costs no allocation beyond the buffered writer's amortised
// growth and two lines never interleave.
type LineSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	buf []byte
}

// NewLineSink wraps w; Close flushes and, when w is also an io.Closer,
// closes it.
func NewLineSink(w io.Writer) *LineSink {
	s := &LineSink{w: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// line locks the sink and returns its reused buffer, empty. The caller
// must append exactly one '\n'-terminated line and pass it to commit.
func (s *LineSink) line() []byte {
	s.mu.Lock()
	return s.buf[:0]
}

// commit writes the line built since the matching line call and
// unlocks the sink.
func (s *LineSink) commit(b []byte) {
	s.buf = b
	_, _ = s.w.Write(b)
	s.mu.Unlock()
}

// Flush forces buffered lines to the underlying writer. Safe on nil.
func (s *LineSink) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// Close flushes and closes the underlying file, if any. Safe on nil.
func (s *LineSink) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.w.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
		s.c = nil
	}
	if err != nil {
		return fmt.Errorf("obs: closing line sink: %w", err)
	}
	return nil
}

// LogOptions configures a LogHandler.
type LogOptions struct {
	// Level is the minimum record level emitted (default LevelInfo).
	Level slog.Level
	// Clock supplies record timestamps; nil means time.Now. Tests
	// inject a fake clock so output is byte-deterministic.
	Clock func() time.Time
}

// LogHandler is a slog.Handler writing byte-deterministic JSON Lines:
//
//	{"t_us":1000,"level":"INFO","msg":"run started","clip":"c1","trace":"t000001"}
//
// t_us is microseconds since the handler was built (span events use
// the same epoch), attrs are flattened (group keys joined with
// '.') and sorted by key, and every value renders through one fixed
// formatting path — two runs with the same events and clock produce
// identical bytes.
type LogHandler struct {
	sink  *LineSink
	level slog.Level
	clock func() time.Time
	epoch time.Time
	attrs []slog.Attr // pre-flattened WithAttrs state
	group string      // open group prefix ("a.b.")
}

// NewLogHandler builds a handler over sink.
func NewLogHandler(sink *LineSink, opts LogOptions) *LogHandler {
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	return &LogHandler{sink: sink, level: opts.Level, clock: clock, epoch: clock()}
}

// NewLogger is the common composition: a slog.Logger over a fresh
// handler at the given level.
func NewLogger(sink *LineSink, level slog.Level) *slog.Logger {
	return slog.New(NewLogHandler(sink, LogOptions{Level: level}))
}

// Enabled implements slog.Handler.
func (h *LogHandler) Enabled(_ context.Context, l slog.Level) bool {
	return h.sink != nil && l >= h.level
}

// WithAttrs implements slog.Handler: attrs are resolved and flattened
// once, here, so Handle only merges and sorts.
func (h *LogHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	if len(attrs) == 0 {
		return h
	}
	nh := *h
	nh.attrs = make([]slog.Attr, 0, len(h.attrs)+len(attrs))
	nh.attrs = append(nh.attrs, h.attrs...)
	for _, a := range attrs {
		nh.attrs = appendFlatAttr(nh.attrs, h.group, a)
	}
	return &nh
}

// WithGroup implements slog.Handler; groups flatten to dotted keys.
func (h *LogHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	nh := *h
	nh.group = h.group + name + "."
	return &nh
}

// Handle implements slog.Handler. The line is hand-formatted into the
// sink's reused buffer under its mutex, like span, so logs and spans
// serialise through the same path.
func (h *LogHandler) Handle(_ context.Context, r slog.Record) error {
	if h.sink == nil {
		return nil
	}
	attrs := make([]slog.Attr, 0, len(h.attrs)+r.NumAttrs())
	attrs = append(attrs, h.attrs...)
	r.Attrs(func(a slog.Attr) bool {
		attrs = appendFlatAttr(attrs, h.group, a)
		return true
	})
	// Stable sort: records with duplicate keys keep their emit order.
	sort.SliceStable(attrs, func(i, j int) bool { return attrs[i].Key < attrs[j].Key })
	b := h.sink.line()
	b = append(b, `{"t_us":`...)
	b = strconv.AppendInt(b, h.clock().Sub(h.epoch).Microseconds(), 10)
	b = append(b, `,"level":`...)
	b = strconv.AppendQuote(b, r.Level.String())
	b = append(b, `,"msg":`...)
	b = strconv.AppendQuote(b, r.Message)
	for _, a := range attrs {
		b = append(b, ',')
		b = strconv.AppendQuote(b, a.Key)
		b = append(b, ':')
		b = appendLogValue(b, a.Value)
	}
	b = append(b, '}', '\n')
	h.sink.commit(b)
	return nil
}

// span writes one span event, hand-formatted into the sink's reused
// buffer so it allocates nothing:
//
//	{"t_us":12345678,"level":"DEBUG","msg":"span","clip":"train-03","ns":84125,"stage":"thin","trace":"t000007"}
//
// t_us is the span start on the handler's epoch; keys after msg are
// sorted as in Handle. clip and trace are absent on unlabelled scopes.
func (h *LogHandler) span(clip, trace string, st Stage, start time.Time, ns int64) {
	b := h.sink.line()
	b = append(b, `{"t_us":`...)
	b = strconv.AppendInt(b, start.Sub(h.epoch).Microseconds(), 10)
	b = append(b, `,"level":"DEBUG","msg":"span"`...)
	if clip != "" {
		b = append(b, `,"clip":`...)
		b = strconv.AppendQuote(b, clip)
	}
	b = append(b, `,"ns":`...)
	b = strconv.AppendInt(b, ns, 10)
	b = append(b, `,"stage":"`...)
	b = append(b, st.String()...)
	b = append(b, '"')
	if trace != "" {
		b = append(b, `,"trace":`...)
		b = strconv.AppendQuote(b, trace)
	}
	b = append(b, '}', '\n')
	h.sink.commit(b)
}

// appendFlatAttr resolves a and appends it under prefix, expanding
// groups into dotted keys. Empty attrs are dropped, matching slog's
// conventions.
func appendFlatAttr(dst []slog.Attr, prefix string, a slog.Attr) []slog.Attr {
	a.Value = a.Value.Resolve()
	if a.Value.Kind() == slog.KindGroup {
		sub := a.Value.Group()
		if a.Key != "" {
			prefix = prefix + a.Key + "."
		}
		for _, g := range sub {
			dst = appendFlatAttr(dst, prefix, g)
		}
		return dst
	}
	if a.Key == "" {
		return dst
	}
	return append(dst, slog.Attr{Key: prefix + a.Key, Value: a.Value})
}

// appendLogValue renders one resolved slog.Value as JSON. Durations
// render as integer nanoseconds, times as RFC3339Nano in UTC,
// non-finite floats as quoted strings (JSON has no NaN).
func appendLogValue(b []byte, v slog.Value) []byte {
	switch v.Kind() {
	case slog.KindString:
		return strconv.AppendQuote(b, v.String())
	case slog.KindInt64:
		return strconv.AppendInt(b, v.Int64(), 10)
	case slog.KindUint64:
		return strconv.AppendUint(b, v.Uint64(), 10)
	case slog.KindFloat64:
		f := v.Float64()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return strconv.AppendQuote(b, strconv.FormatFloat(f, 'g', -1, 64))
		}
		return strconv.AppendFloat(b, f, 'g', -1, 64)
	case slog.KindBool:
		return strconv.AppendBool(b, v.Bool())
	case slog.KindDuration:
		return strconv.AppendInt(b, v.Duration().Nanoseconds(), 10)
	case slog.KindTime:
		return strconv.AppendQuote(b, v.Time().UTC().Format(time.RFC3339Nano))
	default:
		return strconv.AppendQuote(b, fmt.Sprint(v.Any()))
	}
}

// ParseLogLevel maps a -log-level flag value to a slog.Level.
func ParseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}
