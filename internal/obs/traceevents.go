package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// spanRecord holds the span fields of one event-log line.
type spanRecord struct {
	TUS   int64  `json:"t_us"`
	Clip  string `json:"clip"`
	Trace string `json:"trace"`
	Stage string `json:"stage"`
	NS    int64  `json:"ns"`
}

// WriteTraceEvents converts the span events of a JSONL event log (the
// -log output at -log-level debug) into Chrome trace-event JSON that
// opens directly in Perfetto or chrome://tracing: each line with a
// "stage" becomes a complete ("ph":"X") event, and each distinct clip
// becomes its own named thread row so overlapping clip pipelines render
// as parallel tracks. Other log lines are skipped. Events stream
// through — memory is bounded by the clip-name table, not the log
// length. A malformed line aborts with an error naming its line number.
func WriteTraceEvents(r io.Reader, w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return fmt.Errorf("obs: writing trace events: %w", err)
	}
	tids := map[string]int{}
	first := true
	emit := func(data []byte) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		_, err := bw.Write(data)
		return err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec spanRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("obs: span line %d: %w", lineNo, err)
		}
		if rec.Stage == "" {
			continue // a log event, not a span
		}
		tid, ok := tids[rec.Clip]
		if !ok {
			tid = len(tids) + 1
			tids[rec.Clip] = tid
			name := rec.Clip
			if name == "" {
				name = "(unlabelled)"
			}
			meta, err := json.Marshal(map[string]any{
				"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
				"args": map[string]string{"name": name},
			})
			if err != nil {
				return fmt.Errorf("obs: span line %d: %w", lineNo, err)
			}
			if err := emit(meta); err != nil {
				return fmt.Errorf("obs: writing trace events: %w", err)
			}
		}
		// Hand-build the event: field order stays stable and the hot loop
		// avoids a map allocation per span.
		buf := make([]byte, 0, 128)
		buf = append(buf, `{"name":`...)
		buf = strconv.AppendQuote(buf, rec.Stage)
		buf = append(buf, `,"cat":"stage","ph":"X","ts":`...)
		buf = strconv.AppendInt(buf, rec.TUS, 10)
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendFloat(buf, float64(rec.NS)/1e3, 'f', 3, 64)
		buf = append(buf, `,"pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, int64(tid), 10)
		if rec.Trace != "" {
			buf = append(buf, `,"args":{"trace":`...)
			buf = strconv.AppendQuote(buf, rec.Trace)
			buf = append(buf, '}')
		}
		buf = append(buf, '}')
		if err := emit(buf); err != nil {
			return fmt.Errorf("obs: writing trace events: %w", err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: reading spans: %w", err)
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return fmt.Errorf("obs: writing trace events: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("obs: writing trace events: %w", err)
	}
	return nil
}
