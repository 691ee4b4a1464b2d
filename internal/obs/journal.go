// The error journal: a bounded in-memory flight recorder of classified
// pipeline failures. Each record carries the trace ID minted at engine
// dispatch, so a journal entry, the clip's spans, and its log lines
// correlate by one ID. Counts are pushed into the registry's errors.*
// counter family; the journal itself keeps only a recent-entries ring
// plus a tiny per-class exemplar ring, so memory stays bounded no
// matter how long a run fails for.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// journalExemplars is the per-class exemplar ring capacity.
const journalExemplars = 4

// JournalSchema versions the /debug/errors JSON layout.
const JournalSchema = 1

// JournalEntry is one recorded failure. Frame is -1 when the failure
// is not attributable to a single frame (clip-level decode errors,
// skeleton failures observed without a frame index).
type JournalEntry struct {
	Seq   int64    `json:"seq"`
	TUS   int64    `json:"t_us"`
	Trace string   `json:"trace,omitempty"`
	Clip  string   `json:"clip,omitempty"`
	Frame int      `json:"frame"`
	Class ErrClass `json:"class"`
	Msg   string   `json:"msg"`
}

// Journal is the bounded error recorder. All methods are nil-safe and
// Record is allocation-free (entries land in preallocated rings), so
// attaching a journal does not disturb the zero-alloc hot path.
type Journal struct {
	counts [NumErrClasses]*Counter
	total  *Counter

	mu     sync.Mutex
	clock  func() time.Time
	epoch  time.Time
	seq    int64
	recent []JournalEntry // ring, preallocated to capacity
	head   int
	n      int
	ex     [NumErrClasses][journalExemplars]JournalEntry
	exHead [NumErrClasses]int
	exN    [NumErrClasses]int
}

// NewJournal builds a journal over reg with a recent-entries ring of
// the given capacity (minimum 16). Per-class counters register under
// the errors.* family. A nil registry yields a nil journal.
func NewJournal(reg *Registry, capacity int) *Journal {
	if reg == nil {
		return nil
	}
	if capacity < 16 {
		capacity = 16
	}
	j := &Journal{
		clock:  time.Now,
		recent: make([]JournalEntry, capacity),
		total:  reg.Counter("errors.total"),
	}
	j.epoch = j.clock()
	// Literal registrations so the metricnames analyzer polices the
	// errors.* family like every other metric.
	j.counts[ErrClassDecode] = reg.Counter("errors.decode")
	j.counts[ErrClassDegenerateSkeleton] = reg.Counter("errors.degenerate_skeleton")
	j.counts[ErrClassNoTorso] = reg.Counter("errors.no_torso")
	j.counts[ErrClassKeypointMiss] = reg.Counter("errors.keypoint_miss")
	j.counts[ErrClassDBNUnknown] = reg.Counter("errors.dbn_unknown")
	j.counts[ErrClassPool] = reg.Counter("errors.pool")
	j.counts[ErrClassIO] = reg.Counter("errors.io")
	return j
}

// SetClock injects a timestamp source (tests); nil restores time.Now.
// Must be called before the journal is shared across goroutines.
func (j *Journal) SetClock(clock func() time.Time) {
	if j == nil {
		return
	}
	if clock == nil {
		clock = time.Now
	}
	j.clock = clock
	j.epoch = clock()
}

// Record journals one classified failure. Out-of-range classes
// (including ErrClassNone) are dropped. Safe for concurrent use; safe
// and free on a nil journal.
func (j *Journal) Record(class ErrClass, trace, clip string, frame int, msg string) {
	if j == nil || class <= ErrClassNone || class >= NumErrClasses {
		return
	}
	j.counts[class].Inc()
	j.total.Inc()
	j.mu.Lock()
	j.seq++
	e := JournalEntry{
		Seq:   j.seq,
		TUS:   j.clock().Sub(j.epoch).Microseconds(),
		Trace: trace,
		Clip:  clip,
		Frame: frame,
		Class: class,
		Msg:   msg,
	}
	j.recent[j.head] = e
	j.head = (j.head + 1) % len(j.recent)
	if j.n < len(j.recent) {
		j.n++
	}
	j.ex[class][j.exHead[class]] = e
	j.exHead[class] = (j.exHead[class] + 1) % journalExemplars
	if j.exN[class] < journalExemplars {
		j.exN[class]++
	}
	j.mu.Unlock()
}

// Count returns the number of records in class (0 on nil).
func (j *Journal) Count(class ErrClass) int64 {
	if j == nil || class <= ErrClassNone || class >= NumErrClasses {
		return 0
	}
	return j.counts[class].Value()
}

// Total returns the number of records across all classes (0 on nil).
func (j *Journal) Total() int64 {
	if j == nil {
		return 0
	}
	return j.total.Value()
}

// LastTrace returns the trace ID of the newest exemplar in class, or
// "" when the class has no records. Health reasons use it to point at
// a concrete failing clip.
func (j *Journal) LastTrace(class ErrClass) string {
	if j == nil || class <= ErrClassNone || class >= NumErrClasses {
		return ""
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.exN[class] == 0 {
		return ""
	}
	last := (j.exHead[class] - 1 + journalExemplars) % journalExemplars
	return j.ex[class][last].Trace
}

// JournalClass summarises one error class in a snapshot: its lifetime
// count and the last few exemplar entries, oldest first.
type JournalClass struct {
	Class     ErrClass       `json:"class"`
	Count     int64          `json:"count"`
	Exemplars []JournalEntry `json:"exemplars"`
}

// JournalSnapshot is the /debug/errors view: per-class counts with
// exemplars (classes in taxonomy order, zero-count classes omitted)
// and the most recent entries overall, oldest first.
type JournalSnapshot struct {
	Schema  int            `json:"schema"`
	Total   int64          `json:"total"`
	Classes []JournalClass `json:"classes"`
	Recent  []JournalEntry `json:"recent"`
}

// Snapshot captures a deterministic view of the journal. Safe on nil
// (zero snapshot with the schema set).
func (j *Journal) Snapshot() JournalSnapshot {
	snap := JournalSnapshot{Schema: JournalSchema}
	if j == nil {
		return snap
	}
	snap.Total = j.total.Value()
	j.mu.Lock()
	defer j.mu.Unlock()
	for c := ErrClassNone + 1; c < NumErrClasses; c++ {
		count := j.counts[c].Value()
		if count == 0 {
			continue
		}
		jc := JournalClass{Class: c, Count: count}
		start := j.exHead[c] - j.exN[c]
		if start < 0 {
			start += journalExemplars
		}
		for i := 0; i < j.exN[c]; i++ {
			jc.Exemplars = append(jc.Exemplars, j.ex[c][(start+i)%journalExemplars])
		}
		snap.Classes = append(snap.Classes, jc)
	}
	start := j.head - j.n
	if start < 0 {
		start += len(j.recent)
	}
	for i := 0; i < j.n; i++ {
		snap.Recent = append(snap.Recent, j.recent[(start+i)%len(j.recent)])
	}
	return snap
}

// WriteJSON writes the current snapshot as indented JSON (the
// /debug/errors payload).
func (j *Journal) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(j.Snapshot()); err != nil {
		return fmt.Errorf("obs: encoding error journal: %w", err)
	}
	return nil
}
