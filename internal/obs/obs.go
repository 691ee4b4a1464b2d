// Package obs is the pipeline's stdlib-only observability layer: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms) with a JSON snapshot and Prometheus exposition, per-stage
// spans that feed latency histograms and, at debug log level, one
// JSONL event each on the structured log, an error journal, a sampler
// with SLO health on top, and one end-of-run report. Stack bootstraps
// all of it; CLI wraps a Stack in the batch binaries' flags.
//
// Every instrument is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram or *Scope are no-ops, and the disabled path allocates
// nothing. Pipeline code therefore threads a single *Scope pointer
// unconditionally and pays only a nil check when observability is off,
// preserving the engine's bit-identical outputs and the per-frame
// allocation budget (DESIGN.md §9).
package obs

import "sync/atomic"

// Counter is a monotonically increasing atomic counter.
// The zero value is ready to use; a nil *Counter discards updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depth, pool free slots).
// The zero value is ready to use; a nil *Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (use negative deltas to decrement).
// No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max raises the gauge to v if v is greater than the current value
// (a monotonic high-water mark). No-op on a nil receiver.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}
