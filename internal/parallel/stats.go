package parallel

import (
	"sync/atomic"

	"repro/internal/obs"
)

// stats is the package-wide instrument block. MapOrdered/MapSource are
// free generic functions, so there is no receiver to hang a scope on;
// instead the engine installs its scope's block once at construction.
// A nil pointer (the default) keeps every hot loop on the exact
// pre-instrumentation code path. This is the one sanctioned piece of
// package-level mutable state in the concurrency substrate (like the
// imaging pool counters): a single atomic pointer, last installer wins.
var stats atomic.Pointer[obs.ParallelStats]

// SetStats installs (or, with nil, removes) the worker instrument
// block. Not intended to be raced with in-flight MapOrdered/MapSource
// calls — workers snapshot the pointer when they start.
func SetStats(st *obs.ParallelStats) { stats.Store(st) }
