// Package dbn is a nondet fixture: its import path carries a "dbn"
// segment, so every nondeterminism source below must be flagged unless
// annotated.
package dbn

import (
	"math/rand"
	"os"
	"time"
)

func Infer(seed int64) float64 {
	t := time.Now()                    // want "time.Now \\(wall-clock read\\)"
	_ = time.Since(t)                  // want "time.Since \\(wall-clock read\\)"
	_ = rand.Float64()                 // want "rand.Float64 \\(global rand source\\)"
	rand.Shuffle(3, func(i, j int) {}) // want "rand.Shuffle \\(global rand source\\)"
	_ = os.Getenv("SLJ_MODE")          // want "os.Getenv \\(environment read\\)"

	// A locally constructed, explicitly seeded source is deterministic.
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// Annotated uses are accepted with a reason.
func Trace() int64 {
	//slj:nondet-ok progress timestamp, never encoded
	return time.Now().UnixNano()
}

// Suppression also covers the same line.
func TraceInline() string {
	return os.Getenv("SLJ_TRACE") //slj:nondet-ok debug toggle, not part of the artifact
}
