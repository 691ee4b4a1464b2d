package serve

import "repro/internal/obs"

// Stack and StackConfig are the observability bundle, obs.Stack, under
// the serving layer's names.
type (
	Stack       = obs.Stack
	StackConfig = obs.StackConfig
)

// NewStack builds and starts the bundle; see obs.NewStack.
func NewStack(cfg StackConfig) (*Stack, error) { return obs.NewStack(cfg) }
