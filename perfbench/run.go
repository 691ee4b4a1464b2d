package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// run generates the workload's corpus under cfg.work and runs the
// workload. The corpus directory is named by geometry and split sizes, so
// a later run of the same shape rewrites the same files in place (see
// saveClip) instead of deleting them.
func run(w workload, cfg config, out io.Writer) (result, error) {
	if cfg.trainClips == 0 {
		cfg.trainClips = defaultTrainClips
	}
	if cfg.evalClips == 0 {
		cfg.evalClips = w.evalClips
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return result{}, err
	}
	root := filepath.Join(cfg.work, fmt.Sprintf("corpus-%dx%d-%d-%d", w.width, w.height, cfg.trainClips, cfg.evalClips))
	c, err := generate(w, cfg.seed, root, cfg.trainClips, cfg.evalClips, cfg.workers)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "%s seed %d: corpus digest %s (%d train + %d eval clips, %dx%d)\n",
		w.name, cfg.seed, c.digest, cfg.trainClips, cfg.evalClips, w.width, w.height)
	switch {
	case cfg.trace:
		return traceRun(w, cfg, c, out)
	case w.serve:
		return serveRun(w, cfg, c, out)
	default:
		return batchRun(cfg, c, out)
	}
}
