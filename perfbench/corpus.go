package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"

	"repro/internal/dataset"
	"repro/internal/imaging"
	"repro/internal/parallel"
	"repro/internal/pose"
	"repro/internal/synth"
)

// defaultTrainClips is the training split size, the paper's 12 clips.
const defaultTrainClips = 12

// faultEvery injects a fault pose into every fourth clip of each split, as
// dataset.DefaultGenOptions does for training, so the scoring rules have
// real faults to report and the DBN sees the deviant poses.
const faultEvery = 4

var faultCycle = []pose.Pose{pose.AirArch, pose.LandFallBack, pose.LandStepForward}

// corpus is one workload's generated clips on disk. The timed phases read
// nothing else.
type corpus struct {
	root  string // holds train/ and eval/
	train string
	eval  string
	// names are the eval clip names, in the sorted order dataset.OpenDir
	// yields them.
	names []string
	// digest is a SHA-256 prefix over every generated file.
	digest string
}

// clipSpec returns the synth spec of clip k of a split. The seed selects a
// disjoint block of clip seeds, with the eval clips in its upper half.
func clipSpec(w workload, seed int64, k int, eval bool) synth.Spec {
	s := seed<<20 + int64(k)
	if eval {
		s += 1 << 19
	}
	spec := synth.DefaultSpec(s)
	spec.Width, spec.Height = w.width, w.height
	// Body height varies ±10% over a fixed five-clip cycle, as in
	// dataset.Generate, so every seed has the same size mix and the work
	// per pass does not drift with the seed.
	spec.BodyPx *= w.scale * (0.9 + 0.2*float64(k%5)/4)
	spec.JumpSpan *= w.scale
	spec.AirRise *= w.scale
	if k%faultEvery == faultEvery-1 {
		spec.Script = synth.FaultyScript(faultCycle[(k/faultEvery)%len(faultCycle)])
	}
	return spec
}

// generate renders and saves the train and eval splits under root.
func generate(w workload, seed int64, root string, nTrain, nEval, workers int) (*corpus, error) {
	c := &corpus{root: root, train: filepath.Join(root, "train"), eval: filepath.Join(root, "eval")}
	type job struct {
		dir  string
		k    int
		eval bool
	}
	var jobs []job
	for k := 0; k < nTrain; k++ {
		jobs = append(jobs, job{filepath.Join(c.train, fmt.Sprintf("train-%03d", k)), k, false})
	}
	for k := 0; k < nEval; k++ {
		name := fmt.Sprintf("eval-%03d", k)
		c.names = append(c.names, name)
		jobs = append(jobs, job{filepath.Join(c.eval, name), k, true})
	}
	err := parallel.ForEach(workers, jobs, func(_ int, j job) error {
		clip, err := synth.Generate(clipSpec(w, seed, j.k, j.eval))
		if err != nil {
			return err
		}
		return saveClip(j.dir, dataset.LabeledClip{Name: filepath.Base(j.dir), Clip: clip})
	})
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	// Write the corpus back now, so the kernel's writeback of a few
	// hundred megabytes does not compete with the timed phase for CPU.
	syscall.Sync()
	if c.digest, err = digestDir(root); err != nil {
		return nil, err
	}
	return c, nil
}

// saveClip writes a clip in dataset.SaveClip's layout, byte for byte (the
// tests pin this), but rewrites existing files in place instead of
// truncating or deleting them: on a file system mounted with online
// discard, freeing the blocks of a few hundred megabytes of frames takes
// a minute, while rewriting a corpus of the same geometry frees nothing.
func saveClip(dir string, lc dataset.LabeledClip) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ppm := func(m *imaging.RGB) func(io.Writer) error {
		return func(w io.Writer) error { return imaging.EncodePPM(w, m) }
	}
	if err := rewrite(filepath.Join(dir, "background.ppm"), ppm(lc.Clip.Background)); err != nil {
		return err
	}
	var labels bytes.Buffer
	for i, fr := range lc.Clip.Frames {
		if err := rewrite(filepath.Join(dir, fmt.Sprintf("frame-%03d.ppm", i)), ppm(fr.Image)); err != nil {
			return err
		}
		sil := fr.Silhouette
		err := rewrite(filepath.Join(dir, fmt.Sprintf("silhouette-%03d.pbm", i)), func(w io.Writer) error {
			return imaging.EncodePBM(w, sil)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(&labels, "%d\t%s\n", i, fr.Label)
	}
	return rewrite(filepath.Join(dir, "labels.txt"), func(w io.Writer) error {
		_, err := w.Write(labels.Bytes())
		return err
	})
}

// rewrite overwrites path with what write produces, then cuts off any
// tail left from a longer previous content.
func rewrite(path string, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	cw := &countingWriter{w: f}
	err = write(cw)
	if err == nil {
		err = f.Truncate(cw.n)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// digestDir hashes every regular file under root — its relative path, then
// its bytes — in lexical walk order.
func digestDir(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("hashing corpus: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
