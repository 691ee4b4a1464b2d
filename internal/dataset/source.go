// Streaming corpus access: a ClipSource iterator over labelled clips,
// with a materialised implementation for in-memory slices and a lazy
// directory walker (DirSource + ClipReader) that decodes a clip's
// header when the clip is pulled and its frames only when they are
// read, so the peak decoded footprint is bounded by the consumers in
// flight rather than the corpus size.
package dataset

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/imaging"
	"repro/internal/obs"
	"repro/internal/synth"
)

// ClipSource yields labelled clips one at a time, in a stable order.
// Next returns io.EOF after the last clip. Sources are driven from one
// goroutine at a time (the parallel engine serialises its pulls); they
// are not safe for concurrent Next calls. Callers own Close.
type ClipSource interface {
	Next() (LabeledClip, error)
	io.Closer
}

// MaterializedSource adapts an in-memory []LabeledClip to ClipSource,
// so slice-based callers and streaming callers share one engine path.
type MaterializedSource struct {
	clips []LabeledClip
	pos   int
	scope *obs.Scope
}

// Materialized wraps already-loaded clips in a source. The slice is not
// copied; it must not be mutated while the source is in use.
func Materialized(clips []LabeledClip) *MaterializedSource {
	return &MaterializedSource{clips: clips}
}

// SetScope attaches instrumentation (dataset.clips_streamed); nil is
// valid and disables it.
func (s *MaterializedSource) SetScope(sc *obs.Scope) { s.scope = sc }

// Len returns the total number of clips the source yields.
func (s *MaterializedSource) Len() int { return len(s.clips) }

// Next returns the next clip, or io.EOF when the slice is exhausted.
func (s *MaterializedSource) Next() (LabeledClip, error) {
	if s.pos >= len(s.clips) {
		return LabeledClip{}, io.EOF
	}
	lc := s.clips[s.pos]
	s.pos++
	s.scope.ClipStreamed()
	return lc, nil
}

// Close implements io.Closer; a materialised source holds no resources.
func (s *MaterializedSource) Close() error { return nil }

// DirSource streams a split directory written by Save: every child
// directory is one clip, yielded in sorted name order (the order Load
// materialises them in). Each Next decodes only the clip header —
// labels.txt and background.ppm — and returns a LabeledClip whose
// frames decode lazily through its Reader, so corpora larger than RAM
// stream through a bounded number of in-flight clips.
type DirSource struct {
	dirs  []string
	pos   int
	scope *obs.Scope
}

// OpenDir opens a streaming source over one split directory. A missing
// directory yields an empty source (an evaluation-only corpus has no
// train split), matching Load's treatment of absent splits.
func OpenDir(dir string) (*DirSource, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return &DirSource{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	s := &DirSource{}
	for _, e := range entries {
		if e.IsDir() {
			s.dirs = append(s.dirs, filepath.Join(dir, e.Name()))
		}
	}
	return s, nil
}

// OpenSplits opens streaming sources over root/train and root/test (the
// layout Save writes). Missing split directories yield empty sources;
// like Load, a corpus with no clips in either split is an error.
func OpenSplits(root string) (train, test *DirSource, err error) {
	if train, err = OpenDir(filepath.Join(root, "train")); err != nil {
		return nil, nil, err
	}
	if test, err = OpenDir(filepath.Join(root, "test")); err != nil {
		return nil, nil, err
	}
	if train.Len() == 0 && test.Len() == 0 {
		return nil, nil, fmt.Errorf("%w: empty dataset at %s", ErrCorrupt, root)
	}
	return train, test, nil
}

// SetScope attaches instrumentation (dataset.clips_streamed,
// dataset.decode_ns); nil is valid and disables it.
func (s *DirSource) SetScope(sc *obs.Scope) { s.scope = sc }

// Len returns the total number of clips the source yields.
func (s *DirSource) Len() int { return len(s.dirs) }

// Next opens the next clip directory. The returned clip carries its
// background and per-frame labels; pixel data decodes on demand via the
// clip's Reader.
func (s *DirSource) Next() (LabeledClip, error) {
	if s.pos >= len(s.dirs) {
		return LabeledClip{}, io.EOF
	}
	dir := s.dirs[s.pos]
	s.pos++
	r, err := OpenClip(dir)
	if err != nil {
		return LabeledClip{}, err
	}
	r.SetScope(s.scope)
	s.scope.ClipStreamed()
	return r.Labeled(), nil
}

// Close releases the source; further Next calls return io.EOF.
func (s *DirSource) Close() error {
	s.pos = len(s.dirs)
	return nil
}

// SkipCorrupt wraps src so clips whose header fails to decode are
// classified (errors.decode), journaled with a trace ID, and skipped
// instead of aborting the run — the resilient-ingest mode for
// unattended sweeps over large corpora. Errors other than ErrCorrupt
// still propagate: a permission problem or a bug must not be silently
// eaten. The scope may be nil (recording is then disabled); the engine
// re-attaches its own scope through SetScope.
func SkipCorrupt(src ClipSource, sc *obs.Scope) ClipSource {
	return &resilientSource{src: src, scope: sc}
}

type resilientSource struct {
	src     ClipSource
	scope   *obs.Scope
	skipped int
}

// Next pulls from the wrapped source, skipping corrupt clips.
func (r *resilientSource) Next() (LabeledClip, error) {
	for {
		lc, err := r.src.Next()
		if err == nil || errors.Is(err, io.EOF) {
			return lc, err
		}
		if !errors.Is(err, ErrCorrupt) {
			return lc, err
		}
		r.scope.RecordError(obs.ErrClassDecode, err)
		r.skipped++
	}
}

// Skipped reports how many corrupt clips were dropped so far.
func (r *resilientSource) Skipped() int { return r.skipped }

// SetScope attaches instrumentation to the wrapper and the wrapped
// source (the engine calls this on whatever source it is handed).
func (r *resilientSource) SetScope(sc *obs.Scope) {
	r.scope = sc
	if s, ok := r.src.(interface{ SetScope(*obs.Scope) }); ok {
		s.SetScope(sc)
	}
}

// Close closes the wrapped source.
func (r *resilientSource) Close() error { return r.src.Close() }

// ClipReader provides lazy access to one clip saved by SaveClip: the
// header (labels.txt, background.ppm) is decoded by OpenClip, each
// frame's image and silhouette by ReadFrame. A reader holds no open
// file handles between calls, so any number may be in flight.
type ClipReader struct {
	dir    string
	name   string
	bg     *imaging.RGB
	labels []frameLabel
	scope  *obs.Scope
}

// OpenClip decodes a clip directory's header: the background frame and
// the label file, which also fixes the frame count. Frame pixel data is
// not touched.
func OpenClip(dir string) (*ClipReader, error) {
	r := &ClipReader{dir: dir, name: filepath.Base(dir)}
	t0 := time.Now() //slj:nondet-ok decode-latency metric, never encoded in artifacts
	bgf, err := os.Open(filepath.Join(dir, "background.ppm"))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, r.name, err)
	}
	bg, err := imaging.DecodePPM(bgf)
	bgf.Close()
	if err != nil {
		return nil, fmt.Errorf("%w: %s: background: %v", ErrCorrupt, r.name, err)
	}
	r.bg = bg
	labels, err := readLabels(dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, r.name, err)
	}
	r.labels = labels
	r.scope.DecodeTime(time.Since(t0)) //slj:nondet-ok decode-latency metric, never encoded in artifacts
	return r, nil
}

// SetScope attaches instrumentation (dataset.decode_ns); nil disables.
func (r *ClipReader) SetScope(sc *obs.Scope) {
	if r != nil {
		r.scope = sc
	}
}

// Name returns the clip name (the directory base name).
func (r *ClipReader) Name() string { return r.name }

// NumFrames returns the clip length (from the label file).
func (r *ClipReader) NumFrames() int { return len(r.labels) }

// Background returns the decoded clean backdrop frame.
func (r *ClipReader) Background() *imaging.RGB { return r.bg }

// ReadImage decodes frame i's RGB image only, into dst (its pixel
// buffer is reused when large enough), leaving its ground-truth
// silhouette on disk: the extraction path computes its own silhouette,
// so it has no use for the saved one, and needs the image only until it
// has extracted it. Any open or decode failure is ErrCorrupt.
func (r *ClipReader) ReadImage(i int, dst *imaging.RGB) (*imaging.RGB, error) {
	t0 := time.Now() //slj:nondet-ok decode-latency metric, never encoded in artifacts
	img, err := r.readImage(i, dst)
	if err != nil {
		return nil, err
	}
	r.scope.DecodeTime(time.Since(t0)) //slj:nondet-ok decode-latency metric, never encoded in artifacts
	return img, nil
}

// readImage is ReadImage without the decode timing.
func (r *ClipReader) readImage(i int, dst *imaging.RGB) (*imaging.RGB, error) {
	if i < 0 || i >= len(r.labels) {
		return nil, fmt.Errorf("%w: %s: frame %d out of range [0,%d)", ErrCorrupt, r.name, i, len(r.labels))
	}
	ff, err := os.Open(filepath.Join(r.dir, fmt.Sprintf("frame-%03d.ppm", i)))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, r.name, err)
	}
	img, err := imaging.DecodePPMInto(dst, ff)
	ff.Close()
	if err != nil {
		return nil, fmt.Errorf("%w: %s: frame %d: %v", ErrCorrupt, r.name, i, err)
	}
	return img, nil
}

// ReadFrame decodes frame i: its RGB image (as ReadImage) and its
// ground-truth silhouette. A missing silhouette file is tolerated —
// silhouettes are optional ground truth — but any other open or decode
// failure is ErrCorrupt: a permission error or torn write must not
// silently downgrade a ground-truth clip.
func (r *ClipReader) ReadFrame(i int) (synth.Frame, error) {
	t0 := time.Now() //slj:nondet-ok decode-latency metric, never encoded in artifacts
	img, err := r.readImage(i, &imaging.RGB{})
	if err != nil {
		return synth.Frame{}, err
	}
	var sil *imaging.Binary
	sf, err := os.Open(filepath.Join(r.dir, fmt.Sprintf("silhouette-%03d.pbm", i)))
	switch {
	case err == nil:
		sil, err = imaging.DecodePBM(sf)
		sf.Close()
		if err != nil {
			return synth.Frame{}, fmt.Errorf("%w: %s: silhouette %d: %v", ErrCorrupt, r.name, i, err)
		}
	case errors.Is(err, fs.ErrNotExist):
		// No silhouette saved for this frame; leave it nil.
	default:
		return synth.Frame{}, fmt.Errorf("%w: %s: silhouette %d: %v", ErrCorrupt, r.name, i, err)
	}
	label := r.labels[i]
	r.scope.DecodeTime(time.Since(t0)) //slj:nondet-ok decode-latency metric, never encoded in artifacts
	return synth.Frame{
		Image:      img,
		Silhouette: sil,
		Label:      label.Pose,
		Stage:      label.Stage,
	}, nil
}

// Labeled returns the clip in LabeledClip form with lazy frames: the
// Frames slice carries every label and stage (so Labels, TotalFrames
// and evaluation truth work unchanged) but no pixel data — consumers
// needing pixels go through Reader.ReadFrame.
func (r *ClipReader) Labeled() LabeledClip {
	frames := make([]synth.Frame, len(r.labels))
	for i, l := range r.labels {
		frames[i] = synth.Frame{Label: l.Pose, Stage: l.Stage}
	}
	return LabeledClip{
		Name:   r.name,
		Clip:   &synth.Clip{Background: r.bg, Frames: frames},
		Reader: r,
	}
}

// Materialize decodes every frame eagerly, producing the same clip
// LoadClip returns.
func (r *ClipReader) Materialize() (LabeledClip, error) {
	lc := LabeledClip{Name: r.name, Clip: &synth.Clip{Background: r.bg}}
	lc.Clip.Frames = make([]synth.Frame, len(r.labels))
	for i := range r.labels {
		fr, err := r.ReadFrame(i)
		if err != nil {
			return LabeledClip{}, err
		}
		lc.Clip.Frames[i] = fr
	}
	if len(lc.Clip.Frames) == 0 {
		return LabeledClip{}, fmt.Errorf("%w: no frames", ErrCorrupt)
	}
	return lc, nil
}
