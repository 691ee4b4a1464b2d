package imaging_test

import (
	"testing"

	"repro/internal/extract"
	"repro/internal/imaging"
	"repro/internal/synth"
)

// TestFiltersMatchOracleOnClip checks the box average and the median on
// every frame of a generated paper-size clip: the average of each frame
// and the median of each raw silhouette the extractor produces from it.
func TestFiltersMatchOracleOnClip(t *testing.T) {
	clip, err := synth.Generate(synth.DefaultSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := extract.NewExtractor()
	if err != nil {
		t.Fatal(err)
	}
	ex.SetBackground(clip.Background)
	var sc imaging.FilterScratch
	var avg *imaging.RGB
	med := &imaging.Binary{}
	for i, fr := range clip.Frames {
		avg = imaging.BoxAverageRGBInto(avg, fr.Image, extract.DefaultWindow, &sc)
		if string(avg.Pix) != string(imaging.BoxAverageRGBRef(fr.Image, extract.DefaultWindow).Pix) {
			t.Fatalf("frame %d: box average differs from the summed-area oracle", i)
		}
		raw, err := ex.ExtractRaw(fr.Image)
		if err != nil {
			t.Fatal(err)
		}
		med = imaging.MedianFilterBinaryInto(med, raw, extract.DefaultMedianKernel, &sc)
		if !med.Equal(imaging.MedianFilterBinaryRef(raw, extract.DefaultMedianKernel)) {
			t.Fatalf("frame %d: median differs from the per-window oracle", i)
		}
	}
}
