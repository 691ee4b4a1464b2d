package nondet

import (
	"testing"

	"repro/internal/analysis/atest"
)

func TestNondet(t *testing.T) {
	atest.RunPackages(t, "testdata", []string{"pipe/dbn", "pipe/viz"}, Analyzer)
}

func TestInPipeline(t *testing.T) {
	cases := map[string]bool{
		"repro/internal/dbn":       true,
		"repro/internal/extract":   true,
		"repro/internal/dataset":   true,
		"pipe/dbn":                 true,
		"repro/internal/obs":       false,
		"repro/internal/extractor": false, // segment match, not substring
		"repro/cmd/sljtop":         false,
	}
	for path, want := range cases {
		if got := InPipeline(path); got != want {
			t.Errorf("InPipeline(%q) = %v, want %v", path, got, want)
		}
	}
}
