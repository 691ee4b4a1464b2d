// Golden tests for the per-worker frame arena: the arena-backed hot
// path must reproduce, at every worker count, the outputs of the
// allocate-per-frame pipeline the arena replaced, and the steady-state
// per-frame cost must stay at zero heap allocations.
package slj

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// arenaVariants are the front-end configurations whose outputs are pinned
// by the golden digests below.
var arenaVariants = []struct {
	name string
	opts []Option
}{
	{"default", nil},
	{"ground-truth", []Option{WithGroundTruthSilhouettes(true)}},
	{"auto-orient", []Option{WithAutoOrient(true)}},
}

// arenaGolden holds SHA-256 digests of each variant's outputs as the
// pre-arena allocate-per-frame pipeline produced them (and the arena
// path reproduced them bit for bit at workers {1, 2, 8}) before that
// pipeline was retired: the model trained on smallDataset(71), and the
// Evaluate summary and confusion and the ClassifyAll results on
// smallDataset(72)'s test clips under a model trained on its training
// clips. A change meant to move the pipeline's results regenerates them
// and says why, as with PAPER_DIGEST.txt.
var arenaGolden = map[string]struct{ model, eval, classify string }{
	"default": {
		model:    "abac9f2bf049a010163e1f1766fc6a4075d641be89d21d97efb2762621074134",
		eval:     "40d01785f52675c444854ffe6174de83ae84dbb7a92340c688b8aee00f81b703",
		classify: "0ad850c8b9772062980543684dd123fad6b265dd72edddc8fb9fbf822c5f9cb5",
	},
	"ground-truth": {
		model:    "9ec55d9924960b0a7c03bb8530f5744ca2ea70a2b980287b57eec97a305f2a8a",
		eval:     "1dcf65025e54436d9ce837dab7c656ba19eeaa8a9484d2e318b96dc78cd97534",
		classify: "c42fabcc4f0b46dfa16c311f4d735b73ad2f55e8d93cddadb70074235698aba3",
	},
	// Every clip of these datasets jumps left to right, so auto-orient
	// flips nothing and reproduces the default digests.
	"auto-orient": {
		model:    "abac9f2bf049a010163e1f1766fc6a4075d641be89d21d97efb2762621074134",
		eval:     "40d01785f52675c444854ffe6174de83ae84dbb7a92340c688b8aee00f81b703",
		classify: "0ad850c8b9772062980543684dd123fad6b265dd72edddc8fb9fbf822c5f9cb5",
	},
}

// goldenDigest hashes v: a []byte as is, anything else through its %#v
// form, which prints floats exactly, maps in key order and nil slices
// apart from empty ones. Pointers nested inside v would print as
// addresses, so callers dereference them first.
func goldenDigest(v any) string {
	b, ok := v.([]byte)
	if !ok {
		b = []byte(fmt.Sprintf("%#v", v))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestArenaTrainMatchesPreArena pins the trained model bytes to the
// pre-arena pipeline's golden digest.
func TestArenaTrainMatchesPreArena(t *testing.T) {
	ds := smallDataset(t, 71)
	for _, v := range arenaVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			_, model := trainGolden(t, ds, v.opts...)
			if got := goldenDigest(model); got != arenaGolden[v.name].model {
				t.Errorf("model digest %s, want the pre-arena %s", got, arenaGolden[v.name].model)
			}
		})
	}
}

// TestArenaMatchesPreArena runs Evaluate and ClassifyAll at workers
// {1, 2, 8} and pins every result to the pre-arena pipeline's golden
// digests.
func TestArenaMatchesPreArena(t *testing.T) {
	ds := smallDataset(t, 72)
	for _, v := range arenaVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			want := arenaGolden[v.name]
			_, model := trainGolden(t, ds, v.opts...)
			for _, workers := range []int{1, 2, 8} {
				eng, err := NewEngine(workers, v.opts...)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.LoadModel(bytes.NewReader(model)); err != nil {
					t.Fatal(err)
				}
				sum, conf, err := eng.Evaluate(ds.Test)
				if err != nil {
					t.Fatal(err)
				}
				if got := goldenDigest([]any{sum, *conf}); got != want.eval {
					t.Errorf("workers=%d: Evaluate digest %s, want the pre-arena %s", workers, got, want.eval)
				}
				res, err := eng.ClassifyAll(ds.Test)
				if err != nil {
					t.Fatal(err)
				}
				if got := goldenDigest(res); got != want.classify {
					t.Errorf("workers=%d: ClassifyAll digest %s, want the pre-arena %s", workers, got, want.classify)
				}
			}
		})
	}
}

// TestFrameAnalysisAllocs pins the zero-allocation per-frame hot path:
// once the arena and the imaging pool are warm, the whole front end
// (extraction → thinning → graph → key points → encoding) must run
// without heap allocation. The issue budget allows 8 allocs/op of slack
// for toolchain drift.
func TestFrameAnalysisAllocs(t *testing.T) {
	ds := smallDataset(t, 73)
	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	lc := ds.Test[0]
	sys.SetBackground(lc.Clip.Background)
	frame := lc.Clip.Frames[len(lc.Clip.Frames)/2].Image
	for i := 0; i < 5; i++ { // warm the arena and the imaging pool
		if _, err := sys.AnalyzeFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sys.AnalyzeFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("AnalyzeFrame allocates %.1f objects per frame in steady state, want <= 8", allocs)
	}
}
