package parallel

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	if got := Workers(0); got != runtime.NumCPU() {
		t.Fatalf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-5); got != runtime.NumCPU() {
		t.Fatalf("Workers(-5) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
}

func TestMapOrderedMatchesSequential(t *testing.T) {
	items := make([]int, 257)
	for i := range items {
		items[i] = i * 3
	}
	sq := func(i, v int) (int, error) { return v*v + i, nil }
	want, err := MapOrdered(1, items, sq)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8, 64, 1000} {
		got, err := MapOrdered(w, items, sq)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestMapOrderedEmpty(t *testing.T) {
	out, err := MapOrdered(8, nil, func(i int, v int) (int, error) { return v, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("got %v, %v", out, err)
	}
}

func TestMapOrderedLowestError(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	// Items 7 and 40 both fail; the reported error must be item 7's
	// regardless of scheduling.
	for _, w := range []int{1, 2, 8} {
		_, err := MapOrdered(w, items, func(i, v int) (int, error) {
			if i == 7 || i == 40 {
				return 0, fmt.Errorf("item %d failed", i)
			}
			return v, nil
		})
		if err == nil || err.Error() != "item 7 failed" {
			t.Fatalf("workers=%d: err = %v, want item 7 failed", w, err)
		}
	}
}

func TestMapOrderedStopsEarly(t *testing.T) {
	var calls atomic.Int64
	items := make([]int, 10000)
	_, err := MapOrdered(4, items, func(i, v int) (int, error) {
		calls.Add(1)
		if i == 0 {
			return 0, errors.New("boom")
		}
		return v, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := calls.Load(); n >= int64(len(items)) {
		t.Fatalf("expected early stop, but all %d items ran", n)
	}
}

// sliceSource returns a next func yielding items then io.EOF, counting
// pulls in *pulls.
func sliceSource(items []int, pulls *atomic.Int64) func() (int, error) {
	var pos atomic.Int64
	return func() (int, error) {
		pulls.Add(1)
		i := int(pos.Add(1)) - 1
		if i >= len(items) {
			return 0, io.EOF
		}
		return items[i], nil
	}
}

func TestMapSourceMatchesSequential(t *testing.T) {
	items := make([]int, 257)
	for i := range items {
		items[i] = i * 3
	}
	sq := func(i, v int) (int, error) { return v*v + i, nil }
	var pulls atomic.Int64
	want, err := MapSource(1, sliceSource(items, &pulls), sq)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(items) {
		t.Fatalf("sequential yielded %d results, want %d", len(want), len(items))
	}
	for _, w := range []int{2, 4, 8, 64} {
		got, err := MapSource(w, sliceSource(items, &pulls), sq)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d (pull order must index results)", w, i, got[i], want[i])
			}
		}
	}
}

func TestMapSourceEmpty(t *testing.T) {
	for _, w := range []int{1, 8} {
		var pulls atomic.Int64
		out, err := MapSource(w, sliceSource(nil, &pulls), func(i, v int) (int, error) { return v, nil })
		if err != nil || len(out) != 0 {
			t.Fatalf("workers=%d: got %v, %v", w, out, err)
		}
	}
}

func TestMapSourceLowestError(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, w := range []int{1, 2, 8} {
		var pulls atomic.Int64
		_, err := MapSource(w, sliceSource(items, &pulls), func(i, v int) (int, error) {
			if i == 7 || i == 40 {
				return 0, fmt.Errorf("item %d failed", i)
			}
			return v, nil
		})
		if err == nil || err.Error() != "item 7 failed" {
			t.Fatalf("workers=%d: err = %v, want item 7 failed", w, err)
		}
	}
}

// TestMapSourceSourceErrorStopsPulling pins the single-pull-after-error
// contract: once next fails, the source is never pulled again and the
// source's own error wins over any later fn failure.
func TestMapSourceSourceErrorStopsPulling(t *testing.T) {
	for _, w := range []int{1, 8} {
		var pulls atomic.Int64
		next := func() (int, error) {
			n := pulls.Add(1)
			if n >= 4 {
				return 0, errors.New("source torn")
			}
			return int(n), nil
		}
		_, err := MapSource(w, next, func(i, v int) (int, error) { return v, nil })
		if err == nil || err.Error() != "source torn" {
			t.Fatalf("workers=%d: err = %v, want source torn", w, err)
		}
		if n := pulls.Load(); n != 4 {
			t.Fatalf("workers=%d: %d pulls, want exactly 4 (no pulls after the source error)", w, n)
		}
	}
}

// TestMapSourceBoundsCheckouts pins the memory bound: at most `workers`
// items are checked out — pulled but not yet mapped — at any moment.
func TestMapSourceBoundsCheckouts(t *testing.T) {
	const workers = 4
	items := make([]int, 64)
	var pulls, live, peak atomic.Int64
	_, err := MapSource(workers, sliceSource(items, &pulls), func(i, v int) (int, error) {
		n := live.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer live.Add(-1)
		runtime.Gosched()
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p < 1 || p > workers {
		t.Fatalf("peak live items = %d, want in [1,%d]", p, workers)
	}
}

func TestForEach(t *testing.T) {
	items := []int{1, 2, 3, 4, 5, 6, 7, 8}
	var sum atomic.Int64
	if err := ForEach(4, items, func(_ int, v int) error {
		sum.Add(int64(v))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 36 {
		t.Fatalf("sum = %d", sum.Load())
	}
}
