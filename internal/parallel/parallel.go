// Package parallel provides the small concurrency substrate the pipeline
// is parallelised with: a worker pool whose results come back in input
// order (MapOrdered, and ForEach for side effects) and its streaming
// counterpart over a pull source of unknown length (MapSource). The
// engine fans clips over MapSource and a served clip's frame ranges over
// ForEach.
//
// Both are deterministic by construction: results are indexed exactly
// like the input and, on failure, the error of the LOWEST failing index
// is returned (the error the sequential loop would have hit first).
// Callers that pass workers <= 1 get a plain inline loop — byte-identical
// behaviour to the pre-parallel code path, with no goroutines spawned.
package parallel

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count request: values >= 1 are returned as
// given, anything else (0, negative) resolves to runtime.NumCPU().
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.NumCPU()
}

// MapOrdered applies fn to every item on a pool of `workers` goroutines
// (resolved via Workers) and returns the results in input order. When the
// resolved worker count is 1 — or there is at most one item — fn runs
// inline on the calling goroutine, one item at a time, preserving the
// exact sequential code path.
//
// On error the remaining items are abandoned as soon as possible and the
// error of the lowest failing index is returned, matching what a
// sequential loop over the same items would report.
func MapOrdered[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	w := Workers(workers)
	if w > len(items) {
		w = len(items)
	}
	st := stats.Load()
	if w <= 1 {
		for i, item := range items {
			if st != nil {
				st.Items.Inc()
			}
			r, err := fn(i, item)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
	if st != nil {
		st.Workers.Max(int64(w))
	}

	var (
		next   atomic.Int64 // next item index to claim
		stop   atomic.Bool  // set once any worker fails
		mu     sync.Mutex
		errIdx = -1
		firstE error
		wg     sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if errIdx < 0 || i < errIdx {
			errIdx, firstE = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				// Check for a failure before claiming: a claimed index
				// always runs, so every index below the lowest failing
				// one does, and that failure is the one reported.
				if stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				if st != nil {
					st.Items.Inc()
				}
				r, err := fn(i, items[i])
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	if errIdx >= 0 {
		return nil, firstE
	}
	return out, nil
}

// MapSource is MapOrdered over a stream whose length is unknown up
// front: next is pulled serially (each call guarded by an internal
// lock, so sources need no locking of their own) and returns io.EOF
// after the last item; fn fans out over `workers` goroutines; results
// come back indexed in pull order. At most `workers` items are checked
// out — pulled but not yet mapped — at any moment, so a source that
// materialises state per item (e.g. a decoded video clip) is bounded to
// worker-count live items instead of the whole stream.
//
// Determinism matches MapOrdered: a resolved worker count of 1 runs the
// exact sequential pull-then-apply loop inline, and on failure the
// error of the lowest failing index is returned — whether it came from
// next or from fn — which is the error the sequential loop would have
// hit first. After next returns an error the source is not pulled
// again.
func MapSource[T, R any](workers int, next func() (T, error), fn func(i int, item T) (R, error)) ([]R, error) {
	w := Workers(workers)
	st := stats.Load()
	if w <= 1 {
		var out []R
		for i := 0; ; i++ {
			item, err := next()
			if err == io.EOF {
				return out, nil
			}
			if err != nil {
				return nil, err
			}
			if st != nil {
				st.Items.Inc()
			}
			r, err := fn(i, item)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	if st != nil {
		st.Workers.Max(int64(w))
	}

	var (
		mu     sync.Mutex // guards next, idx, out growth/stores and done
		idx    int
		out    []R
		done   bool        // source exhausted or errored; stop pulling
		stop   atomic.Bool // set once any worker fails
		errIdx = -1
		firstE error
		wg     sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if errIdx < 0 || i < errIdx {
			errIdx, firstE = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				mu.Lock()
				if done {
					mu.Unlock()
					return
				}
				item, err := next()
				if err == io.EOF {
					done = true //slj:sync-ok guarded by mu
					mu.Unlock()
					return
				}
				i := idx
				if err != nil {
					done = true //slj:sync-ok guarded by mu
					mu.Unlock()
					fail(i, err)
					return
				}
				idx++ //slj:sync-ok guarded by mu
				var zero R
				out = append(out, zero) //slj:sync-ok guarded by mu; reserves slot i, len(out) == idx
				mu.Unlock()
				if st != nil {
					st.Items.Inc()
				}
				r, err := fn(i, item)
				if err != nil {
					fail(i, err)
					return
				}
				mu.Lock()
				out[i] = r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if errIdx >= 0 {
		return nil, firstE
	}
	return out, nil
}

// ForEach is MapOrdered for side-effecting work without a result value.
func ForEach[T any](workers int, items []T, fn func(i int, item T) error) error {
	_, err := MapOrdered(workers, items, func(i int, item T) (struct{}, error) {
		return struct{}{}, fn(i, item)
	})
	return err
}
