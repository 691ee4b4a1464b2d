// Buffer pooling. The per-frame pipeline needs several full-frame binary
// masks per frame (raw masks, smoothing intermediates, thinning work
// copies); at video rate that churns the allocator hard. GetBinary and
// PutBinary recycle them through a sync.Pool so the steady-state hot
// path allocates (almost) nothing. Colour and grey images are not
// pooled: their callers own and reuse them (frame arenas, one decode
// image per clip pass).
//
// Contract: GetBinary returns an image that is ZEROED and exactly w×h,
// like NewBinary; PutBinary hands the buffer back for reuse. After Put
// the caller must not touch the image again — the next Get may hand the
// same backing slice to an unrelated frame. Putting an image that is
// still referenced elsewhere is the classic aliasing bug; when in doubt,
// don't Put. Pooled buffers that escape to callers are simply never
// returned, which is always safe.
//
// Two layers defend the contract. Statically, the pooldiscipline
// analyzer (cmd/sljcheck, DESIGN.md §8) rejects Gets without a Put and
// uses after Put. Dynamically, each image carries a pooled flag so a
// double Put within one goroutine degrades to a no-op instead of
// handing the same buffer to two future Gets. The flag is best-effort
// only — a racing Get on another goroutine can clear it between the two
// Puts — but it converts the common single-threaded misuse from silent
// frame corruption into a mere missed recycle.

package imaging

import "sync"

var binaryPool = sync.Pool{New: func() any { return new(Binary) }}

// grab reslices buf to n zeroed elements, reallocating when the backing
// capacity is too small.
func grab(buf []uint8, n int) []uint8 {
	if cap(buf) < n {
		return make([]uint8, n) //slj:alloc-ok pool-miss regrow, amortised once the pool is warm
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// GetBinary returns a zeroed w×h binary image, reusing a pooled buffer
// when one of sufficient capacity is available. Pair with PutBinary.
//
//slj:hotpath
func GetBinary(w, h int) *Binary {
	if w <= 0 || h <= 0 {
		panic("imaging.GetBinary: non-positive dimensions")
	}
	b := binaryPool.Get().(*Binary) //slj:alloc-ok sync.Pool round trip; Get allocates only while the pool is cold
	countGet(b.Pix != nil)
	b.pooled = false
	b.W, b.H = w, h
	b.Pix = grab(b.Pix, w*h)
	return b
}

// PutBinary returns a binary image to the pool. nil and double Puts are
// ignored.
//
//slj:hotpath
func PutBinary(b *Binary) {
	if b == nil {
		return
	}
	if b.pooled {
		poolStats.DoublePuts.Inc()
		return
	}
	b.pooled = true
	poolStats.Puts.Inc()
	binaryPool.Put(b) //slj:alloc-ok sync.Pool round trip; boxing a pointer into any does not allocate
}
