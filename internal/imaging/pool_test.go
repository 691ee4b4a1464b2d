package imaging

import "testing"

func TestGetBinaryZeroedAfterPut(t *testing.T) {
	// Acquire, dirty, release, re-acquire: the new buffer must be zeroed
	// even when the pool hands the same backing slice back.
	b := GetBinary(16, 8)
	for i := range b.Pix {
		b.Pix[i] = 1
	}
	PutBinary(b)
	c := GetBinary(16, 8)
	for i, v := range c.Pix {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d", i)
		}
	}
	PutBinary(c)
}

func TestPoolResizes(t *testing.T) {
	b := GetBinary(4, 4)
	PutBinary(b)
	big := GetBinary(32, 32)
	if big.W != 32 || big.H != 32 || len(big.Pix) != 32*32 {
		t.Fatalf("got %dx%d len %d", big.W, big.H, len(big.Pix))
	}
	PutBinary(big)
	small := GetBinary(2, 3)
	if small.W != 2 || small.H != 3 || len(small.Pix) != 6 {
		t.Fatalf("got %dx%d len %d", small.W, small.H, len(small.Pix))
	}
	for i, v := range small.Pix {
		if v != 0 {
			t.Fatalf("shrunk buffer not zeroed at %d", i)
		}
	}
	PutBinary(small)
}

func TestGetRGBAndGrayZeroed(t *testing.T) {
	m := GetRGB(5, 5)
	for i := range m.Pix {
		m.Pix[i] = 200
	}
	PutRGB(m)
	m2 := GetRGB(5, 5)
	for i, v := range m2.Pix {
		if v != 0 {
			t.Fatalf("rgb reuse not zeroed at %d", i)
		}
	}
	PutRGB(m2)

	g := GetGray(7, 3)
	for i := range g.Pix {
		g.Pix[i] = 9
	}
	PutGray(g)
	g2 := GetGray(7, 3)
	for i, v := range g2.Pix {
		if v != 0 {
			t.Fatalf("gray reuse not zeroed at %d", i)
		}
	}
	PutGray(g2)
}

func TestPutNilIsNoop(t *testing.T) {
	PutBinary(nil)
	PutGray(nil)
	PutRGB(nil)
}

// TestPutResizedBuffer returns a buffer whose caller mangled the
// dimensions and pixel slice before Put; the next Get must still hand
// out an exact-size, zeroed image.
func TestPutResizedBuffer(t *testing.T) {
	b := GetBinary(8, 8)
	b.Pix = b.Pix[:16]
	b.W, b.H = 4, 4
	for i := range b.Pix {
		b.Pix[i] = 3
	}
	PutBinary(b)
	c := GetBinary(8, 8)
	if c.W != 8 || c.H != 8 || len(c.Pix) != 64 {
		t.Fatalf("after resized Put: got %dx%d len %d", c.W, c.H, len(c.Pix))
	}
	for i, v := range c.Pix {
		if v != 0 {
			t.Fatalf("after resized Put: pixel %d = %d, want 0", i, v)
		}
	}
	PutBinary(c)
}

// TestDoublePutDoesNotAlias double-Puts one buffer and then draws two
// from the pool: they must be distinct images with distinct backing
// storage, not the same buffer handed out twice.
func TestDoublePutDoesNotAlias(t *testing.T) {
	b := GetBinary(6, 6)
	PutBinary(b)
	PutBinary(b) // contract violation: must degrade to a no-op

	b1 := GetBinary(6, 6)
	b2 := GetBinary(6, 6)
	if b1 == b2 {
		t.Fatal("double Put made the pool issue the same *Binary twice")
	}
	b1.Pix[0] = 7
	if b2.Pix[0] != 0 {
		t.Fatal("double Put aliased the backing arrays of two live buffers")
	}
	PutBinary(b1)
	PutBinary(b2)

	g := GetGray(3, 3)
	PutGray(g)
	PutGray(g)
	g1, g2 := GetGray(3, 3), GetGray(3, 3)
	if g1 == g2 {
		t.Fatal("double PutGray issued the same *Gray twice")
	}
	PutGray(g1)
	PutGray(g2)

	m := GetRGB(3, 3)
	PutRGB(m)
	PutRGB(m)
	m1, m2 := GetRGB(3, 3), GetRGB(3, 3)
	if m1 == m2 {
		t.Fatal("double PutRGB issued the same *RGB twice")
	}
	PutRGB(m1)
	PutRGB(m2)
}

// TestGetUnderPoolPressure drains the pool by holding many buffers live
// at once: every concurrently issued buffer must be exact-size, zeroed,
// and disjoint from all the others — writing through one must never show
// up in another.
func TestGetUnderPoolPressure(t *testing.T) {
	const n = 32
	bufs := make([]*Binary, n)
	for i := range bufs {
		bufs[i] = GetBinary(10, 10)
	}
	for i, b := range bufs {
		if b.W != 10 || b.H != 10 || len(b.Pix) != 100 {
			t.Fatalf("buffer %d: got %dx%d len %d", i, b.W, b.H, len(b.Pix))
		}
		for p := range b.Pix {
			b.Pix[p] = uint8(i + 1)
		}
	}
	for i, b := range bufs {
		for p, v := range b.Pix {
			if v != uint8(i+1) {
				t.Fatalf("buffer %d aliased: pixel %d = %d, want %d", i, p, v, i+1)
			}
		}
	}
	// Recycle everything, then draw again at a different size: still
	// zeroed, still disjoint.
	for _, b := range bufs {
		PutBinary(b)
	}
	a, b := GetBinary(5, 7), GetBinary(5, 7)
	if a == b {
		t.Fatal("pool issued the same buffer to two consecutive Gets")
	}
	a.Pix[0] = 9
	if b.Pix[0] != 0 {
		t.Fatal("consecutively issued buffers alias")
	}
	PutBinary(a)
	PutBinary(b)
}

func TestBoxAverageRGBIntoMatchesAlloc(t *testing.T) {
	src := NewRGB(37, 23)
	for i := range src.Pix {
		src.Pix[i] = uint8((i*31 + 7) % 256)
	}
	want := BoxAverageRGB(src, 3)
	dst := &RGB{}
	var sc FilterScratch
	// Run twice through the same scratch: the second pass must not be
	// polluted by the first.
	for pass := 0; pass < 2; pass++ {
		dst = BoxAverageRGBInto(dst, src, 3, &sc)
		if dst.W != want.W || dst.H != want.H {
			t.Fatalf("pass %d: got %dx%d", pass, dst.W, dst.H)
		}
		for i := range want.Pix {
			if dst.Pix[i] != want.Pix[i] {
				t.Fatalf("pass %d: pixel %d = %d, want %d", pass, i, dst.Pix[i], want.Pix[i])
			}
		}
	}
	// Shrink after growth: reuse the scratch for a smaller frame.
	small := NewRGB(9, 5)
	for i := range small.Pix {
		small.Pix[i] = uint8(i)
	}
	wantSmall := BoxAverageRGB(small, 5)
	dst = BoxAverageRGBInto(dst, small, 5, &sc)
	for i := range wantSmall.Pix {
		if dst.Pix[i] != wantSmall.Pix[i] {
			t.Fatalf("small: pixel %d = %d, want %d", i, dst.Pix[i], wantSmall.Pix[i])
		}
	}
}

func TestMedianFilterBinaryIntoMatchesAlloc(t *testing.T) {
	src := NewBinary(21, 17)
	for i := range src.Pix {
		if (i*13)%5 < 2 {
			src.Pix[i] = 1
		}
	}
	want := MedianFilterBinary(src, 3)
	dst := GetBinary(21, 17)
	// Dirty the destination first: Into must overwrite every pixel.
	for i := range dst.Pix {
		dst.Pix[i] = 1
	}
	got := MedianFilterBinaryInto(dst, src, 3, &FilterScratch{})
	if !got.Equal(want) {
		t.Fatal("Into result differs from allocating variant")
	}
	PutBinary(dst)
}

func TestCropIntoMatchesCrop(t *testing.T) {
	src := NewRGB(30, 20)
	for i := range src.Pix {
		src.Pix[i] = uint8(i % 251)
	}
	for _, r := range []Rect{
		NewRect(3, 4, 17, 12),
		NewRect(-5, -5, 10, 10), // clipped
		NewRect(25, 15, 60, 60), // clipped
		NewRect(8, 8, 8, 9),     // empty
	} {
		want := src.Crop(r)
		got := src.CropInto(GetRGB(1, 1), r)
		if got.W != want.W || got.H != want.H {
			t.Fatalf("rect %v: got %dx%d want %dx%d", r, got.W, got.H, want.W, want.H)
		}
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("rect %v: pixel %d differs", r, i)
			}
		}
		PutRGB(got)
	}
}

// TestPoolHitMissAccounting is the regression test for the accounting
// gap where Get* could not tell a fresh allocation from a recycled
// buffer. It drains the pool under pressure (every Get while all
// buffers are held live must miss) and then recycles (every Get after a
// Put must hit). Counters are process-global, so assertions are on
// deltas.
func TestPoolHitMissAccounting(t *testing.T) {
	delta := func(h0, m0, d0 int64) (int64, int64, int64) {
		h, m, d := PoolCounters()
		return h - h0, m - m0, d - d0
	}

	// Phase 1: hold n buffers live at once. At most the pool's current
	// idle population can hit; forcing n simultaneous live buffers after
	// draining guarantees at least one miss, and every buffer freshly
	// constructed arrives with Pix == nil before grab sizes it.
	const n = 16
	h0, m0, d0 := PoolCounters()
	bufs := make([]*Binary, n)
	for i := range bufs {
		bufs[i] = GetBinary(9, 9)
	}
	hits, misses, _ := delta(h0, m0, d0)
	if hits+misses != n {
		t.Fatalf("phase 1: hits+misses = %d+%d, want %d Gets accounted", hits, misses, n)
	}

	// Phase 2: strict Put→Get cycles on the buffers we now own must be
	// all hits — the pool always has an idle buffer when we ask.
	h0, m0, d0 = PoolCounters()
	for i := 0; i < n; i++ {
		PutBinary(bufs[i])
		bufs[i] = GetBinary(9, 9)
	}
	hits, misses, _ = delta(h0, m0, d0)
	if misses != 0 || hits != n {
		t.Errorf("phase 2: hits=%d misses=%d, want %d/0 (Put→Get must recycle)", hits, misses, n)
	}

	// Phase 3: double Put is counted, and the extra Put must not
	// manufacture a phantom hit for two Gets.
	h0, m0, d0 = PoolCounters()
	PutBinary(bufs[0])
	PutBinary(bufs[0])
	_, _, doubles := delta(h0, m0, d0)
	if doubles != 1 {
		t.Errorf("double Put counted %d times, want 1", doubles)
	}
	for _, b := range bufs[1:] {
		PutBinary(b)
	}

	// Gray and RGB share the accounting path; spot-check one cycle each.
	h0, m0, d0 = PoolCounters()
	g := GetGray(4, 4)
	PutGray(g)
	g = GetGray(4, 4)
	m := GetRGB(4, 4)
	PutRGB(m)
	m = GetRGB(4, 4)
	hits, misses, _ = delta(h0, m0, d0)
	if hits+misses != 4 || hits < 2 {
		t.Errorf("gray/rgb cycle: hits=%d misses=%d, want 4 Gets with >=2 hits", hits, misses)
	}
	PutGray(g)
	PutRGB(m)
}
