package imaging

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	tests := []struct {
		name    string
		p, q    Point
		wantAdd Point
		wantSub Point
	}{
		{"origin", Point{0, 0}, Point{0, 0}, Point{0, 0}, Point{0, 0}},
		{"positive", Point{1, 2}, Point{3, 4}, Point{4, 6}, Point{-2, -2}},
		{"negative", Point{-1, -2}, Point{3, -4}, Point{2, -6}, Point{-4, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Add(tt.q); got != tt.wantAdd {
				t.Errorf("Add = %v, want %v", got, tt.wantAdd)
			}
			if got := tt.p.Sub(tt.q); got != tt.wantSub {
				t.Errorf("Sub = %v, want %v", got, tt.wantSub)
			}
		})
	}
}

func TestPointIn(t *testing.T) {
	tests := []struct {
		name string
		p    Point
		w, h int
		want bool
	}{
		{"inside", Point{3, 4}, 10, 10, true},
		{"origin", Point{0, 0}, 1, 1, true},
		{"right edge", Point{10, 4}, 10, 10, false},
		{"bottom edge", Point{4, 10}, 10, 10, false},
		{"negative x", Point{-1, 4}, 10, 10, false},
		{"negative y", Point{4, -1}, 10, 10, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.In(tt.w, tt.h); got != tt.want {
				t.Errorf("In(%d,%d) = %v, want %v", tt.w, tt.h, got, tt.want)
			}
		})
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(1, 2, 5, 7)
	if r.Dx() != 4 || r.Dy() != 5 {
		t.Fatalf("Dx/Dy = %d/%d, want 4/5", r.Dx(), r.Dy())
	}
	if r.Empty() {
		t.Fatal("non-degenerate rect reported empty")
	}
	if (Rect{}).Empty() != true {
		t.Fatal("zero rect should be empty")
	}
	if !r.Contains(Point{1, 2}) {
		t.Error("Min corner should be contained")
	}
	if r.Contains(Point{5, 7}) {
		t.Error("Max corner should be excluded")
	}
}

func TestRectUnionIntersect(t *testing.T) {
	tests := []struct {
		name      string
		a, b      Rect
		wantUnion Rect
		wantInter Rect
	}{
		{
			name:      "overlapping",
			a:         NewRect(0, 0, 4, 4),
			b:         NewRect(2, 2, 6, 6),
			wantUnion: NewRect(0, 0, 6, 6),
			wantInter: NewRect(2, 2, 4, 4),
		},
		{
			name:      "disjoint",
			a:         NewRect(0, 0, 2, 2),
			b:         NewRect(5, 5, 7, 7),
			wantUnion: NewRect(0, 0, 7, 7),
			wantInter: Rect{},
		},
		{
			name:      "contained",
			a:         NewRect(0, 0, 10, 10),
			b:         NewRect(3, 3, 4, 4),
			wantUnion: NewRect(0, 0, 10, 10),
			wantInter: NewRect(3, 3, 4, 4),
		},
		{
			name:      "empty operand",
			a:         Rect{},
			b:         NewRect(1, 1, 2, 2),
			wantUnion: NewRect(1, 1, 2, 2),
			wantInter: Rect{},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Union(tt.b); got != tt.wantUnion {
				t.Errorf("Union = %v, want %v", got, tt.wantUnion)
			}
			got := tt.a.Intersect(tt.b)
			if got.Empty() != tt.wantInter.Empty() {
				t.Fatalf("Intersect emptiness = %v, want %v", got, tt.wantInter)
			}
			if !got.Empty() && got != tt.wantInter {
				t.Errorf("Intersect = %v, want %v", got, tt.wantInter)
			}
		})
	}
}

func TestGrayRoundTrip(t *testing.T) {
	g := NewGray(7, 5)
	g.Set(3, 2, 200)
	if got := g.At(3, 2); got != 200 {
		t.Fatalf("At = %d, want 200", got)
	}
	c := g.Clone()
	c.Set(3, 2, 10)
	if g.At(3, 2) != 200 {
		t.Fatal("Clone aliases the original backing array")
	}
	g.Fill(9)
	for _, v := range g.Pix {
		if v != 9 {
			t.Fatal("Fill did not set every pixel")
		}
	}
}

func TestRGBGrayConversion(t *testing.T) {
	m := NewRGB(2, 1)
	m.Set(0, 0, 255, 255, 255)
	m.Set(1, 0, 255, 0, 0)
	g := m.Gray()
	if g.At(0, 0) != 255 {
		t.Errorf("white luma = %d, want 255", g.At(0, 0))
	}
	if got := g.At(1, 0); got != 76 { // 299*255/1000
		t.Errorf("red luma = %d, want 76", got)
	}
}

func TestBinaryBasics(t *testing.T) {
	b := NewBinary(4, 3)
	if b.Count() != 0 {
		t.Fatal("fresh image should be empty")
	}
	b.Set(1, 1, 1)
	b.Set(3, 2, 1)
	if b.Count() != 2 {
		t.Fatalf("Count = %d, want 2", b.Count())
	}
	if got := b.ForegroundBounds(); got != NewRect(1, 1, 4, 3) {
		t.Fatalf("ForegroundBounds = %v", got)
	}
	pts := b.Points()
	if len(pts) != 2 || pts[0] != (Point{1, 1}) || pts[1] != (Point{3, 2}) {
		t.Fatalf("Points = %v", pts)
	}
	b.Invert()
	if b.Count() != 10 {
		t.Fatalf("after Invert Count = %d, want 10", b.Count())
	}
}

func TestForegroundBoundsEmpty(t *testing.T) {
	b := NewBinary(5, 5)
	if got := b.ForegroundBounds(); !got.Empty() {
		t.Fatalf("empty image bounds = %v, want empty", got)
	}
}

func TestBinaryEqual(t *testing.T) {
	a := FromASCII("##.\n.#.\n")
	b := FromASCII("##.\n.#.\n")
	c := FromASCII("##.\n..#\n")
	if !a.Equal(b) {
		t.Error("identical images compare unequal")
	}
	if a.Equal(c) {
		t.Error("different images compare equal")
	}
	d := NewBinary(2, 3)
	if a.Equal(d) {
		t.Error("different sizes compare equal")
	}
}

func TestASCIIRoundTrip(t *testing.T) {
	src := FromASCII(`
.#..#
.###.
..#..
`)
	got := FromASCII(ASCII(src, 1))
	if !src.Equal(got) {
		t.Fatalf("ASCII round trip mismatch:\n%s\nvs\n%s", ASCII(src, 1), ASCII(got, 1))
	}
}

func TestASCIIDownsample(t *testing.T) {
	b := NewBinary(4, 4)
	b.Set(3, 3, 1)
	s := ASCII(b, 2)
	want := "..\n.#\n"
	if s != want {
		t.Fatalf("ASCII step=2 = %q, want %q", s, want)
	}
}

func quickBinary(r *rand.Rand, w, h int, density float64) *Binary {
	b := NewBinary(w, h)
	for i := range b.Pix {
		if r.Float64() < density {
			b.Pix[i] = 1
		}
	}
	return b
}

func TestASCIIRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		w, h := 1+rr.Intn(20), 1+rr.Intn(20)
		b := quickBinary(rr, w, h, 0.4)
		// FromASCII pads short rows, so compare only up to the last
		// foreground column; simplest is to ensure width survives by
		// setting the corner pixel.
		b.Set(w-1, h-1, 1)
		return b.Equal(FromASCII(ASCII(b, 1)))
	}
	cfg := &quick.Config{MaxCount: 50, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMedianFilterBinaryFillsPinhole(t *testing.T) {
	b := FromASCII(`
#####
##.##
#####
`)
	out := MedianFilterBinary(b, 3)
	if out.At(2, 1) != 1 {
		t.Error("3x3 median should fill a single-pixel hole")
	}
}

func TestMedianFilterBinaryRemovesSpeckle(t *testing.T) {
	b := NewBinary(9, 9)
	b.Set(4, 4, 1)
	out := MedianFilterBinary(b, 3)
	if out.Count() != 0 {
		t.Error("3x3 median should remove an isolated pixel")
	}
}

func TestMedianFilterBinaryPreservesSolid(t *testing.T) {
	b := NewBinary(10, 10)
	for y := 2; y < 8; y++ {
		for x := 2; x < 8; x++ {
			b.Set(x, y, 1)
		}
	}
	out := MedianFilterBinary(b, 3)
	for y := 3; y < 7; y++ {
		for x := 3; x < 7; x++ {
			if out.At(x, y) != 1 {
				t.Fatalf("interior pixel (%d,%d) lost", x, y)
			}
		}
	}
}

func TestMedianFilterBinaryPanicsOnEvenKernel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for even kernel")
		}
	}()
	MedianFilterBinary(NewBinary(3, 3), 2)
}

func TestMedianFilterGray(t *testing.T) {
	g := NewGray(3, 3)
	g.Fill(100)
	g.Set(1, 1, 255) // hot pixel
	out := medianFilterGray(g, 3)
	if out.At(1, 1) != 100 {
		t.Errorf("median should suppress the hot pixel, got %d", out.At(1, 1))
	}
}

func TestMedianFilterGrayIdentityOnConstant(t *testing.T) {
	g := NewGray(8, 8)
	g.Fill(42)
	out := medianFilterGray(g, 5)
	for _, v := range out.Pix {
		if v != 42 {
			t.Fatal("median of constant image changed a pixel")
		}
	}
}

func TestBoxAverageRGBWindow1IsIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := NewRGB(13, 9)
	for i := range m.Pix {
		m.Pix[i] = uint8(r.Intn(256))
	}
	out := BoxAverageRGB(m, 1)
	if !bytes.Equal(out.Pix, m.Pix) {
		t.Fatal("1x1 box average should be the identity")
	}
}

func TestBoxAverageRGBConstant(t *testing.T) {
	m := NewRGB(16, 16)
	m.Fill(37, 99, 200)
	out := BoxAverageRGB(m, 5)
	for i := 0; i < len(out.Pix); i += 3 {
		if out.Pix[i] != 37 || out.Pix[i+1] != 99 || out.Pix[i+2] != 200 {
			t.Fatalf("constant image average changed at %d: %v", i, out.Pix[i:i+3])
		}
	}
}

func TestBoxAverageRGBInterior(t *testing.T) {
	// A 3x3 window over a checkerboard of 0/255 in one channel averages to
	// either 4/9 or 5/9 of 255 depending on parity.
	m := NewRGB(9, 9)
	for y := 0; y < 9; y++ {
		for x := 0; x < 9; x++ {
			if (x+y)%2 == 0 {
				m.Set(x, y, 255, 0, 0)
			}
		}
	}
	out := BoxAverageRGB(m, 3)
	r, _, _ := out.At(4, 4)
	want := uint8((5*255 + 4) / 9) // centre parity even → 5 bright pixels
	if r != want {
		t.Fatalf("checkerboard centre average = %d, want %d", r, want)
	}
}

func TestBoxAverageMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := NewRGB(17, 11)
	for i := range m.Pix {
		m.Pix[i] = uint8(r.Intn(256))
	}
	const n = 5
	got := BoxAverageRGB(m, n)
	// Naive reference implementation.
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			var sum [3]int
			cnt := 0
			for dy := -n / 2; dy <= n/2; dy++ {
				for dx := -n / 2; dx <= n/2; dx++ {
					xx, yy := x+dx, y+dy
					if xx < 0 || xx >= m.W || yy < 0 || yy >= m.H {
						continue
					}
					cnt++
					rr, gg, bb := m.At(xx, yy)
					sum[0] += int(rr)
					sum[1] += int(gg)
					sum[2] += int(bb)
				}
			}
			gr, gg2, gb := got.At(x, y)
			want := [3]uint8{
				uint8((sum[0] + cnt/2) / cnt),
				uint8((sum[1] + cnt/2) / cnt),
				uint8((sum[2] + cnt/2) / cnt),
			}
			if gr != want[0] || gg2 != want[1] || gb != want[2] {
				t.Fatalf("mismatch at (%d,%d): got (%d,%d,%d) want %v", x, y, gr, gg2, gb, want)
			}
		}
	}
}

func TestDilateErodeDuality(t *testing.T) {
	b := FromASCII(`
.....
.###.
.###.
.###.
.....
`)
	d := dilate(b)
	if d.Count() != 25 {
		t.Errorf("dilate of 3x3 block in 5x5 should fill image, got %d", d.Count())
	}
	e := Erode(b)
	if e.Count() != 1 || e.At(2, 2) != 1 {
		t.Errorf("erode should leave only the centre, got %d pixels", e.Count())
	}
}

func TestOpenRemovesSpeckleClosesHole(t *testing.T) {
	speckle := NewBinary(10, 10)
	speckle.Set(5, 5, 1)
	if openBinary(speckle).Count() != 0 {
		t.Error("Open should remove isolated speckle")
	}

	holed := NewBinary(10, 10)
	for y := 2; y < 8; y++ {
		for x := 2; x < 8; x++ {
			holed.Set(x, y, 1)
		}
	}
	holed.Set(4, 4, 0)
	closed := closeBinary(holed)
	if closed.At(4, 4) != 1 {
		t.Error("Close should fill a single-pixel hole")
	}
}

func TestErodeDilateProperty(t *testing.T) {
	// Erosion is anti-extensive, dilation is extensive.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		b := quickBinary(rr, 12, 12, 0.5)
		e, d := Erode(b), dilate(b)
		for i := range b.Pix {
			if e.Pix[i] == 1 && b.Pix[i] == 0 {
				return false
			}
			if b.Pix[i] == 1 && d.Pix[i] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestComponents(t *testing.T) {
	b := FromASCII(`
##...
##..#
....#
#....
`)
	_, comps4 := Components(b, Connect4)
	if len(comps4) != 3 {
		t.Fatalf("4-connected components = %d, want 3", len(comps4))
	}
	// The single diagonal touch between (1,1)-block and (4,1) pixel does not
	// merge under 4-connectivity; nothing is diagonal here so 8 gives 3 too.
	_, comps8 := Components(b, Connect8)
	if len(comps8) != 3 {
		t.Fatalf("8-connected components = %d, want 3", len(comps8))
	}
}

func TestComponentsDiagonal(t *testing.T) {
	b := FromASCII(`
#.
.#
`)
	_, c4 := Components(b, Connect4)
	_, c8 := Components(b, Connect8)
	if len(c4) != 2 {
		t.Errorf("diagonal pixels: 4-connected = %d comps, want 2", len(c4))
	}
	if len(c8) != 1 {
		t.Errorf("diagonal pixels: 8-connected = %d comps, want 1", len(c8))
	}
}

func TestComponentsMetadata(t *testing.T) {
	b := FromASCII(`
.....
.###.
.....
`)
	_, comps := Components(b, Connect8)
	if len(comps) != 1 {
		t.Fatalf("components = %d, want 1", len(comps))
	}
	c := comps[0]
	if c.Size != 3 {
		t.Errorf("Size = %d, want 3", c.Size)
	}
	if c.Bounds != NewRect(1, 1, 4, 2) {
		t.Errorf("Bounds = %v", c.Bounds)
	}
	if c.Label != 1 {
		t.Errorf("Label = %d, want 1", c.Label)
	}
}

func TestLargestComponent(t *testing.T) {
	b := FromASCII(`
##....#
##....#
.......
#......
`)
	out := LargestComponent(b, Connect8)
	if out.Count() != 4 {
		t.Fatalf("largest component size = %d, want 4", out.Count())
	}
	if out.At(0, 0) != 1 || out.At(6, 0) != 0 || out.At(0, 3) != 0 {
		t.Error("wrong component retained")
	}
}

func TestLargestComponentEmpty(t *testing.T) {
	out := LargestComponent(NewBinary(4, 4), Connect8)
	if out.Count() != 0 {
		t.Fatal("largest component of empty image should be empty")
	}
}

func TestFillHoles(t *testing.T) {
	b := FromASCII(`
.......
.#####.
.#...#.
.#.#.#.
.#...#.
.#####.
.......
`)
	filled := FillHoles(b, Connect8)
	for y := 1; y <= 5; y++ {
		for x := 1; x <= 5; x++ {
			if filled.At(x, y) != 1 {
				t.Fatalf("hole pixel (%d,%d) not filled", x, y)
			}
		}
	}
	if filled.At(0, 0) != 0 {
		t.Error("exterior background was filled")
	}
}

func TestCountHoles(t *testing.T) {
	tests := []struct {
		name string
		img  string
		want int
	}{
		{"no holes", ".....\n.###.\n.....\n", 0},
		{"one hole", "#####\n#...#\n#####\n", 1},
		{"two holes", "#######\n#.###.#\n#######\n", 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CountHoles(FromASCII(tt.img), Connect8); got != tt.want {
				t.Errorf("CountHoles = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestFillCapsule(t *testing.T) {
	b := NewBinary(20, 20)
	FillCapsule(b, Pointf{5, 10}, Pointf{15, 10}, 2)
	if b.At(10, 10) != 1 {
		t.Error("centre of capsule not filled")
	}
	if b.At(10, 12) != 1 {
		t.Error("pixel within radius not filled")
	}
	if b.At(10, 14) != 0 {
		t.Error("pixel outside radius filled")
	}
	if b.At(2, 10) != 0 {
		t.Error("pixel beyond endpoint cap filled")
	}
	if b.At(4, 10) != 1 {
		t.Error("end cap should extend by radius")
	}
}

func TestFillCapsuleClipped(t *testing.T) {
	b := NewBinary(10, 10)
	// Partially outside the image; must not panic.
	FillCapsule(b, Pointf{-5, 5}, Pointf{5, 5}, 3)
	if b.At(0, 5) != 1 {
		t.Error("clipped capsule missing in-bounds pixels")
	}
}

func TestFillDisc(t *testing.T) {
	b := NewBinary(11, 11)
	FillDisc(b, Pointf{5, 5}, 3)
	if b.At(5, 5) != 1 || b.At(5, 2) != 1 || b.At(8, 5) != 1 {
		t.Error("disc interior missing")
	}
	if b.At(8, 8) != 0 {
		t.Error("disc corner should be outside radius")
	}
}

func TestDrawLine(t *testing.T) {
	b := NewBinary(10, 10)
	DrawLine(b, Point{0, 0}, Point{9, 9})
	for i := 0; i < 10; i++ {
		if b.At(i, i) != 1 {
			t.Fatalf("diagonal pixel (%d,%d) missing", i, i)
		}
	}
	b2 := NewBinary(10, 10)
	DrawLine(b2, Point{9, 3}, Point{0, 3}) // right-to-left horizontal
	if b2.Count() != 10 {
		t.Fatalf("horizontal line has %d pixels, want 10", b2.Count())
	}
}

func TestPaintMask(t *testing.T) {
	dst := NewRGB(3, 3)
	mask := NewBinary(3, 3)
	mask.Set(1, 1, 1)
	if err := PaintMask(dst, mask, 10, 20, 30); err != nil {
		t.Fatal(err)
	}
	r, g, b := dst.At(1, 1)
	if r != 10 || g != 20 || b != 30 {
		t.Errorf("painted pixel = (%d,%d,%d)", r, g, b)
	}
	if r, _, _ := dst.At(0, 0); r != 0 {
		t.Error("unmasked pixel modified")
	}
	if err := PaintMask(dst, NewBinary(2, 2), 0, 0, 0); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

func TestPPMRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	// One dst threads through every size, growing and then shrinking,
	// as a clip reader's frame buffer does.
	reused := &RGB{}
	for _, size := range [][2]int{{13, 7}, {20, 9}, {3, 2}} {
		m := NewRGB(size[0], size[1])
		for i := range m.Pix {
			m.Pix[i] = uint8(r.Intn(256))
		}
		var buf bytes.Buffer
		if err := EncodePPM(&buf, m); err != nil {
			t.Fatal(err)
		}
		enc := buf.Bytes()
		got, err := DecodePPM(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		if got.W != m.W || got.H != m.H || !bytes.Equal(got.Pix, m.Pix) {
			t.Fatalf("%dx%d: PPM round trip mismatch", m.W, m.H)
		}
		into, err := DecodePPMInto(reused, bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		if into != reused || into.W != m.W || into.H != m.H || !bytes.Equal(into.Pix, m.Pix) {
			t.Fatalf("%dx%d: PPM round trip into a reused image mismatch", m.W, m.H)
		}
	}
}

func TestPGMRoundTrip(t *testing.T) {
	g := NewGray(5, 4)
	for i := range g.Pix {
		g.Pix[i] = uint8(i * 13)
	}
	var buf bytes.Buffer
	if err := EncodePGM(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != g.W || got.H != g.H || !bytes.Equal(got.Pix, g.Pix) {
		t.Fatal("PGM round trip mismatch")
	}
}

func TestPBMRoundTrip(t *testing.T) {
	for _, w := range []int{1, 7, 8, 9, 16, 17} {
		b := NewBinary(w, 3)
		r := rand.New(rand.NewSource(int64(w)))
		for i := range b.Pix {
			b.Pix[i] = uint8(r.Intn(2))
		}
		var buf bytes.Buffer
		if err := EncodePBM(&buf, b); err != nil {
			t.Fatal(err)
		}
		got, err := DecodePBM(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !b.Equal(got) {
			t.Fatalf("PBM round trip mismatch at width %d", w)
		}
	}
}

func TestDecodeNetpbmWithComments(t *testing.T) {
	data := "P5\n# a comment\n3 2\n# another\n255\nabcdef"
	g, err := DecodePGM(bytes.NewReader([]byte(data)))
	if err != nil {
		t.Fatal(err)
	}
	if g.W != 3 || g.H != 2 || g.Pix[0] != 'a' {
		t.Fatalf("decoded %dx%d first=%q", g.W, g.H, g.Pix[0])
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		data string
	}{
		{"bad magic", "P9\n2 2\n255\nabcd"},
		{"truncated pixels", "P5\n4 4\n255\nab"},
		{"bad dims", "P5\n0 4\n255\n"},
		{"garbage dims", "P5\nxx 4\n255\n"},
		{"empty", ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodePGM(bytes.NewReader([]byte(tt.data))); err == nil {
				t.Error("expected decode error")
			}
		})
	}
}

func TestConnectivityString(t *testing.T) {
	if Connect4.String() != "4-connected" || Connect8.String() != "8-connected" {
		t.Error("Connectivity.String mismatch")
	}
	if Connectivity(0).String() != "unknown-connectivity" {
		t.Error("zero Connectivity should stringify as unknown")
	}
}

func TestPointfGeometry(t *testing.T) {
	a := Pointf{0, 0}
	b := Pointf{3, 4}
	if d := a.Dist(b); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if got := b.Scale(2); got != (Pointf{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := b.Round(); got != (Point{3, 4}) {
		t.Errorf("Round = %v", got)
	}
	if got := (Pointf{1.5, 2.5}).Round(); got != (Point{2, 3}) {
		t.Errorf("Round half-up = %v", got)
	}
}

func TestDistToSegment(t *testing.T) {
	tests := []struct {
		name    string
		p, a, b Pointf
		want    float64
	}{
		{"perpendicular", Pointf{5, 5}, Pointf{0, 0}, Pointf{10, 0}, 5},
		{"beyond end", Pointf{13, 4}, Pointf{0, 0}, Pointf{10, 0}, 5},
		{"degenerate segment", Pointf{3, 4}, Pointf{0, 0}, Pointf{0, 0}, 5},
		{"on segment", Pointf{5, 0}, Pointf{0, 0}, Pointf{10, 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := distToSegment(tt.p, tt.a, tt.b); got != tt.want {
				t.Errorf("distToSegment = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestFlipHBinary(t *testing.T) {
	b := FromASCII(`
#..
##.
`)
	f := b.FlipH()
	want := FromASCII(`
..#
.##
`)
	if !f.Equal(want) {
		t.Fatalf("FlipH mismatch:\n%s", ASCII(f, 1))
	}
	// Involution: flipping twice restores the original.
	if !f.FlipH().Equal(b) {
		t.Error("FlipH is not an involution")
	}
}

func TestFlipHRGB(t *testing.T) {
	m := NewRGB(3, 2)
	m.Set(0, 0, 1, 2, 3)
	m.Set(2, 1, 9, 8, 7)
	f := m.FlipH()
	if r, g, b := f.At(2, 0); r != 1 || g != 2 || b != 3 {
		t.Error("pixel (0,0) did not move to (2,0)")
	}
	if r, _, _ := f.At(0, 1); r != 9 {
		t.Error("pixel (2,1) did not move to (0,1)")
	}
}

func TestCropRGB(t *testing.T) {
	m := NewRGB(8, 6)
	m.Set(3, 2, 10, 20, 30)
	c := m.Crop(NewRect(2, 1, 6, 5))
	if c.W != 4 || c.H != 4 {
		t.Fatalf("crop size = %dx%d", c.W, c.H)
	}
	if r, g, b := c.At(1, 1); r != 10 || g != 20 || b != 30 {
		t.Error("cropped pixel value wrong")
	}
	// Clipping.
	c2 := m.Crop(NewRect(-5, -5, 3, 3))
	if c2.W != 3 || c2.H != 3 {
		t.Errorf("clipped crop = %dx%d, want 3x3", c2.W, c2.H)
	}
	// Disjoint.
	c3 := m.Crop(NewRect(100, 100, 110, 110))
	if c3.W != 1 || c3.H != 1 {
		t.Errorf("disjoint crop = %dx%d, want 1x1", c3.W, c3.H)
	}
}

func TestAccessors(t *testing.T) {
	if (Point{1, 2}).String() != "(1,2)" {
		t.Error("Point.String mismatch")
	}
	g := NewGray(4, 3)
	if !g.In(3, 2) || g.In(4, 0) || g.Bounds() != NewRect(0, 0, 4, 3) {
		t.Error("Gray accessors wrong")
	}
	m := NewRGB(4, 3)
	if !m.In(0, 0) || m.In(-1, 0) {
		t.Error("RGB.In wrong")
	}
	c := m.Clone()
	c.Set(1, 1, 9, 9, 9)
	if r, _, _ := m.At(1, 1); r != 0 {
		t.Error("RGB.Clone aliases")
	}
	b := NewBinary(4, 3)
	if !b.In(3, 2) || b.Bounds().Dy() != 3 {
		t.Error("Binary accessors wrong")
	}
	if (Pointf{1, 2}).Add(Pointf{3, 4}) != (Pointf{4, 6}) {
		t.Error("Pointf.Add wrong")
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, fn := range []func(){
		func() { NewGray(0, 1) },
		func() { NewRGB(1, 0) },
		func() { NewBinary(-1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for bad dimensions")
				}
			}()
			fn()
		}()
	}
}
