package imaging

import (
	"bufio"
	"fmt"
	"io"
)

// The codecs implement the binary ("raw") Netpbm formats: P4 (bitmap),
// P5 (graymap) and P6 (pixmap). They are the persistence format for
// synthetic clips and intermediate pipeline products; any image viewer can
// open the files, which makes visual inspection of reproduction artefacts
// easy without pulling in image/png.

// EncodePPM writes m to w in binary PPM (P6) format.
func EncodePPM(w io.Writer, m *RGB) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", m.W, m.H); err != nil {
		return fmt.Errorf("imaging: encode ppm header: %w", err)
	}
	if _, err := bw.Write(m.Pix); err != nil {
		return fmt.Errorf("imaging: encode ppm pixels: %w", err)
	}
	return bw.Flush()
}

// DecodePPM reads a binary PPM (P6) image from r.
func DecodePPM(r io.Reader) (*RGB, error) {
	return DecodePPMInto(&RGB{}, r)
}

// DecodePPMInto is DecodePPM decoding into dst, whose pixel buffer is
// reused when it is large enough. It returns dst, so a reader can thread
// one frame buffer through a clip instead of allocating a frame per call.
func DecodePPMInto(dst *RGB, r io.Reader) (*RGB, error) {
	br := bufio.NewReader(r)
	w, h, maxv, err := readNetpbmHeader(br, "P6")
	if err != nil {
		return nil, err
	}
	if maxv != 255 {
		return nil, fmt.Errorf("imaging: decode ppm: unsupported maxval %d", maxv)
	}
	dst.W, dst.H = w, h
	if n := 3 * w * h; cap(dst.Pix) < n {
		dst.Pix = make([]uint8, n)
	} else {
		dst.Pix = dst.Pix[:n]
	}
	if _, err := io.ReadFull(br, dst.Pix); err != nil {
		return nil, fmt.Errorf("imaging: decode ppm pixels: %w", err)
	}
	return dst, nil
}

// EncodePGM writes g to w in binary PGM (P5) format.
func EncodePGM(w io.Writer, g *Gray) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", g.W, g.H); err != nil {
		return fmt.Errorf("imaging: encode pgm header: %w", err)
	}
	if _, err := bw.Write(g.Pix); err != nil {
		return fmt.Errorf("imaging: encode pgm pixels: %w", err)
	}
	return bw.Flush()
}

// DecodePGM reads a binary PGM (P5) image from r.
func DecodePGM(r io.Reader) (*Gray, error) {
	br := bufio.NewReader(r)
	w, h, maxv, err := readNetpbmHeader(br, "P5")
	if err != nil {
		return nil, err
	}
	if maxv != 255 {
		return nil, fmt.Errorf("imaging: decode pgm: unsupported maxval %d", maxv)
	}
	g := NewGray(w, h)
	if _, err := io.ReadFull(br, g.Pix); err != nil {
		return nil, fmt.Errorf("imaging: decode pgm pixels: %w", err)
	}
	return g, nil
}

// EncodePBM writes b to w in binary PBM (P4) format. Foreground (1) pixels
// are written as black per the PBM convention.
func EncodePBM(w io.Writer, b *Binary) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P4\n%d %d\n", b.W, b.H); err != nil {
		return fmt.Errorf("imaging: encode pbm header: %w", err)
	}
	rowBytes := (b.W + 7) / 8
	row := make([]byte, rowBytes)
	for y := 0; y < b.H; y++ {
		for i := range row {
			row[i] = 0
		}
		for x := 0; x < b.W; x++ {
			if b.Pix[y*b.W+x] != 0 {
				row[x/8] |= 0x80 >> uint(x%8)
			}
		}
		if _, err := bw.Write(row); err != nil {
			return fmt.Errorf("imaging: encode pbm pixels: %w", err)
		}
	}
	return bw.Flush()
}

// DecodePBM reads a binary PBM (P4) image from r.
func DecodePBM(r io.Reader) (*Binary, error) {
	br := bufio.NewReader(r)
	w, h, _, err := readNetpbmHeader(br, "P4")
	if err != nil {
		return nil, err
	}
	b := NewBinary(w, h)
	rowBytes := (w + 7) / 8
	row := make([]byte, rowBytes)
	for y := 0; y < h; y++ {
		if _, err := io.ReadFull(br, row); err != nil {
			return nil, fmt.Errorf("imaging: decode pbm pixels: %w", err)
		}
		for x := 0; x < w; x++ {
			if row[x/8]&(0x80>>uint(x%8)) != 0 {
				b.Pix[y*w+x] = 1
			}
		}
	}
	return b, nil
}

// readNetpbmHeader parses "<magic> <w> <h> [<maxval>]" with Netpbm comment
// and whitespace rules. PBM (P4) has no maxval; 1 is returned for it.
func readNetpbmHeader(br *bufio.Reader, magic string) (w, h, maxv int, err error) {
	tok, err := netpbmToken(br)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("imaging: read magic: %w", err)
	}
	if tok != magic {
		return 0, 0, 0, fmt.Errorf("imaging: bad magic %q, want %q", tok, magic)
	}
	fields := 2
	if magic != "P4" {
		fields = 3
	}
	vals := make([]int, fields)
	for i := range vals {
		tok, err := netpbmToken(br)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("imaging: read header field: %w", err)
		}
		n, err := parseUint(tok)
		if err != nil {
			return 0, 0, 0, err
		}
		vals[i] = n
	}
	w, h = vals[0], vals[1]
	maxv = 1
	if fields == 3 {
		maxv = vals[2]
	}
	if w <= 0 || h <= 0 {
		return 0, 0, 0, ErrBadDimensions
	}
	// Cap the total pixel count: huge headers must not drive allocation
	// (a 64-megapixel ceiling is far beyond any clip frame).
	const maxPixels = 1 << 26
	// parseUint already caps each field at 2^30, so the product cannot
	// overflow int64 here.
	if int64(w)*int64(h) > maxPixels {
		return 0, 0, 0, fmt.Errorf("imaging: image %dx%d exceeds the %d-pixel decoder cap", w, h, maxPixels)
	}
	return w, h, maxv, nil
}

// netpbmToken reads the next whitespace-delimited token, skipping '#'
// comments, and consumes the single whitespace byte that terminates it.
func netpbmToken(br *bufio.Reader) (string, error) {
	var tok []byte
	for {
		c, err := br.ReadByte()
		if err != nil {
			if len(tok) > 0 && err == io.EOF {
				return string(tok), nil
			}
			return "", err
		}
		switch {
		case c == '#':
			if _, err := br.ReadString('\n'); err != nil && err != io.EOF {
				return "", err
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			if len(tok) > 0 {
				return string(tok), nil
			}
		default:
			tok = append(tok, c)
		}
	}
}

func parseUint(s string) (int, error) {
	n := 0
	if s == "" {
		return 0, fmt.Errorf("imaging: empty numeric field")
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("imaging: bad numeric field %q", s)
		}
		n = n*10 + int(c-'0')
		if n > 1<<30 {
			return 0, fmt.Errorf("imaging: numeric field %q too large", s)
		}
	}
	return n, nil
}
