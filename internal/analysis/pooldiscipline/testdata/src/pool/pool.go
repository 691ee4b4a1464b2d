// Package pool is the pooldiscipline fixture: each function is one
// true-positive, clean, or annotated case.
package pool

import "imaging"

func process(b *imaging.Binary) {}

func smooth(b *imaging.Binary) *imaging.Binary { return b }

func thinInto(dst *imaging.Binary) *imaging.Binary { return dst }

// --- true positives -------------------------------------------------

func leak(w, h int) int {
	b := imaging.GetBinary(w, h) // want "never returned to the pool"
	return len(b.Pix)
}

func leakEscapesReturn(w, h int) *imaging.Binary {
	b := imaging.GetBinary(w, h) // want "escapes this function without a Put"
	return b
}

func leakDirectReturn(w, h int) *imaging.Gray {
	return imaging.GetGray(w, h) // want "escapes via return"
}

func leakHandoff(w, h int) {
	process(imaging.GetBinary(w, h)) // want "passed straight to process"
}

func leakDiscard(w, h int) {
	imaging.GetRGB(w, h) // want "discarded"
}

func useAfterPut(w, h int) int {
	b := imaging.GetBinary(w, h)
	imaging.PutBinary(b)
	return len(b.Pix) // want "used after being returned to the pool"
}

func doublePut(w, h int) {
	g := imaging.GetGray(w, h)
	imaging.PutGray(g)
	imaging.PutGray(g) // want "used after being returned to the pool"
}

func leakStoredInField(w, h int, s *struct{ b *imaging.Binary }) {
	s.b = imaging.GetBinary(w, h) // want "stored somewhere this check cannot follow"
}

// --- clean ----------------------------------------------------------

func cleanPair(w, h int) int {
	b := imaging.GetBinary(w, h)
	n := len(b.Pix)
	imaging.PutBinary(b)
	return n
}

func cleanDefer(w, h int) int {
	b := imaging.GetBinary(w, h)
	defer imaging.PutBinary(b)
	return len(b.Pix)
}

// cleanConditional is the idiom used by extract.Extract: the raw buffer
// is released only when post-processing produced a fresh image.
func cleanConditional(w, h int) *imaging.Binary {
	raw := imaging.GetBinary(w, h)
	out := smooth(raw)
	if out != raw {
		imaging.PutBinary(raw)
	}
	return out
}

// cleanBranchReturn mirrors an extractor with an early exit: one return hands
// the buffer to the caller, the other path recycles it. Having any Put
// satisfies the discipline.
func cleanBranchReturn(w, h int, early bool) *imaging.Binary {
	out := imaging.GetBinary(w, h)
	if early {
		return out
	}
	res := smooth(out)
	if res != out {
		imaging.PutBinary(out)
	}
	return res
}

// --- annotated ownership transfers ----------------------------------

func annotatedEscape(w, h int) *imaging.Binary {
	b := imaging.GetBinary(w, h) //slj:pool-escapes caller owns the buffer
	return b
}

func annotatedHandoff(w, h int) *imaging.Binary {
	//slj:pool-escapes thinInto returns dst; the caller Puts it
	return thinInto(imaging.GetBinary(w, h))
}
