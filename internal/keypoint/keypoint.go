// Package keypoint extracts the paper's five key points (Head, Chest,
// Hand, Knee, Foot) from a pruned skeleton graph and encodes them as the
// Figure 6 feature vector: the index of the area (of eight around the
// waist) each key point falls in.
//
// The assignment rules come from Section 4:
//
//   - "we set the lowest point to be Foot because no matter what pose it
//     is Foot is always the lowest point";
//   - the highest end vertex is the Head;
//   - "the path from Head to Foot is used as the torso, and the waist
//     location can be estimated. The waist location is set to be in the
//     middle of the torso";
//   - Chest sits midway between Head and waist on that path, Knee midway
//     between waist and Foot;
//   - the Hand is the most protruding remaining end vertex; when the arms
//     overlap the body no such vertex exists and the Hand collapses onto
//     the waist (area 0), which is itself the signature of the "hands
//     overlap with body" poses.
//
// The number of partitions defaults to the paper's 8 but is configurable,
// implementing the conclusion's "more partitions instead of just eight
// ... can be used for feature encoding" extension.
package keypoint

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/imaging"
	"repro/internal/pose"
	"repro/internal/skelgraph"
)

// DefaultPartitions is the paper's eight areas.
const DefaultPartitions = 8

// minHandProtrusion is the minimum distance (pixels) an end vertex must
// stand off the torso path to be accepted as the Hand.
const minHandProtrusion = 4.0

// Errors returned by extraction.
var (
	// ErrDegenerate reports a skeleton with fewer than two end vertices,
	// from which no head-to-foot torso can be formed.
	ErrDegenerate = errors.New("keypoint: degenerate skeleton (fewer than two endpoints)")
	// ErrNoTorso reports that no path connects the chosen head and foot.
	ErrNoTorso = errors.New("keypoint: no head-to-foot path")
)

// Part names one of the five key points.
type Part int

// The five body parts of the BN's hidden nodes.
const (
	PartHead Part = iota + 1
	PartChest
	PartHand
	PartKnee
	PartFoot

	// NumParts is the number of body parts.
	NumParts = int(PartFoot)
)

// String implements fmt.Stringer.
func (p Part) String() string {
	switch p {
	case PartHead:
		return "Head"
	case PartChest:
		return "Chest"
	case PartHand:
		return "Hand"
	case PartKnee:
		return "Knee"
	case PartFoot:
		return "Foot"
	default:
		return fmt.Sprintf("part(%d)", int(p))
	}
}

// partsOrder is the canonical part order as a package-level array so hot
// paths can range over it without the allocation Parts() pays for its
// fresh slice.
var partsOrder = [NumParts]Part{PartHead, PartChest, PartHand, PartKnee, PartFoot}

// Parts lists the five parts in canonical order. The slice is freshly
// allocated; callers may modify it.
func Parts() []Part { return []Part{PartHead, PartChest, PartHand, PartKnee, PartFoot} }

// KeyPoints holds the located key points plus the waist origin. Part
// locations are stored in fixed arrays indexed by Part (it replaced a
// per-frame map allocation); read them with At/Loc/Has and write them
// with Set.
type KeyPoints struct {
	// Waist is the encoding origin (middle of the torso path).
	Waist imaging.Point
	// TorsoLen is the pixel length of the head-to-foot path, a scale
	// reference for protrusion thresholds and tests.
	TorsoLen int

	pos [NumParts]imaging.Point
	has [NumParts]bool
}

// Set records part's pixel location.
func (kp *KeyPoints) Set(part Part, p imaging.Point) {
	kp.pos[part-1] = p
	kp.has[part-1] = true
}

// At returns part's pixel location and whether the part was located. A
// part may be absent (e.g. Hand when the arms overlap the body); absent
// parts encode as area 0.
func (kp KeyPoints) At(part Part) (imaging.Point, bool) {
	return kp.pos[part-1], kp.has[part-1]
}

// Loc returns part's pixel location, or the zero point when absent.
func (kp KeyPoints) Loc(part Part) imaging.Point { return kp.pos[part-1] }

// Has reports whether part was located.
func (kp KeyPoints) Has(part Part) bool { return kp.has[part-1] }

// Count returns the number of located parts.
func (kp KeyPoints) Count() int {
	n := 0
	for _, ok := range kp.has {
		if ok {
			n++
		}
	}
	return n
}

// HandAbsent reports whether the Hand key point is missing — the arms
// overlapped the body and no end vertex protruded past the torso, so
// the Hand collapsed onto the waist (area 0). For the "hands overlap
// with body" poses this is expected; a high rate on other poses is the
// implausible-keypoint signal the pipeline.hand_absent counter tracks.
func (kp KeyPoints) HandAbsent() bool {
	return !kp.Has(PartHand)
}

// Scratch is the arena FromGraphScratch draws its working buffers from:
// the component membership mask and endpoint list, reused between frames
// by one worker. The zero value is ready to use; not safe for concurrent
// use.
type Scratch struct {
	inComp []bool
	ends   []int
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a key-point arena from the pool; pair with
// PutScratch under the usual pool discipline.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns an arena to the pool. The caller must not touch it
// afterwards. nil is ignored.
func PutScratch(sc *Scratch) {
	if sc == nil {
		return
	}
	scratchPool.Put(sc)
}

// FromGraph locates the key points on a built (and ideally pruned)
// skeleton graph, using only its largest connected component.
func FromGraph(g *skelgraph.Graph) (KeyPoints, error) {
	return FromGraphScratch(g, new(Scratch))
}

// FromGraphScratch is FromGraph with its working buffers drawn from a
// per-worker arena. The returned KeyPoints value is self-contained.
//
//slj:hotpath
func FromGraphScratch(g *skelgraph.Graph, sc *Scratch) (KeyPoints, error) {
	// Membership of the largest component as a node-indexed []bool — it
	// replaced the map[int]bool this step used to allocate per frame.
	inComp := g.MarkLargestComponent(sc.inComp)
	sc.inComp = inComp
	ends := sc.ends[:0]
	for e := range g.Nodes {
		if inComp[e] && g.Degree(e) == 1 {
			ends = append(ends, e)
		}
	}
	sc.ends = ends
	if len(ends) < 2 {
		return KeyPoints{}, ErrDegenerate
	}
	// Foot: lowest endpoint; Head: highest endpoint.
	foot, head := ends[0], ends[0]
	for _, e := range ends[1:] {
		if p, f := g.Nodes[e].P, g.Nodes[foot].P; p.Y > f.Y || (p.Y == f.Y && p.X > f.X) {
			foot = e
		}
		if p, h := g.Nodes[e].P, g.Nodes[head].P; p.Y < h.Y || (p.Y == h.Y && p.X < h.X) {
			head = e
		}
	}
	if foot == head {
		return KeyPoints{}, ErrDegenerate
	}
	torso, ok := g.PixelPath(head, foot)
	if !ok || len(torso) < 4 {
		return KeyPoints{}, ErrNoTorso
	}
	kp := KeyPoints{
		Waist:    torso[len(torso)/2],
		TorsoLen: len(torso),
	}
	kp.Set(PartHead, g.Nodes[head].P)
	kp.Set(PartFoot, g.Nodes[foot].P)
	kp.Set(PartChest, torso[len(torso)/4])
	kp.Set(PartKnee, torso[3*len(torso)/4])

	// Hand: the remaining endpoint most distant from the torso path,
	// if it protrudes enough.
	bestDist := minHandProtrusion
	var hand imaging.Point
	found := false
	for _, e := range ends {
		if e == head || e == foot {
			continue
		}
		d := distToPath(g.Nodes[e].P, torso)
		if d > bestDist {
			bestDist, hand, found = d, g.Nodes[e].P, true
		}
	}
	if found {
		kp.Set(PartHand, hand)
	}
	return kp, nil
}

// FromSkeleton2D derives ground-truth key points directly from the
// synthetic body model — the paper's training phase, where "we input the
// locations of Head, Hand and Foot". The waist is the hip root, matching
// the mid-torso convention.
func FromSkeleton2D(s pose.Skeleton2D) KeyPoints {
	foot := s.Ankle
	if s.Toe.Y > foot.Y {
		foot = s.Toe
	}
	kp := KeyPoints{
		Waist:    s.Hip.Round(),
		TorsoLen: int(s.Head.Dist(foot)),
	}
	kp.Set(PartHead, s.Head.Round())
	kp.Set(PartChest, s.Chest.Round())
	kp.Set(PartHand, s.Hand.Round())
	kp.Set(PartKnee, s.Knee.Round())
	kp.Set(PartFoot, foot.Round())
	return kp
}

func distToPath(p imaging.Point, path []imaging.Point) float64 {
	best := math.MaxFloat64
	for _, q := range path {
		dx, dy := float64(p.X-q.X), float64(p.Y-q.Y)
		if d := dx*dx + dy*dy; d < best {
			best = d
		}
	}
	return math.Sqrt(best)
}

// Encoding is the Figure 6 feature vector: for each of the five parts the
// index (1..Partitions) of the area around the waist it falls in, or 0
// when the part is absent or coincides with the waist.
//
// When Rings > 0 the encoding additionally carries radial information —
// the conclusion's "more information would further improve the
// classification results": each part's distance from the waist,
// normalised by the torso length and quantised into Rings bands.
type Encoding struct {
	// Partitions is the number of angular areas (paper: 8).
	Partitions int
	// Area is indexed by Part-1.
	Area [NumParts]int
	// Rings is the number of radial bands (0 disables radial features,
	// the paper's configuration).
	Rings int
	// Ring is indexed by Part-1; 0 = absent/at origin, 1..Rings by
	// growing distance.
	Ring [NumParts]int
}

// Encode computes the area of every key point around the waist origin.
// partitions must be >= 4 and even; the paper's value is 8. Sector
// boundaries are rotated by half a sector so that the cardinal directions
// (straight up, straight down, ...) fall mid-sector, making the encoding
// stable for upright poses.
func Encode(kp KeyPoints, partitions int) (Encoding, error) {
	return EncodeRadial(kp, partitions, 0)
}

// maxRadialSpan is the normalised distance (in torso lengths, i.e.
// head-to-foot path lengths) mapped onto the ring range; parts farther
// out clamp to the outermost ring.
const maxRadialSpan = 0.8

// EncodeRadial computes the Figure 6 area codes plus, when rings > 0,
// a quantised waist distance per part — the "more information" extension
// of the paper's conclusion. rings < 0 is rejected.
//
//slj:hotpath
func EncodeRadial(kp KeyPoints, partitions, rings int) (Encoding, error) {
	if partitions < 4 || partitions%2 != 0 {
		return Encoding{}, fmt.Errorf("keypoint: partitions = %d, want even and >= 4", partitions) //slj:alloc-ok cold validation path, rejected before any frame work
	}
	if rings < 0 {
		return Encoding{}, fmt.Errorf("keypoint: rings = %d, want >= 0", rings) //slj:alloc-ok cold validation path, rejected before any frame work
	}
	enc := Encoding{Partitions: partitions, Rings: rings}
	for _, part := range partsOrder {
		p, ok := kp.At(part)
		if !ok {
			continue // area and ring stay 0
		}
		enc.Area[int(part)-1] = AreaOf(p, kp.Waist, partitions)
		if rings > 0 && kp.TorsoLen > 0 {
			dx, dy := float64(p.X-kp.Waist.X), float64(p.Y-kp.Waist.Y)
			d := math.Sqrt(dx*dx+dy*dy) / float64(kp.TorsoLen)
			ring := int(d/(maxRadialSpan/float64(rings))) + 1
			if ring > rings {
				ring = rings
			}
			if d == 0 {
				ring = 0
			}
			enc.Ring[int(part)-1] = ring
		}
	}
	return enc, nil
}

// AreaOf returns the 1-based area index of point p around origin o, or 0
// when p == o. Area 1 is centred on the forward (+X) direction and
// indices increase counter-clockwise (in standard orientation; note image
// Y grows downward).
func AreaOf(p, o imaging.Point, partitions int) int {
	dx := float64(p.X - o.X)
	dy := float64(o.Y - p.Y) // flip to mathematical orientation
	if dx == 0 && dy == 0 {
		return 0
	}
	theta := math.Atan2(dy, dx) // (-pi, pi]
	if theta < 0 {
		theta += 2 * math.Pi
	}
	sector := 2 * math.Pi / float64(partitions)
	// Rotate by half a sector so direction 0 is a sector centre.
	theta += sector / 2
	if theta >= 2*math.Pi {
		theta -= 2 * math.Pi
	}
	idx := int(theta / sector)
	if idx >= partitions { // guard against FP edge
		idx = partitions - 1
	}
	return idx + 1
}

// Key returns a compact string form of the encoding, usable as a map key
// for counting feature-vector occurrences.
func (e Encoding) Key() string {
	k := fmt.Sprintf("%d:%d,%d,%d,%d,%d", e.Partitions,
		e.Area[0], e.Area[1], e.Area[2], e.Area[3], e.Area[4])
	if e.Rings > 0 {
		k += fmt.Sprintf("|%d:%d,%d,%d,%d,%d", e.Rings,
			e.Ring[0], e.Ring[1], e.Ring[2], e.Ring[3], e.Ring[4])
	}
	return k
}

// OccupiedAreas returns, for the 8 (or Partitions) observed BN nodes, a
// bitmask-like slice: out[j] is true when some part lies in area j+1.
func (e Encoding) OccupiedAreas() []bool {
	out := make([]bool, e.Partitions)
	for _, a := range e.Area {
		if a >= 1 && a <= e.Partitions {
			out[a-1] = true
		}
	}
	return out
}
