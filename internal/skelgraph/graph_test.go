package skelgraph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/imaging"
	"repro/internal/thinning"
)

func build(t *testing.T, img *imaging.Binary, opts ...Option) *Graph {
	t.Helper()
	g, err := Build(img, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildEmptyImage(t *testing.T) {
	_, err := Build(imaging.NewBinary(8, 8))
	if !errors.Is(err, ErrEmptySkeleton) {
		t.Fatalf("err = %v, want ErrEmptySkeleton", err)
	}
}

func TestBuildLine(t *testing.T) {
	img := imaging.NewBinary(20, 5)
	for x := 2; x < 18; x++ {
		img.Set(x, 2, 1)
	}
	g := build(t, img)
	if got := len(g.LiveSegments()); got != 1 {
		t.Fatalf("segments = %d, want 1", got)
	}
	if got := len(g.Endpoints()); got != 2 {
		t.Fatalf("endpoints = %d, want 2", got)
	}
	if got := len(g.Junctions()); got != 0 {
		t.Fatalf("junctions = %d, want 0", got)
	}
	if g.Segments[g.LiveSegments()[0]].Len() != 16 {
		t.Errorf("segment length = %d, want 16", g.Segments[g.LiveSegments()[0]].Len())
	}
	if !g.IsForest() {
		t.Error("line graph must be a forest")
	}
}

func TestBuildCross(t *testing.T) {
	img := imaging.FromASCII(`
.....#.....
.....#.....
.....#.....
###########
.....#.....
.....#.....
.....#.....
`)
	g := build(t, img)
	if got := len(g.Endpoints()); got != 4 {
		t.Fatalf("endpoints = %d, want 4: %v", got, g)
	}
	if got := len(g.Junctions()); got != 1 {
		t.Fatalf("junctions = %d, want 1: %v", got, g)
	}
	if got := len(g.LiveSegments()); got != 4 {
		t.Fatalf("segments = %d, want 4", got)
	}
	j := g.Junctions()[0]
	if g.Nodes[j].P != (imaging.Point{X: 5, Y: 3}) {
		t.Errorf("junction at %v, want (5,3)", g.Nodes[j].P)
	}
	if g.Degree(j) != 4 {
		t.Errorf("junction degree = %d, want 4", g.Degree(j))
	}
}

func TestBuildRingIsCut(t *testing.T) {
	img := imaging.FromASCII(`
.######.
.#....#.
.#....#.
.######.
`)
	g := build(t, img)
	if !g.IsForest() {
		t.Fatal("ring was not cut into a forest")
	}
	// An open curve remains: exactly 2 endpoints, nearly all pixels kept.
	if got := len(g.Endpoints()); got != 2 {
		t.Fatalf("endpoints = %d, want 2 after loop cut", got)
	}
	kept := g.ToBinary().Count()
	if kept < img.Count()-2 {
		t.Errorf("loop cut destroyed pixels: %d of %d kept", kept, img.Count())
	}
}

func TestLoopWithTailCutKeepsTail(t *testing.T) {
	// A "P" shape: ring plus stem. The loop must be cut; the stem must
	// survive; the result must stay one connected piece.
	img := imaging.FromASCII(`
.#####.
.#...#.
.#...#.
.#####.
.#.....
.#.....
.#.....
`)
	g := build(t, img)
	if !g.IsForest() {
		t.Fatal("not a forest after cut")
	}
	bin := g.ToBinary()
	if bin.At(1, 6) != 1 {
		t.Error("stem tip lost")
	}
	_, comps := imaging.Components(bin, imaging.Connect8)
	if len(comps) != 1 {
		t.Errorf("components = %d, want 1", len(comps))
	}
}

func TestMaxVsMinSpanningCutLocation(t *testing.T) {
	// Theta shape: an outer ring with a chord. Segment lengths differ:
	// the two arcs are long, the chord is short. Max spanning keeps the
	// long arcs and cuts/detaches the short chord; min spanning does the
	// opposite (keeps the chord, cuts a long arc) — the paper's argument
	// for choosing max.
	img := imaging.FromASCII(`
#########
#.......#
#.......#
#########
#.......#
#.......#
#########
`)
	gMax := build(t, img, WithMaxSpanning(true))
	gMin := build(t, img, WithMaxSpanning(false))
	if !gMax.IsForest() || !gMin.IsForest() {
		t.Fatal("spanning cut left a cycle")
	}
	// In the max version the longest surviving intact (uncut) segment
	// set should have a larger total length than in the min version.
	if gMax.TotalLength() < gMin.TotalLength() {
		t.Errorf("max spanning kept less skeleton (%d) than min (%d)",
			gMax.TotalLength(), gMin.TotalLength())
	}
}

func TestAdjacentJunctionVertices(t *testing.T) {
	// A 2x2 block with four lines radiating: every block pixel is a
	// junction adjacent to other junctions.
	img := imaging.FromASCII(`
#....#
.#..#.
..##..
..##..
.#..#.
#....#
`)
	got := AdjacentJunctionVertices(img)
	if len(got) == 0 {
		t.Fatal("expected adjacent junction vertices in a junction cluster")
	}
	// A plain cross has a single junction with no junction neighbours.
	cross := imaging.FromASCII(`
..#..
..#..
#####
..#..
..#..
`)
	if got := AdjacentJunctionVertices(cross); len(got) != 0 {
		t.Fatalf("plain cross should have none, got %v", got)
	}
}

func TestJunctionClusterStaysConnectedViaBridges(t *testing.T) {
	// X with a thick centre: junction-vertex removal punches out the
	// centre; bridges must reconnect the four arms into one component.
	img := imaging.FromASCII(`
#....#
.#..#.
..##..
..##..
.#..#.
#....#
`)
	g := build(t, img)
	if !g.IsForest() {
		t.Fatal("not a forest")
	}
	comps := g.Components()
	if len(comps) != 1 {
		t.Fatalf("components = %d, want 1 (bridges should reconnect)", len(comps))
	}
}

func TestBridgeDisabled(t *testing.T) {
	img := imaging.FromASCII(`
#....#
.#..#.
..##..
..##..
.#..#.
#....#
`)
	g := build(t, img, WithBridgeRadius(0))
	if len(g.Components()) < 2 {
		t.Skip("junction removal did not disconnect this shape; bridge test not applicable")
	}
}

func TestPruneRemovesNoisyBranch(t *testing.T) {
	// Long horizontal line with a 4-pixel spur: the spur must go.
	img := imaging.FromASCII(`
....................
####################
..........#.........
..........#.........
..........#.........
`)
	g := build(t, img)
	if got := len(g.Endpoints()); got != 3 {
		t.Fatalf("pre-prune endpoints = %d, want 3", got)
	}
	n := g.Prune(DefaultPruneLen)
	if n != 1 {
		t.Fatalf("pruned %d branches, want 1", n)
	}
	if got := len(g.Endpoints()); got != 2 {
		t.Fatalf("post-prune endpoints = %d, want 2", got)
	}
	if g.ToBinary().At(10, 4) != 0 {
		t.Error("spur tip still present")
	}
	if g.ToBinary().At(0, 1) != 1 || g.ToBinary().At(19, 1) != 1 {
		t.Error("main line damaged by pruning")
	}
}

func TestPruneKeepsLongBranches(t *testing.T) {
	img := imaging.FromASCII(`
............#.......
############|#######
............#.......
`)
	// Build a Y with all branches >= threshold: nothing should be pruned.
	img = imaging.NewBinary(40, 30)
	for x := 0; x < 40; x++ {
		img.Set(x, 15, 1)
	}
	for y := 0; y < 15; y++ {
		img.Set(20, y, 1)
	}
	g := build(t, img)
	if n := g.Prune(DefaultPruneLen); n != 0 {
		t.Fatalf("pruned %d branches from an all-long skeleton", n)
	}
}

func TestPruneOneAtATimeVsNaive(t *testing.T) {
	// The Figure 4 scenario: a degree-3 junction carrying a 4-pixel noisy
	// spur and an 8-pixel true branch (both below the 10 threshold), on a
	// long trunk. One-at-a-time keeps the true branch (after the spur is
	// removed the junction merges away and the true branch becomes part
	// of a long segment); naive deletes both.
	mk := func() *imaging.Binary {
		img := imaging.NewBinary(40, 20)
		for x := 0; x < 30; x++ {
			img.Set(x, 10, 1) // trunk, 30 px
		}
		for i := 1; i <= 3; i++ {
			img.Set(29, 10-i, 1) // noisy spur: 4 vertices incl. junction
		}
		for i := 1; i <= 7; i++ {
			img.Set(29+i, 10+i, 1) // true branch: 8 vertices incl. junction
		}
		return img
	}

	gGood := build(t, mk())
	gGood.Prune(DefaultPruneLen)
	goodBin := gGood.ToBinary()
	if goodBin.At(36, 17) != 1 {
		t.Error("one-at-a-time pruning lost the true branch (Figure 4(c) violated)")
	}
	if goodBin.At(29, 7) != 0 {
		t.Error("one-at-a-time pruning kept the noisy spur")
	}

	gBad := build(t, mk())
	gBad.PruneNaive(DefaultPruneLen)
	badBin := gBad.ToBinary()
	if badBin.At(36, 17) != 0 {
		t.Error("naive pruning unexpectedly kept the true branch; ablation broken")
	}
}

func TestNodePathAndPixelPath(t *testing.T) {
	img := imaging.NewBinary(30, 30)
	for x := 0; x < 30; x++ {
		img.Set(x, 15, 1)
	}
	for y := 0; y < 15; y++ {
		img.Set(15, y, 1)
	}
	g := build(t, img)
	ends := g.Endpoints()
	if len(ends) != 3 {
		t.Fatalf("endpoints = %d, want 3", len(ends))
	}
	// Path between the two horizontal tips passes through the junction.
	var left, right int = -1, -1
	for _, e := range ends {
		switch g.Nodes[e].P {
		case imaging.Point{X: 0, Y: 15}:
			left = e
		case imaging.Point{X: 29, Y: 15}:
			right = e
		}
	}
	if left < 0 || right < 0 {
		t.Fatalf("tips not found among endpoints")
	}
	nodes, segs, ok := g.NodePath(left, right)
	if !ok {
		t.Fatal("no path between tips")
	}
	if len(nodes) != 3 || len(segs) != 2 {
		t.Fatalf("path nodes=%d segs=%d, want 3/2", len(nodes), len(segs))
	}
	px, ok := g.PixelPath(left, right)
	if !ok {
		t.Fatal("no pixel path")
	}
	if len(px) != 30 {
		t.Fatalf("pixel path length = %d, want 30", len(px))
	}
	if px[0] != (imaging.Point{X: 0, Y: 15}) || px[len(px)-1] != (imaging.Point{X: 29, Y: 15}) {
		t.Error("pixel path endpoints wrong")
	}
	// Consecutive pixels must be 8-adjacent.
	for i := 1; i < len(px); i++ {
		dx, dy := abs(px[i].X-px[i-1].X), abs(px[i].Y-px[i-1].Y)
		if dx > 1 || dy > 1 || (dx == 0 && dy == 0) {
			t.Fatalf("pixel path discontinuity at %d: %v -> %v", i, px[i-1], px[i])
		}
	}
}

func TestNodePathSameNode(t *testing.T) {
	img := imaging.NewBinary(10, 3)
	for x := 0; x < 10; x++ {
		img.Set(x, 1, 1)
	}
	g := build(t, img)
	e := g.Endpoints()[0]
	nodes, segs, ok := g.NodePath(e, e)
	if !ok || len(nodes) != 1 || len(segs) != 0 {
		t.Fatal("self path should be trivial")
	}
}

func TestNodePathDisconnected(t *testing.T) {
	img := imaging.NewBinary(30, 10)
	for x := 0; x < 8; x++ {
		img.Set(x, 2, 1)
		img.Set(x+20, 7, 1)
	}
	g := build(t, img, WithBridgeRadius(0))
	ends := g.Endpoints()
	if len(ends) != 4 {
		t.Fatalf("endpoints = %d, want 4", len(ends))
	}
	// Find two endpoints in different components.
	var a, b = -1, -1
	for _, e := range ends {
		if g.Nodes[e].P.Y == 2 {
			a = e
		} else {
			b = e
		}
	}
	if _, _, ok := g.NodePath(a, b); ok {
		t.Error("path reported across disconnected components")
	}
}

func TestLongestPath(t *testing.T) {
	// T-shape: longest path is the horizontal bar (20) not via the
	// short stem (5).
	img := imaging.NewBinary(20, 10)
	for x := 0; x < 20; x++ {
		img.Set(x, 0, 1)
	}
	for y := 1; y < 6; y++ {
		img.Set(10, y, 1)
	}
	g := build(t, img)
	path, from, to, ok := longestPath(g)
	if !ok {
		t.Fatal("no longest path")
	}
	if len(path) != 20 {
		t.Fatalf("longest path length = %d, want 20", len(path))
	}
	ys := []int{g.Nodes[from].P.Y, g.Nodes[to].P.Y}
	if ys[0] != 0 || ys[1] != 0 {
		t.Errorf("longest path terminals at y=%v, want both 0", ys)
	}
}

func TestToBinaryRoundTripSimple(t *testing.T) {
	img := imaging.NewBinary(15, 15)
	for i := 0; i < 15; i++ {
		img.Set(i, 7, 1)
	}
	g := build(t, img)
	if !g.ToBinary().Equal(img) {
		t.Error("simple line did not round-trip through the graph")
	}
}

func TestGraphString(t *testing.T) {
	img := imaging.NewBinary(10, 3)
	for x := 0; x < 10; x++ {
		img.Set(x, 1, 1)
	}
	g := build(t, img)
	if s := g.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[NodeKind]string{
		KindEnd: "end", KindJunction: "junction", KindIsolated: "isolated",
		KindChain: "chain", NodeKind(0): "unknown-kind",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String = %q, want %q", k, k.String(), want)
		}
	}
}

func TestBuildForestProperty(t *testing.T) {
	// For random thinned blobs the result must always be a loop-free
	// graph whose rasterisation stays within image bounds.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		img := imaging.NewBinary(48, 48)
		for k := 0; k < 4; k++ {
			a := imaging.Pointf{X: 5 + r.Float64()*38, Y: 5 + r.Float64()*38}
			b := imaging.Pointf{X: 5 + r.Float64()*38, Y: 5 + r.Float64()*38}
			imaging.FillCapsule(img, a, b, 2+r.Float64()*3)
		}
		skel := thinning.Thin(img, thinning.ZhangSuen)
		if skel.Count() == 0 {
			return true
		}
		g, err := Build(skel)
		if err != nil {
			return errors.Is(err, ErrEmptySkeleton)
		}
		if !g.IsForest() {
			return false
		}
		g.Prune(DefaultPruneLen)
		if !g.IsForest() {
			return false
		}
		for _, si := range g.LiveSegments() {
			for _, p := range g.Segments[si].Path {
				if !p.In(g.W, g.H) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPruneTerminates(t *testing.T) {
	// Pruning on a star of short branches must terminate and leave at
	// most a path (prune never deletes the final segment pair since a
	// 2-branch star merges into one end-end segment).
	img := imaging.NewBinary(21, 21)
	for _, d := range []imaging.Point{{X: 1, Y: 0}, {X: 0, Y: 1}, {X: -1, Y: 0}, {X: 0, Y: -1}} {
		for i := 1; i <= 5; i++ {
			img.Set(10+d.X*i, 10+d.Y*i, 1)
		}
	}
	img.Set(10, 10, 1)
	g := build(t, img)
	g.Prune(DefaultPruneLen)
	if !g.IsForest() {
		t.Fatal("not a forest after pruning star")
	}
	// A 4-star of 5-px branches: prune removes one, merges two into a
	// line of 11, removes... final state must have >= 1 live segment.
	if len(g.LiveSegments()) == 0 {
		t.Error("pruning consumed the entire skeleton")
	}
}

func TestHumanSilhouettePipeline(t *testing.T) {
	// End-to-end Section 3: silhouette → thin → graph → prune. The
	// result must be a single-component forest with >= 5 endpoints
	// (head, two hands, two feet) for a spread-eagle figure.
	b := imaging.NewBinary(80, 120)
	imaging.FillDisc(b, imaging.Pointf{X: 40, Y: 15}, 9)
	imaging.FillCapsule(b, imaging.Pointf{X: 40, Y: 24}, imaging.Pointf{X: 40, Y: 70}, 7)
	imaging.FillCapsule(b, imaging.Pointf{X: 40, Y: 34}, imaging.Pointf{X: 12, Y: 55}, 4)
	imaging.FillCapsule(b, imaging.Pointf{X: 40, Y: 34}, imaging.Pointf{X: 68, Y: 55}, 4)
	imaging.FillCapsule(b, imaging.Pointf{X: 37, Y: 70}, imaging.Pointf{X: 25, Y: 112}, 5)
	imaging.FillCapsule(b, imaging.Pointf{X: 43, Y: 70}, imaging.Pointf{X: 55, Y: 112}, 5)
	skel := thinning.Thin(b, thinning.ZhangSuen)
	g := build(t, skel)
	g.Prune(DefaultPruneLen)
	if !g.IsForest() {
		t.Fatal("not a forest")
	}
	if comps := g.Components(); len(comps) != 1 {
		t.Fatalf("components = %d, want 1", len(comps))
	}
	ends := g.Endpoints()
	if len(ends) < 5 {
		t.Errorf("endpoints = %d, want >= 5 (head, hands, feet)", len(ends))
	}
	// The longest path should run roughly head-to-foot: vertical span
	// must cover most of the figure.
	path, _, _, ok := longestPath(g)
	if !ok {
		t.Fatal("no longest path")
	}
	minY, maxY := 1000, -1
	for _, p := range path {
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	if maxY-minY < 70 {
		t.Errorf("longest path vertical span = %d, want >= 70", maxY-minY)
	}
}

func TestKindClassification(t *testing.T) {
	img := imaging.NewBinary(30, 30)
	for x := 0; x < 30; x++ {
		img.Set(x, 15, 1)
	}
	for y := 0; y < 15; y++ {
		img.Set(15, y, 1)
	}
	g := build(t, img)
	ends, juncs := g.Endpoints(), g.Junctions()
	if len(ends) == 0 || len(juncs) == 0 {
		t.Fatal("T-shape should have ends and a junction")
	}
	if g.Kind(ends[0]) != KindEnd {
		t.Errorf("endpoint kind = %v", g.Kind(ends[0]))
	}
	if g.Kind(juncs[0]) != KindJunction {
		t.Errorf("junction kind = %v", g.Kind(juncs[0]))
	}
}

func TestWithAdjacentJunctionRemovalOff(t *testing.T) {
	img := imaging.FromASCII(`
#....#
.#..#.
..##..
..##..
.#..#.
#....#
`)
	g, err := Build(img, WithAdjacentJunctionRemoval(false))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsForest() {
		t.Error("not a forest without junction removal")
	}
}

func TestCompactAfterPrune(t *testing.T) {
	img := imaging.NewBinary(30, 10)
	for x := 0; x < 30; x++ {
		img.Set(x, 5, 1)
	}
	for i := 1; i <= 3; i++ {
		img.Set(15, 5-i, 1) // short spur
	}
	g := build(t, img)
	before := len(g.Segments)
	g.Prune(DefaultPruneLen)
	if len(g.Segments) >= before {
		t.Errorf("Compact did not shrink segments: %d -> %d", before, len(g.Segments))
	}
	// Every node's incident segment indices must be valid post-compact.
	for ni := range g.Nodes {
		for _, si := range g.Nodes[ni].Segs {
			if si < 0 || si >= len(g.Segments) {
				t.Fatalf("node %d references dead segment %d", ni, si)
			}
			s := g.Segments[si]
			if s.A != ni && s.B != ni {
				t.Fatalf("node %d lists segment %d that does not touch it", ni, si)
			}
		}
	}
}

// longestPath returns the pixel path of the tree diameter (longest simple
// path by pixel count) of the largest component, plus its two terminal
// node indices. For a human skeleton this is typically the head-to-foot
// line. Returns ok=false on a graph with no live segments.
func longestPath(g *Graph) (path []imaging.Point, from, to int, ok bool) {
	live := g.LiveSegments()
	if len(live) == 0 {
		return nil, 0, 0, false
	}
	// Double sweep: farthest node from an arbitrary start, then farthest
	// from that. Weight = pixel length of segments. Correct on trees.
	start := g.Segments[live[0]].A
	u, _ := farthestFrom(g, start)
	v, _ := farthestFrom(g, u)
	p, pok := g.PixelPath(u, v)
	if !pok {
		return nil, 0, 0, false
	}
	return p, u, v, true
}

// farthestFrom returns the node at maximum pixel distance from start in
// start's component, measured along tree paths.
func farthestFrom(g *Graph, start int) (node, dist int) {
	dists := make([]int, len(g.Nodes))
	for i := range dists {
		dists[i] = -1
	}
	dists[start] = 0
	queue := []int{start}
	best, bestD := start, 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, si := range g.Nodes[cur].Segs {
			if g.dead[si] {
				continue
			}
			nxt := otherEnd(g.Segments[si], cur)
			if dists[nxt] != -1 {
				continue
			}
			dists[nxt] = dists[cur] + g.Segments[si].Len() - 1
			if dists[nxt] > bestD {
				best, bestD = nxt, dists[nxt]
			}
			queue = append(queue, nxt)
		}
	}
	return best, bestD
}
