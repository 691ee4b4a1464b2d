package keypoint

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/imaging"
	"repro/internal/pose"
	"repro/internal/skelgraph"
	"repro/internal/thinning"
)

func TestPartString(t *testing.T) {
	want := map[Part]string{
		PartHead: "Head", PartChest: "Chest", PartHand: "Hand",
		PartKnee: "Knee", PartFoot: "Foot",
	}
	for p, w := range want {
		if p.String() != w {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), w)
		}
	}
	if len(Parts()) != NumParts {
		t.Errorf("Parts() = %d, want %d", len(Parts()), NumParts)
	}
}

func TestAreaOf(t *testing.T) {
	o := imaging.Point{X: 50, Y: 50}
	tests := []struct {
		name string
		p    imaging.Point
		want int
	}{
		// With half-sector rotation and 8 partitions, sector centres are
		// at 0°, 45°, 90°, ... counter-clockwise from +X (up = -Y image).
		{"east", imaging.Point{X: 60, Y: 50}, 1},
		{"north-east", imaging.Point{X: 60, Y: 40}, 2},
		{"north (above)", imaging.Point{X: 50, Y: 40}, 3},
		{"north-west", imaging.Point{X: 40, Y: 40}, 4},
		{"west", imaging.Point{X: 40, Y: 50}, 5},
		{"south-west", imaging.Point{X: 40, Y: 60}, 6},
		{"south (below)", imaging.Point{X: 50, Y: 60}, 7},
		{"south-east", imaging.Point{X: 60, Y: 60}, 8},
		{"origin", o, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := AreaOf(tt.p, o, 8); got != tt.want {
				t.Errorf("AreaOf(%v) = %d, want %d", tt.p, got, tt.want)
			}
		})
	}
}

func TestAreaOfMorePartitions(t *testing.T) {
	o := imaging.Point{X: 0, Y: 0}
	// With 16 partitions, east is still area 1 and the count of distinct
	// areas doubles.
	if got := AreaOf(imaging.Point{X: 10, Y: 0}, o, 16); got != 1 {
		t.Errorf("east with 16 partitions = %d, want 1", got)
	}
	if got := AreaOf(imaging.Point{X: 0, Y: -10}, o, 16); got != 5 {
		t.Errorf("north with 16 partitions = %d, want 5", got)
	}
}

func TestAreaOfAllDistinct(t *testing.T) {
	// Walking a circle must visit every area exactly once per sector.
	o := imaging.Point{X: 0, Y: 0}
	seen := make(map[int]bool)
	pts := []imaging.Point{
		{X: 10, Y: 0}, {X: 7, Y: -7}, {X: 0, Y: -10}, {X: -7, Y: -7},
		{X: -10, Y: 0}, {X: -7, Y: 7}, {X: 0, Y: 10}, {X: 7, Y: 7},
	}
	for _, p := range pts {
		a := AreaOf(p, o, 8)
		if a < 1 || a > 8 {
			t.Fatalf("area out of range: %d", a)
		}
		if seen[a] {
			t.Fatalf("area %d repeated", a)
		}
		seen[a] = true
	}
}

func TestEncodeValidation(t *testing.T) {
	kp := KeyPoints{Waist: imaging.Point{X: 0, Y: 0}}
	for _, bad := range []int{0, 2, 3, 7, 9} {
		if _, err := Encode(kp, bad); err == nil {
			t.Errorf("Encode with partitions=%d should fail", bad)
		}
	}
	if _, err := Encode(kp, 8); err != nil {
		t.Errorf("Encode with partitions=8 failed: %v", err)
	}
}

func TestEncodeMissingPartIsZero(t *testing.T) {
	kp := KeyPoints{Waist: imaging.Point{X: 50, Y: 50}}
	kp.Set(PartHead, imaging.Point{X: 50, Y: 10})
	kp.Set(PartFoot, imaging.Point{X: 50, Y: 90})
	enc, err := Encode(kp, 8)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Area[int(PartHand)-1] != 0 {
		t.Error("absent hand should encode as 0")
	}
	if enc.Area[int(PartHead)-1] != 3 {
		t.Errorf("head above waist = area %d, want 3", enc.Area[int(PartHead)-1])
	}
	if enc.Area[int(PartFoot)-1] != 7 {
		t.Errorf("foot below waist = area %d, want 7", enc.Area[int(PartFoot)-1])
	}
}

func TestEncodingKeyAndOccupied(t *testing.T) {
	kp := KeyPoints{Waist: imaging.Point{X: 0, Y: 0}}
	kp.Set(PartHead, imaging.Point{X: 0, Y: -10})
	kp.Set(PartHand, imaging.Point{X: 10, Y: 0})
	kp.Set(PartFoot, imaging.Point{X: 0, Y: 10})
	enc, err := Encode(kp, 8)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Key() == "" {
		t.Error("empty Key()")
	}
	occ := enc.OccupiedAreas()
	if len(occ) != 8 {
		t.Fatalf("OccupiedAreas length = %d", len(occ))
	}
	if !occ[0] || !occ[2] || !occ[6] {
		t.Errorf("areas 1,3,7 should be occupied: %v", occ)
	}
	if occ[1] || occ[3] {
		t.Errorf("unoccupied areas marked: %v", occ)
	}
}

func TestFromSkeleton2DStanding(t *testing.T) {
	s := pose.Compute(imaging.Pointf{X: 100, Y: 100}, 100, pose.Angles(pose.StandHandsAtSides), pose.DefaultProportions())
	kp := FromSkeleton2D(s)
	if kp.Count() != NumParts {
		t.Fatalf("parts = %d, want %d", kp.Count(), NumParts)
	}
	if kp.Loc(PartHead).Y >= kp.Waist.Y {
		t.Error("head should be above waist")
	}
	if kp.Loc(PartFoot).Y <= kp.Waist.Y {
		t.Error("foot should be below waist")
	}
	// Foot must be the lowest of all parts — the paper's anchor rule.
	for _, part := range Parts() {
		if p := kp.Loc(part); p.Y > kp.Loc(PartFoot).Y {
			t.Errorf("%v at %v is lower than foot %v", part, p, kp.Loc(PartFoot))
		}
	}
}

func TestFromSkeleton2DHandsForwardEncoding(t *testing.T) {
	s := pose.Compute(imaging.Pointf{X: 100, Y: 100}, 100, pose.Angles(pose.StandHandsForward), pose.DefaultProportions())
	enc, err := Encode(FromSkeleton2D(s), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Hands forward at shoulder height: the hand is forward-up of the
	// waist, i.e. area 1..3.
	hand := enc.Area[int(PartHand)-1]
	if hand < 1 || hand > 3 {
		t.Errorf("forward hand encoded in area %d, want 1-3", hand)
	}
}

// buildFigure constructs a synthetic silhouette for a given pose, thins it
// and builds the pruned skeleton graph — the full Section 3 front end.
func buildFigure(t *testing.T, p pose.Pose) (*skelgraph.Graph, pose.Skeleton2D) {
	t.Helper()
	root := imaging.Pointf{X: 120, Y: 110}
	const height = 110
	s := pose.Compute(root, height, pose.Angles(p), pose.DefaultProportions())
	prop := pose.DefaultProportions()
	img := imaging.NewBinary(240, 200)
	imaging.FillDisc(img, s.Head, prop.HeadRadius*height)
	imaging.FillCapsule(img, s.Hip, s.Shoulder, 0.055*height)
	imaging.FillCapsule(img, s.Shoulder, s.Elbow, 0.03*height)
	imaging.FillCapsule(img, s.Elbow, s.Hand, 0.025*height)
	imaging.FillCapsule(img, s.Hip, s.Knee, 0.045*height)
	imaging.FillCapsule(img, s.Knee, s.Ankle, 0.035*height)
	imaging.FillCapsule(img, s.Ankle, s.Toe, 0.025*height)
	skel := thinning.Thin(img, thinning.ZhangSuen)
	g, err := skelgraph.Build(skel)
	if err != nil {
		t.Fatal(err)
	}
	g.Prune(skelgraph.DefaultPruneLen)
	return g, s
}

func TestFromGraphStandingFigure(t *testing.T) {
	g, s := buildFigure(t, pose.StandHandsForward)
	kp, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	// Head near the model head, foot near the model toe/ankle (within a
	// generous tolerance: thinning erodes extremities).
	if d := dist(kp.Loc(PartHead), s.Head.Round()); d > 18 {
		t.Errorf("extracted head %v too far from model %v (%.1f px)", kp.Loc(PartHead), s.Head.Round(), d)
	}
	foot := kp.Loc(PartFoot)
	if foot.Y < kp.Waist.Y {
		t.Error("extracted foot above waist")
	}
	// The hand must be found for an arms-forward pose and lie forward of
	// the waist.
	hand, ok := kp.At(PartHand)
	if !ok {
		t.Fatal("hand not found in arms-forward figure")
	}
	if hand.X <= kp.Waist.X {
		t.Errorf("hand %v should be forward (+X) of waist %v", hand, kp.Waist)
	}
}

func TestFromGraphHandsAtSidesHasNoHand(t *testing.T) {
	g, _ := buildFigure(t, pose.StandHandsAtSides)
	kp, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	// Arms overlap the body: any detected "hand" endpoint must be very
	// close to the torso, so either no hand or a tiny protrusion.
	if hand, ok := kp.At(PartHand); ok {
		// Permit a small spur but it must not protrude far forward.
		if dx := hand.X - kp.Waist.X; dx > 25 {
			t.Errorf("phantom hand at %v for arms-at-sides pose", hand)
		}
	}
}

func TestFromGraphDegenerate(t *testing.T) {
	// A single short line: 2 endpoints, still works (head top, foot
	// bottom). A dot graph: degenerate.
	img := imaging.NewBinary(10, 10)
	img.Set(5, 5, 1)
	g, err := skelgraph.Build(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromGraph(g); !errors.Is(err, ErrDegenerate) {
		t.Errorf("err = %v, want ErrDegenerate", err)
	}
}

func TestFromGraphVerticalLine(t *testing.T) {
	img := imaging.NewBinary(11, 60)
	for y := 5; y < 55; y++ {
		img.Set(5, y, 1)
	}
	g, err := skelgraph.Build(img)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if kp.Loc(PartHead) != (imaging.Point{X: 5, Y: 5}) {
		t.Errorf("head = %v", kp.Loc(PartHead))
	}
	if kp.Loc(PartFoot) != (imaging.Point{X: 5, Y: 54}) {
		t.Errorf("foot = %v", kp.Loc(PartFoot))
	}
	// Waist at the middle of the path.
	if kp.Waist.Y < 27 || kp.Waist.Y > 32 {
		t.Errorf("waist = %v, want mid-line", kp.Waist)
	}
	// Chest between head and waist; knee between waist and foot.
	if c := kp.Loc(PartChest); c.Y <= kp.Loc(PartHead).Y || c.Y >= kp.Waist.Y {
		t.Errorf("chest = %v not between head and waist", c)
	}
	if k := kp.Loc(PartKnee); k.Y <= kp.Waist.Y || k.Y >= kp.Loc(PartFoot).Y {
		t.Errorf("knee = %v not between waist and foot", k)
	}
}

func TestPosesEncodeDifferently(t *testing.T) {
	// Ground-truth encodings of representative poses from different
	// stages must differ — otherwise the DBN could never separate them.
	posesToCheck := []pose.Pose{
		pose.StandHandsForward,
		pose.CrouchHandsBackward,
		pose.TakeoffToeOff,
		pose.AirTuck,
		pose.LandCrouch,
	}
	keys := make(map[string]pose.Pose)
	for _, p := range posesToCheck {
		s := pose.Compute(imaging.Pointf{X: 100, Y: 100}, 100, pose.Angles(p), pose.DefaultProportions())
		enc, err := Encode(FromSkeleton2D(s), 8)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := keys[enc.Key()]; dup {
			t.Errorf("poses %v and %v share encoding %s", prev, p, enc.Key())
		}
		keys[enc.Key()] = p
	}
}

func dist(a, b imaging.Point) float64 {
	dx, dy := float64(a.X-b.X), float64(a.Y-b.Y)
	return math.Sqrt(dx*dx + dy*dy)
}

func TestEncodeRadialValidation(t *testing.T) {
	kp := KeyPoints{Waist: imaging.Point{X: 0, Y: 0}}
	if _, err := EncodeRadial(kp, 8, -1); err == nil {
		t.Error("negative rings accepted")
	}
	if _, err := EncodeRadial(kp, 8, 0); err != nil {
		t.Errorf("rings=0 rejected: %v", err)
	}
}

func TestEncodeRadialRingOrdering(t *testing.T) {
	kp := KeyPoints{
		Waist:    imaging.Point{X: 100, Y: 100},
		TorsoLen: 100,
	}
	kp.Set(PartChest, imaging.Point{X: 100, Y: 90}) // near: d = 0.1 torso
	kp.Set(PartHead, imaging.Point{X: 100, Y: 40})  // mid: d = 0.6
	kp.Set(PartHand, imaging.Point{X: 250, Y: 100}) // far beyond span: clamps
	enc, err := EncodeRadial(kp, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	chest := enc.Ring[int(PartChest)-1]
	head := enc.Ring[int(PartHead)-1]
	hand := enc.Ring[int(PartHand)-1]
	if !(chest < head && head <= hand) {
		t.Errorf("ring ordering violated: chest=%d head=%d hand=%d", chest, head, hand)
	}
	if hand != 4 {
		t.Errorf("far hand should clamp to outermost ring, got %d", hand)
	}
	// Missing parts stay ring 0.
	if enc.Ring[int(PartFoot)-1] != 0 {
		t.Error("missing foot should have ring 0")
	}
}

func TestEncodeRadialKeyIncludesRings(t *testing.T) {
	kp := KeyPoints{Waist: imaging.Point{X: 0, Y: 0}, TorsoLen: 50}
	kp.Set(PartHead, imaging.Point{X: 0, Y: -30})
	plain, err := Encode(kp, 8)
	if err != nil {
		t.Fatal(err)
	}
	radial, err := EncodeRadial(kp, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Key() == radial.Key() {
		t.Error("radial encoding key should differ from plain key")
	}
}

func TestEncodeBackCompat(t *testing.T) {
	// Encode must equal EncodeRadial with rings 0.
	s := pose.Compute(imaging.Pointf{X: 100, Y: 100}, 100, pose.Angles(pose.AirTuck), pose.DefaultProportions())
	kp := FromSkeleton2D(s)
	a, err := Encode(kp, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeRadial(kp, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("Encode != EncodeRadial(rings=0): %+v vs %+v", a, b)
	}
}

func TestEncodingTranslationInvariance(t *testing.T) {
	// Property: translating all key points and the waist together leaves
	// the encoding unchanged.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		kp := KeyPoints{
			Waist:    imaging.Point{X: 100, Y: 100},
			TorsoLen: 80,
		}
		for _, part := range Parts() {
			kp.Set(part, imaging.Point{X: 100 + r.Intn(81) - 40, Y: 100 + r.Intn(81) - 40})
		}
		base, err := EncodeRadial(kp, 8, 3)
		if err != nil {
			return false
		}
		dx, dy := r.Intn(201)-100, r.Intn(201)-100
		moved := KeyPoints{
			Waist:    kp.Waist.Add(imaging.Point{X: dx, Y: dy}),
			TorsoLen: kp.TorsoLen,
		}
		for _, part := range Parts() {
			moved.Set(part, kp.Loc(part).Add(imaging.Point{X: dx, Y: dy}))
		}
		got, err := EncodeRadial(moved, 8, 3)
		if err != nil {
			return false
		}
		return got == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
