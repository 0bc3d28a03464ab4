package sim

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sensor"
	"repro/internal/stream"
)

// LabConfig emulates the real RFID lab deployment of Section V-C: two
// parallel shelves along the y axis carrying 80 EPC Gen2 tags spaced four
// inches apart, five evenly-spaced reference tags with known positions per
// shelf, and a robot-mounted reader that scans one row, turns around and
// scans the other at 0.1 ft/s with one reading round per second. The robot
// computes its location by dead reckoning, with drift of up to a foot.
//
// The paper emulates different read rates by changing the reader's timeout
// setting (0.25 - 0.75 s); here the timeout selects a read-rate scale applied
// to a spherical sensing profile resembling the learned model of Fig. 5(d).
type LabConfig struct {
	// TagsPerShelf is the number of tags on each of the two shelves
	// (default 40 for the paper's 80 total).
	TagsPerShelf int
	// RefTagsPerShelf is the number of tags per shelf whose positions are
	// known (default 5).
	RefTagsPerShelf int
	// TagSpacing is the spacing between adjacent tags in feet
	// (default 1/3 ft = 4 inches).
	TagSpacing float64
	// AisleHalfWidth is the x distance from the robot path to each shelf
	// face (default 1.0).
	AisleHalfWidth float64
	// ShelfDepth is the depth in feet of the "imagined shelf" region used to
	// restrict location sampling: 0.66 for the small shelf (SS) rows of the
	// paper's table, 2.6 for the large shelf (LS) rows.
	ShelfDepth float64
	// ShelfSegment is the length of each shelf segment in feet (default 4,
	// matching the paper's 0.66x4 ft / 2.6x4 ft descriptions).
	ShelfSegment float64
	// TimeoutMillis is the emulated reader timeout: 250, 500 or 750.
	TimeoutMillis int
	// ReaderStep is the robot speed in feet per epoch (default 0.1).
	ReaderStep float64
	// MaxDrift is the maximum dead-reckoning error in feet (default 1.0).
	MaxDrift float64
	// MotionNoise is the robot's true motion jitter (default 0.02 per axis).
	MotionNoise geom.Vec3
	// Seed seeds the random source.
	Seed int64
}

// DefaultLabConfig returns the small-shelf, 500 ms-timeout configuration.
func DefaultLabConfig() LabConfig {
	return LabConfig{
		TagsPerShelf:    40,
		RefTagsPerShelf: 5,
		TagSpacing:      1.0 / 3.0,
		AisleHalfWidth:  1.0,
		ShelfDepth:      0.66,
		ShelfSegment:    4,
		TimeoutMillis:   500,
		ReaderStep:      0.1,
		MaxDrift:        1.0,
		MotionNoise:     geom.Vec3{X: 0.02, Y: 0.02, Z: 0},
		Seed:            7,
	}
}

// timeoutReadScale maps the emulated timeout setting to a read-rate scale.
// Longer timeouts give tags more time to respond, so raw read rates rise,
// but they also admit more reflected (spurious) reads from wide angles; the
// paper observed slightly worse location accuracy at longer timeouts.
func timeoutReadScale(ms int) float64 {
	switch {
	case ms <= 250:
		return 0.75
	case ms <= 500:
		return 0.88
	default:
		return 0.97
	}
}

// GenerateLab builds the lab deployment trace.
func GenerateLab(cfg LabConfig) (*Trace, error) {
	d := DefaultLabConfig()
	if cfg.TagsPerShelf <= 0 {
		cfg.TagsPerShelf = d.TagsPerShelf
	}
	if cfg.RefTagsPerShelf <= 0 {
		cfg.RefTagsPerShelf = d.RefTagsPerShelf
	}
	if cfg.RefTagsPerShelf > cfg.TagsPerShelf {
		return nil, fmt.Errorf("sim: RefTagsPerShelf (%d) exceeds TagsPerShelf (%d)", cfg.RefTagsPerShelf, cfg.TagsPerShelf)
	}
	if cfg.TagSpacing <= 0 {
		cfg.TagSpacing = d.TagSpacing
	}
	if cfg.AisleHalfWidth <= 0 {
		cfg.AisleHalfWidth = d.AisleHalfWidth
	}
	if cfg.ShelfDepth <= 0 {
		cfg.ShelfDepth = d.ShelfDepth
	}
	if cfg.ShelfSegment <= 0 {
		cfg.ShelfSegment = d.ShelfSegment
	}
	if cfg.TimeoutMillis <= 0 {
		cfg.TimeoutMillis = d.TimeoutMillis
	}
	if cfg.ReaderStep <= 0 {
		cfg.ReaderStep = d.ReaderStep
	}
	if cfg.MaxDrift < 0 {
		cfg.MaxDrift = d.MaxDrift
	}
	if cfg.MotionNoise == (geom.Vec3{}) {
		cfg.MotionNoise = d.MotionNoise
	}
	if cfg.Seed == 0 {
		cfg.Seed = d.Seed
	}

	src := rng.NewMathRand(cfg.Seed)
	rowLength := float64(cfg.TagsPerShelf) * cfg.TagSpacing

	world := model.NewWorld()
	// Shelf A faces the aisle from +x, shelf B from -x. The "imagined shelf"
	// regions extend away from the aisle by ShelfDepth.
	addLabShelves(world, "A", cfg.AisleHalfWidth, cfg.AisleHalfWidth+cfg.ShelfDepth, rowLength, cfg.ShelfSegment)
	addLabShelves(world, "B", -cfg.AisleHalfWidth-cfg.ShelfDepth, -cfg.AisleHalfWidth, rowLength, cfg.ShelfSegment)

	truth := NewGroundTruth()
	trace := &Trace{World: world, Truth: truth}

	// Place tags on both shelf faces. Reference tags are spread evenly.
	refEvery := cfg.TagsPerShelf / cfg.RefTagsPerShelf
	shelfTagCount := 0
	for shelf := 0; shelf < 2; shelf++ {
		x := cfg.AisleHalfWidth
		if shelf == 1 {
			x = -cfg.AisleHalfWidth
		}
		for i := 0; i < cfg.TagsPerShelf; i++ {
			loc := geom.Vec3{X: x, Y: (float64(i) + 0.5) * cfg.TagSpacing, Z: 0}
			isRef := refEvery > 0 && i%refEvery == refEvery/2 && shelfTagCount < 2*cfg.RefTagsPerShelf
			if isRef {
				world.AddShelfTag(ShelfTagID(shelfTagCount), loc)
				shelfTagCount++
				continue
			}
			id := stream.TagID(fmt.Sprintf("lab-%d-%03d", shelf, i))
			trace.ObjectIDs = append(trace.ObjectIDs, id)
			truth.Objects[id] = &ObjectTrack{Initial: loc}
		}
	}

	profile := sensor.ScaledProfile{
		Base:   sensor.DefaultSphereProfile(),
		Factor: timeoutReadScale(cfg.TimeoutMillis),
	}

	runLabRobot(cfg, trace, profile, rowLength, src)
	return trace, trace.Validate()
}

func addLabShelves(world *model.World, name string, x0, x1, rowLength, segment float64) {
	numSegments := int(rowLength/segment) + 1
	for s := 0; s < numSegments; s++ {
		y0 := float64(s) * segment
		y1 := y0 + segment
		if y0 >= rowLength {
			break
		}
		if y1 > rowLength {
			y1 = rowLength
		}
		world.AddShelf(model.Shelf{
			ID:     fmt.Sprintf("lab-shelf-%s-%02d", name, s),
			Region: geom.NewBBox(geom.Vec3{X: x0, Y: y0, Z: 0}, geom.Vec3{X: x1, Y: y1, Z: 0}),
		})
	}
}

// runLabRobot drives the robot up the aisle facing shelf A, then back down
// facing shelf B, with dead-reckoning drift: the reported location lags the
// true location by a bias that grows with distance travelled, up to MaxDrift.
func runLabRobot(cfg LabConfig, trace *Trace, profile sensor.Profile, rowLength float64, src *rng.Source) {
	steps := int(rowLength/cfg.ReaderStep) + 1
	margin := profile.MaxRange() + 0.5
	shelfIDs := trace.World.ShelfTagIDs()

	t := 0
	truePos := geom.Vec3{X: 0, Y: 0, Z: 0}
	travelled := 0.0
	for pass := 0; pass < 2; pass++ {
		dir := 1.0
		phi := 0.0 // facing shelf A (+x)
		if pass == 1 {
			dir = -1.0
			phi = 3.14159265358979 // facing shelf B (-x)
		}
		for step := 0; step < steps; step++ {
			if !(pass == 0 && step == 0) {
				jitter := src.NormalVec(geom.Vec3{}, cfg.MotionNoise)
				truePos = truePos.Add(geom.Vec3{Y: dir * cfg.ReaderStep}).Add(jitter)
				truePos.X *= 0.5 // the robot re-centers in the aisle
				travelled += cfg.ReaderStep
			}
			truePose := geom.Pose{Pos: truePos, Phi: phi}

			// Dead reckoning: the reported location under-counts forward
			// progress, so it trails the true location by a drift that grows
			// with distance travelled (up to MaxDrift), plus small noise.
			drift := cfg.MaxDrift * travelled / (2 * rowLength)
			if drift > cfg.MaxDrift {
				drift = cfg.MaxDrift
			}
			reported := truePos
			reported.Y -= dir * drift
			reported.X += src.Normal(0, 0.05)
			reported.Y += src.Normal(0, 0.05)

			epoch := stream.NewEpoch(t)
			epoch.HasPose = true
			epoch.ReportedPose = geom.Pose{Pos: reported, Phi: phi}

			for _, id := range trace.ObjectIDs {
				loc := trace.Truth.Objects[id].At(t)
				if loc.Y < truePos.Y-margin || loc.Y > truePos.Y+margin {
					continue
				}
				if p := profile.DetectProb(truePose, loc); p > 0 && src.Bernoulli(p) {
					epoch.Observed[id] = true
				}
			}
			for _, id := range shelfIDs {
				loc := trace.World.ShelfTags[id]
				if loc.Y < truePos.Y-margin || loc.Y > truePos.Y+margin {
					continue
				}
				if p := profile.DetectProb(truePose, loc); p > 0 && src.Bernoulli(p) {
					epoch.Observed[id] = true
				}
			}

			trace.Truth.ReaderPoses = append(trace.Truth.ReaderPoses, truePose)
			trace.Epochs = append(trace.Epochs, epoch)
			t++
		}
	}
}
