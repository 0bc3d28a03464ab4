package sim

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sensor"
	"repro/internal/stream"
)

// WarehouseConfig describes the simulated warehouse of Section V-A:
// consecutive shelves aligned on the y axis with objects evenly spaced on
// them, and an RFID reader mounted on a robot that moves down the y axis
// facing the shelves, advancing a small step each epoch, sensing its location
// and reading nearby tags with noise.
type WarehouseConfig struct {
	// NumObjects is the number of tagged objects placed on the shelves.
	NumObjects int
	// NumShelfTags is the number of reference tags with known locations,
	// spread evenly along the shelf row.
	NumShelfTags int
	// ObjectSpacing is the distance in feet between consecutive objects along
	// the shelf (default 0.5).
	ObjectSpacing float64
	// RowsDeep is the number of object rows in the shelf depth direction
	// (default 1). Using more rows packs more objects per foot of shelf,
	// keeping large-scale traces short.
	RowsDeep int
	// RowSpacing is the x distance between depth rows (default 0.25).
	RowSpacing float64
	// ShelfX is the x coordinate of the front face of the shelves
	// (default 0).
	ShelfX float64
	// ShelfSegment is the length in feet of each individual shelf segment
	// (default 8). Segments only matter for shelf bookkeeping; the row is
	// continuous.
	ShelfSegment float64
	// ReaderOffset is the x distance between the robot path and the shelf
	// face (default 1.5), with the robot facing the shelf.
	ReaderOffset float64
	// ReaderStep is the distance the robot travels along y per epoch
	// (default 0.1, i.e. 0.1 ft/sec with one-second epochs).
	ReaderStep float64
	// ReadsPerEpoch is the number of interrogation rounds per epoch
	// (default 1, the paper's read frequency RF of once per second).
	ReadsPerEpoch int
	// Rounds is the number of scan passes over the whole shelf row
	// (default 1; the scalability experiments use 2).
	Rounds int
	// Profile is the ground-truth sensor profile used to generate readings
	// (default the cone of Fig. 5(a) with RRmajor = 100%).
	Profile sensor.Profile
	// MotionNoise is the per-axis standard deviation of the robot's true
	// motion jitter (default 0.01, the paper's sigma_m).
	MotionNoise geom.Vec3
	// Sensing is the reader location sensing model used to corrupt the
	// reported robot locations (default mu_s = 0, sigma_s = 0.01).
	Sensing model.LocationSensingModel
	// MoveInterval, when positive, relocates MoveCount objects every
	// MoveInterval epochs by MoveDistance feet along the shelf (the
	// moving-object experiment of Fig. 5(h)).
	MoveInterval int
	// MoveDistance is the relocation distance in feet.
	MoveDistance float64
	// MoveCount is the number of objects relocated at each interval
	// (default 1).
	MoveCount int
	// DropPoseEvery, when positive, drops the reader location report from
	// every n-th epoch to exercise robustness to missing location data.
	DropPoseEvery int
	// Seed seeds the simulation's random source.
	Seed int64
}

// DefaultWarehouseConfig returns the configuration used by the sensitivity
// experiments of Section V-B: a modest number of objects, a handful of shelf
// tags, the cone sensor profile and the default noise levels.
func DefaultWarehouseConfig() WarehouseConfig {
	return WarehouseConfig{
		NumObjects:    16,
		NumShelfTags:  4,
		ObjectSpacing: 0.5,
		RowsDeep:      1,
		RowSpacing:    0.25,
		ShelfX:        0,
		ShelfSegment:  8,
		ReaderOffset:  1.5,
		ReaderStep:    0.1,
		ReadsPerEpoch: 1,
		Rounds:        1,
		Profile:       sensor.DefaultConeProfile(),
		MotionNoise:   geom.Vec3{X: 0.01, Y: 0.01, Z: 0},
		Sensing:       model.LocationSensingModel{Noise: geom.Vec3{X: 0.01, Y: 0.01, Z: 0}},
		Seed:          1,
	}
}

func (c *WarehouseConfig) applyDefaults() {
	d := DefaultWarehouseConfig()
	if c.NumObjects <= 0 {
		c.NumObjects = d.NumObjects
	}
	if c.NumShelfTags < 0 {
		c.NumShelfTags = 0
	}
	if c.ObjectSpacing <= 0 {
		c.ObjectSpacing = d.ObjectSpacing
	}
	if c.RowsDeep <= 0 {
		c.RowsDeep = d.RowsDeep
	}
	if c.RowSpacing <= 0 {
		c.RowSpacing = d.RowSpacing
	}
	if c.ShelfSegment <= 0 {
		c.ShelfSegment = d.ShelfSegment
	}
	if c.ReaderOffset <= 0 {
		c.ReaderOffset = d.ReaderOffset
	}
	if c.ReaderStep <= 0 {
		c.ReaderStep = d.ReaderStep
	}
	if c.ReadsPerEpoch <= 0 {
		c.ReadsPerEpoch = d.ReadsPerEpoch
	}
	if c.Rounds <= 0 {
		c.Rounds = d.Rounds
	}
	if c.Profile == nil {
		c.Profile = d.Profile
	}
	if c.MotionNoise == (geom.Vec3{}) {
		c.MotionNoise = d.MotionNoise
	}
	if c.Sensing.Noise == (geom.Vec3{}) {
		c.Sensing.Noise = d.Sensing.Noise
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
}

// ObjectTagID returns the tag id used for the i-th simulated object.
func ObjectTagID(i int) stream.TagID { return stream.TagID(fmt.Sprintf("obj-%05d", i)) }

// ShelfTagID returns the tag id used for the i-th simulated shelf tag.
func ShelfTagID(i int) stream.TagID { return stream.TagID(fmt.Sprintf("shelf-%03d", i)) }

// GenerateWarehouse builds the warehouse world, lays out objects and shelf
// tags, runs the robot over the requested number of scan rounds and returns
// the resulting trace.
func GenerateWarehouse(cfg WarehouseConfig) (*Trace, error) {
	cfg.applyDefaults()
	if cfg.NumObjects <= 0 {
		return nil, fmt.Errorf("sim: NumObjects must be positive")
	}
	src := rng.NewMathRand(cfg.Seed)

	// Lay out objects in a grid: columns along y spaced ObjectSpacing apart,
	// RowsDeep rows into the shelf depth.
	perColumn := cfg.RowsDeep
	columns := (cfg.NumObjects + perColumn - 1) / perColumn
	rowLength := float64(columns) * cfg.ObjectSpacing
	if rowLength < cfg.ShelfSegment {
		rowLength = cfg.ShelfSegment
	}

	world := model.NewWorld()
	depth := float64(cfg.RowsDeep) * cfg.RowSpacing
	if depth < 0.5 {
		depth = 0.5
	}
	numSegments := int(math.Ceil(rowLength / cfg.ShelfSegment))
	for s := 0; s < numSegments; s++ {
		y0 := float64(s) * cfg.ShelfSegment
		y1 := math.Min(y0+cfg.ShelfSegment, rowLength)
		world.AddShelf(model.Shelf{
			ID: fmt.Sprintf("shelf-seg-%03d", s),
			Region: geom.NewBBox(
				geom.Vec3{X: cfg.ShelfX, Y: y0, Z: 0},
				geom.Vec3{X: cfg.ShelfX + depth, Y: y1, Z: 0},
			),
		})
	}

	truth := NewGroundTruth()
	trace := &Trace{World: world, Truth: truth}

	// Objects.
	for i := 0; i < cfg.NumObjects; i++ {
		col := i / perColumn
		row := i % perColumn
		loc := geom.Vec3{
			X: cfg.ShelfX + float64(row)*cfg.RowSpacing,
			Y: (float64(col) + 0.5) * cfg.ObjectSpacing,
			Z: 0,
		}
		id := ObjectTagID(i)
		trace.ObjectIDs = append(trace.ObjectIDs, id)
		truth.Objects[id] = &ObjectTrack{Initial: loc}
	}

	// Shelf tags, spread evenly along the row on the shelf face.
	for i := 0; i < cfg.NumShelfTags; i++ {
		frac := (float64(i) + 0.5) / float64(cfg.NumShelfTags)
		loc := geom.Vec3{X: cfg.ShelfX, Y: frac * rowLength, Z: 0}
		world.AddShelfTag(ShelfTagID(i), loc)
	}

	// Scheduled object movements (Fig. 5(h)).
	if cfg.MoveInterval > 0 && cfg.MoveDistance != 0 {
		scheduleMovements(cfg, trace, rowLength, src)
	}

	// Robot trajectory: back-and-forth passes along y at x = ShelfX - ReaderOffset,
	// always facing the shelf (+x direction).
	gen := &generator{
		cfg:    cfg,
		trace:  trace,
		src:    src,
		objIdx: buildObjectIndex(trace),
	}
	gen.run(rowLength)

	return trace, trace.Validate()
}

// scheduleMovements relocates MoveCount objects every MoveInterval epochs by
// MoveDistance feet along the shelf. Moves always stay within the row (the
// direction flips when a move would run off the end) and no moves are
// scheduled in the final stretch of the trace, so the reader always has a
// chance to observe the object at its new location.
func scheduleMovements(cfg WarehouseConfig, trace *Trace, rowLength float64, src *rng.Source) {
	if len(trace.ObjectIDs) == 0 {
		return
	}
	count := cfg.MoveCount
	if count <= 0 {
		count = 1
	}
	// An upper bound on the number of epochs: rounds * row length / step.
	epochs := int(float64(cfg.Rounds)*rowLength/cfg.ReaderStep) + 1
	lastUsable := epochs - int(0.2*rowLength/cfg.ReaderStep)
	for t := cfg.MoveInterval; t < lastUsable; t += cfg.MoveInterval {
		order := src.Perm(intRange(len(trace.ObjectIDs)))
		moved := 0
		for _, idx := range order {
			if moved >= count {
				break
			}
			id := trace.ObjectIDs[idx]
			track := trace.Truth.Objects[id]
			from := track.At(t)
			to := from
			switch {
			case from.Y+cfg.MoveDistance <= rowLength:
				to.Y = from.Y + cfg.MoveDistance
			case from.Y-cfg.MoveDistance >= 0:
				to.Y = from.Y - cfg.MoveDistance
			default:
				// The requested distance does not fit either way; skip this
				// object.
				continue
			}
			track.AddMove(t, to)
			moved++
		}
	}
}

func intRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
