package smurf

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/stream"
)

// Uniform is the worst-case baseline of Section V-B: whenever an object is
// read, its location is re-sampled uniformly over the overlapping area of the
// sensor's read range (in front of the antenna, centered at the reported
// reader location) and the shelf. The most recent sample is reported. There
// is no smoothing and no inference, so the reported location is only as good
// as a single uniform draw over the sensing region — the paper uses it as a
// bound on worst-case inference error.
type Uniform struct {
	cfg   Config
	world *model.World
	src   *rng.Source

	latest map[stream.TagID]geom.Vec3
	order  []stream.TagID
	now    int
}

// NewUniform returns the uniform sampling baseline.
func NewUniform(cfg Config, world *model.World) *Uniform {
	cfg.applyDefaults()
	return &Uniform{
		cfg:    cfg,
		world:  world,
		src:    rng.NewMathRand(cfg.Seed + 7919),
		latest: make(map[stream.TagID]geom.Vec3),
	}
}

// ProcessEpoch consumes one epoch. The uniform baseline emits nothing until
// Finish.
func (u *Uniform) ProcessEpoch(ep *stream.Epoch) {
	u.now = ep.Time
	if !ep.HasPose {
		return
	}
	for _, id := range ep.ObservedList() {
		if u.world != nil && u.world.IsShelfTag(id) {
			continue
		}
		if _, ok := u.latest[id]; !ok {
			u.order = append(u.order, id)
		}
		u.latest[id] = u.sampleLocation(ep.ReportedPose)
	}
}

func (u *Uniform) sampleLocation(readerPose geom.Pose) geom.Vec3 {
	return sampleRangeShelfIntersection(u.world, readerPose, u.cfg.ReadRange, u.src)
}

// Finish returns one averaged location event per object seen.
func (u *Uniform) Finish() []stream.Event {
	ids := make([]stream.TagID, len(u.order))
	copy(ids, u.order)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var events []stream.Event
	for _, id := range ids {
		loc, ok := u.latest[id]
		if !ok {
			continue
		}
		events = append(events, stream.Event{Time: u.now, Tag: id, Loc: loc})
	}
	return events
}

// Run processes a full epoch sequence and returns the final events.
func (u *Uniform) Run(epochs []*stream.Epoch) []stream.Event {
	for _, ep := range epochs {
		u.ProcessEpoch(ep)
	}
	return u.Finish()
}
