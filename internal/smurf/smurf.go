// Package smurf implements the comparison baselines of Section V: SMURF, the
// adaptive RFID smoothing technique of Jeffery et al. (VLDB Journal 2007)
// used by the HiFi project, augmented with the location sampling described in
// Section V-C so that it can produce location events; and the uniform
// sampling baseline used as a bound on worst-case inference error.
//
// SMURF itself decides, per epoch and per tag, whether the tag is still
// within the reader's range by smoothing its readings over an adaptive
// window. It cannot translate readings into locations, so the paper augments
// it: in each epoch where SMURF believes the tag is in range, a location is
// sampled uniformly over the intersection of the read range (centered at the
// reported reader location) and the shelf; when SMURF decides the tag has
// left scope, the sampled locations of that visit are averaged into one
// location estimate.
package smurf

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/stream"
)

// Config configures the augmented SMURF estimator.
type Config struct {
	// ReadRange is the radius in feet of the assumed read range used for
	// location sampling. SMURF cannot learn a sensor model from data, so this
	// is "offered" from our learned model, exactly as the paper does for the
	// comparison.
	ReadRange float64
	// WindowMin and WindowMax bound the adaptive smoothing window, in epochs.
	WindowMin int
	WindowMax int
	// Delta is the completeness confidence parameter of SMURF's window
	// sizing rule (default 0.05).
	Delta float64
	// SamplesPerEpoch is the number of location samples drawn per in-range
	// epoch (default 8).
	SamplesPerEpoch int
	// Seed seeds the sampler.
	Seed int64
}

// DefaultConfig returns the configuration used in the evaluation.
func DefaultConfig() Config {
	return Config{ReadRange: 3.0, WindowMin: 2, WindowMax: 25, Delta: 0.05, SamplesPerEpoch: 8, Seed: 1}
}

func (c *Config) applyDefaults() {
	d := DefaultConfig()
	if c.ReadRange <= 0 {
		c.ReadRange = d.ReadRange
	}
	if c.WindowMin <= 0 {
		c.WindowMin = d.WindowMin
	}
	if c.WindowMax <= 0 {
		c.WindowMax = d.WindowMax
	}
	if c.Delta <= 0 {
		c.Delta = d.Delta
	}
	if c.SamplesPerEpoch <= 0 {
		c.SamplesPerEpoch = d.SamplesPerEpoch
	}
}

// tagState is the per-tag adaptive smoothing state.
type tagState struct {
	window     int   // current window size w_i in epochs
	readEpochs []int // epochs with readings inside the current window
	inRange    bool
	// visit accumulators for the augmented location sampling.
	sampleSum   geom.Vec3
	sampleCount int
	lastRead    int
}

// Estimator is the augmented SMURF baseline.
type Estimator struct {
	cfg   Config
	world *model.World
	src   *rng.Source
	tags  map[stream.TagID]*tagState
	order []stream.TagID
	now   int
}

// New returns an augmented SMURF estimator over the given world (whose shelf
// regions restrict location sampling).
func New(cfg Config, world *model.World) *Estimator {
	cfg.applyDefaults()
	return &Estimator{
		cfg:   cfg,
		world: world,
		src:   rng.NewMathRand(cfg.Seed),
		tags:  make(map[stream.TagID]*tagState),
	}
}

// ProcessEpoch consumes one epoch and returns the location events emitted at
// this epoch (events appear when SMURF decides a tag has left the reader's
// range).
func (e *Estimator) ProcessEpoch(ep *stream.Epoch) []stream.Event {
	e.now = ep.Time
	var events []stream.Event

	// Feed readings.
	for _, id := range ep.ObservedList() {
		if e.world != nil && e.world.IsShelfTag(id) {
			continue
		}
		st, ok := e.tags[id]
		if !ok {
			st = &tagState{window: e.cfg.WindowMin}
			e.tags[id] = st
			e.order = append(e.order, id)
		}
		st.readEpochs = append(st.readEpochs, ep.Time)
		st.lastRead = ep.Time
	}

	// Update every known tag's window and presence decision; sample locations
	// for tags currently believed to be in range.
	for _, id := range e.order {
		st := e.tags[id]
		e.updateWindow(st, ep.Time)
		present := e.present(st, ep.Time)
		switch {
		case present:
			if ep.HasPose {
				for s := 0; s < e.cfg.SamplesPerEpoch; s++ {
					st.sampleSum = st.sampleSum.Add(e.sampleLocation(ep.ReportedPose))
					st.sampleCount++
				}
			}
			st.inRange = true
		case st.inRange:
			// The tag just left scope: emit the averaged location estimate.
			if ev, ok := e.flushVisit(id, st, ep.Time); ok {
				events = append(events, ev)
			}
		}
	}
	stream.ByTimeThenTag(events)
	return events
}

// updateWindow adapts the smoothing window using SMURF's statistical rules:
// grow the window toward the size required for completeness given the
// estimated per-epoch read rate, and shrink it when the readings within the
// window are so few that a transition (the tag moving out of range) is more
// likely than random loss.
func (e *Estimator) updateWindow(st *tagState, now int) {
	// Evict readings that fell out of the maximal window.
	cutoff := now - e.cfg.WindowMax
	i := 0
	for i < len(st.readEpochs) && st.readEpochs[i] <= cutoff {
		i++
	}
	st.readEpochs = st.readEpochs[i:]

	if len(st.readEpochs) == 0 {
		st.window = e.cfg.WindowMin
		return
	}

	// Estimated per-epoch read rate over the current window.
	inWindow := e.countInWindow(st, now)
	pHat := float64(inWindow) / float64(st.window)
	if pHat <= 0 {
		pHat = 1.0 / float64(st.window+1)
	}
	if pHat > 1 {
		pHat = 1
	}

	// Completeness requirement: w* = ceil( 2 ln(1/delta) / pHat ), the
	// binomial-sampling bound SMURF uses to ensure a present tag is read at
	// least once per window with probability 1-delta.
	need := int(math.Ceil(2 * math.Log(1/e.cfg.Delta) / (pHat * 2)))
	if need < e.cfg.WindowMin {
		need = e.cfg.WindowMin
	}
	if need > e.cfg.WindowMax {
		need = e.cfg.WindowMax
	}

	// Transition detection: if the number of observed readings in the window
	// falls more than two standard deviations below its binomial expectation,
	// the tag has likely moved out of range, so the window shrinks to react
	// quickly.
	expected := pHat * float64(st.window)
	sd := math.Sqrt(float64(st.window) * pHat * (1 - pHat))
	recent := e.countSince(st, now-st.window/2)
	if float64(recent) < expected/2-sd && st.window > e.cfg.WindowMin {
		st.window = maxInt(e.cfg.WindowMin, st.window/2)
		return
	}

	// Additive increase toward the completeness requirement.
	if need > st.window {
		st.window++
	} else if need < st.window {
		st.window--
	}
}

func (e *Estimator) countInWindow(st *tagState, now int) int {
	return e.countSince(st, now-st.window)
}

func (e *Estimator) countSince(st *tagState, since int) int {
	n := 0
	for i := len(st.readEpochs) - 1; i >= 0; i-- {
		if st.readEpochs[i] > since {
			n++
		} else {
			break
		}
	}
	return n
}

// present reports SMURF's smoothed presence decision: the tag is considered
// in range if it was read at least once within the current window.
func (e *Estimator) present(st *tagState, now int) bool {
	return e.countInWindow(st, now) > 0
}

// sampleLocation draws one location uniformly over the intersection of the
// read range (the area in front of the antenna within ReadRange of the
// reported reader location) and the shelf regions.
func (e *Estimator) sampleLocation(readerPose geom.Pose) geom.Vec3 {
	return sampleRangeShelfIntersection(e.world, readerPose, e.cfg.ReadRange, e.src)
}

// sampleRangeShelfIntersection draws a point uniformly over the overlap of
// the read range (the half-disc in front of the antenna) and the shelf
// regions, using rejection sampling over the intersection of their bounding
// boxes and a clamped fallback when the overlap is (numerically) empty.
func sampleRangeShelfIntersection(world *model.World, readerPose geom.Pose, r float64, src *rng.Source) geom.Vec3 {
	readerPos := readerPose.Pos
	heading := readerPose.Heading()
	rangeBox := geom.BBoxAround(readerPos, r)
	sampleBox := rangeBox
	hasShelves := world != nil && len(world.Shelves) > 0
	if hasShelves {
		shelfBox := world.ShelfBBox()
		if shelfBox.Intersects(rangeBox) {
			sampleBox = geom.NewBBox(
				geom.Vec3{
					X: maxFloat(rangeBox.Min.X, shelfBox.Min.X),
					Y: maxFloat(rangeBox.Min.Y, shelfBox.Min.Y),
					Z: maxFloat(rangeBox.Min.Z, shelfBox.Min.Z),
				},
				geom.Vec3{
					X: minFloat(rangeBox.Max.X, shelfBox.Max.X),
					Y: minFloat(rangeBox.Max.Y, shelfBox.Max.Y),
					Z: minFloat(rangeBox.Max.Z, shelfBox.Max.Z),
				},
			)
		}
	}
	for attempt := 0; attempt < 128; attempt++ {
		candidate := src.UniformInBox(sampleBox)
		if candidate.DistXY(readerPos) > r {
			continue
		}
		// The read range is directional: only points in front of the antenna
		// can be read.
		if candidate.Sub(readerPos).Dot(heading) < 0 {
			continue
		}
		if hasShelves && !onAnyShelf(world, candidate) {
			continue
		}
		return candidate
	}
	if hasShelves {
		return world.ClampToShelves(readerPos)
	}
	return readerPos
}

func onAnyShelf(world *model.World, p geom.Vec3) bool {
	for _, s := range world.Shelves {
		if s.Contains(p) {
			return true
		}
	}
	return false
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// flushVisit emits the averaged location estimate for a visit and resets the
// accumulators.
func (e *Estimator) flushVisit(id stream.TagID, st *tagState, now int) (stream.Event, bool) {
	st.inRange = false
	if st.sampleCount == 0 {
		return stream.Event{}, false
	}
	loc := st.sampleSum.Scale(1 / float64(st.sampleCount))
	st.sampleSum = geom.Vec3{}
	st.sampleCount = 0
	return stream.Event{Time: now, Tag: id, Loc: loc}, true
}

// Finish flushes all tags that are still considered in range and returns
// their events.
func (e *Estimator) Finish() []stream.Event {
	var events []stream.Event
	ids := make([]stream.TagID, len(e.order))
	copy(ids, e.order)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := e.tags[id]
		if st.sampleCount > 0 {
			if ev, ok := e.flushVisit(id, st, e.now); ok {
				events = append(events, ev)
			}
		}
	}
	return events
}

// Run processes a full epoch sequence and returns all events including the
// final flush.
func (e *Estimator) Run(epochs []*stream.Epoch) []stream.Event {
	var all []stream.Event
	for _, ep := range epochs {
		all = append(all, e.ProcessEpoch(ep)...)
	}
	all = append(all, e.Finish()...)
	return all
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
