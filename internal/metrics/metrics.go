// Package metrics computes the evaluation measures used in Section V:
// inference error (the average distance between reported and true object
// locations, overall and per axis), error reduction relative to a baseline,
// and throughput (time per processed reading).
package metrics

import (
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/stream"
)

// LocationEstimate pairs an object with an estimated location.
type LocationEstimate struct {
	Tag stream.TagID
	Loc geom.Vec3
}

// ErrorReport summarizes location error over a set of objects.
type ErrorReport struct {
	// Count is the number of objects scored.
	Count int
	// MeanXY is the mean Euclidean error in the XY plane (the paper's
	// headline inference-error metric, in feet).
	MeanXY float64
	// MeanX and MeanY are the mean absolute errors along each axis (the
	// columns of the lab-deployment table, Fig. 6(b)).
	MeanX float64
	MeanY float64
	// Mean3D is the mean Euclidean error in all three dimensions.
	Mean3D float64
	// MaxXY is the worst per-object XY error.
	MaxXY float64
	// Missing is the number of objects for which no estimate was available.
	Missing int
}

// TruthLookup resolves an object's true location at a given epoch.
type TruthLookup func(id stream.TagID, t int) (geom.Vec3, bool)

// ScoreEstimates computes the error report for a set of estimates against the
// ground truth evaluated at epoch t.
func ScoreEstimates(estimates []LocationEstimate, truth TruthLookup, t int) ErrorReport {
	var rep ErrorReport
	for _, est := range estimates {
		trueLoc, ok := truth(est.Tag, t)
		if !ok {
			rep.Missing++
			continue
		}
		rep.accumulate(est.Loc, trueLoc)
	}
	rep.finalize()
	return rep
}

// ScoreEvents computes the error report for an event stream, comparing each
// event's location against the ground truth at the event's own time. When an
// object appears in several events only the last one is scored, matching the
// location-update query semantics of considering the most recent report.
func ScoreEvents(events []stream.Event, truth TruthLookup) ErrorReport {
	// Errors are summed in first-appearance order of the tags, so one event
	// stream always scores to the same bits.
	latest := make(map[stream.TagID]int)
	var order []stream.Event
	for _, ev := range events {
		i, ok := latest[ev.Tag]
		if !ok {
			latest[ev.Tag] = len(order)
			order = append(order, ev)
		} else if ev.Time >= order[i].Time {
			order[i] = ev
		}
	}
	var rep ErrorReport
	for _, ev := range order {
		trueLoc, ok := truth(ev.Tag, ev.Time)
		if !ok {
			rep.Missing++
			continue
		}
		rep.accumulate(ev.Loc, trueLoc)
	}
	rep.finalize()
	return rep
}

func (r *ErrorReport) accumulate(est, truth geom.Vec3) {
	dxy := est.DistXY(truth)
	r.Count++
	r.MeanXY += dxy
	r.MeanX += math.Abs(est.X - truth.X)
	r.MeanY += math.Abs(est.Y - truth.Y)
	r.Mean3D += est.Dist(truth)
	if dxy > r.MaxXY {
		r.MaxXY = dxy
	}
}

func (r *ErrorReport) finalize() {
	if r.Count == 0 {
		return
	}
	n := float64(r.Count)
	r.MeanXY /= n
	r.MeanX /= n
	r.MeanY /= n
	r.Mean3D /= n
}

// ErrorReduction returns the fractional error reduction of ours relative to
// the baseline: (baseline - ours) / baseline. A positive value means ours is
// better; 0.49 corresponds to the paper's headline 49% reduction.
func ErrorReduction(ours, baseline float64) float64 {
	if baseline <= 0 {
		return 0
	}
	return (baseline - ours) / baseline
}

// Throughput summarizes processing cost.
type Throughput struct {
	// Readings is the number of readings processed.
	Readings int
	// Elapsed is the wall-clock processing time.
	Elapsed time.Duration
}

// TimePerReading returns the average processing time per reading.
func (t Throughput) TimePerReading() time.Duration {
	if t.Readings == 0 {
		return 0
	}
	return time.Duration(int64(t.Elapsed) / int64(t.Readings))
}

// ReadingsPerSecond returns the sustained throughput in readings per second.
func (t Throughput) ReadingsPerSecond() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.Readings) / t.Elapsed.Seconds()
}
