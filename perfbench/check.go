package main

import (
	"bytes"
	"fmt"
	"math"

	"repro/rfid"
	"repro/rfid/api"
)

// Correctness checks. Each returns nil when the workload's outputs are
// right; the command exits non-zero when any fails.

// accuracy is the per-object location error of one output stream against
// ground truth: the object's latest reported location, compared in the XY
// plane with where the object truly was at that epoch.
type accuracy struct {
	report rfid.ErrorReport
	errs   samples // per-object XY errors, feet
}

// scoreEvents scores events through rfid.ScoreEvents (which supplies the
// mean and the missing count) and collects the per-object errors under the
// same latest-event rule for the p95.
func scoreEvents(events []rfid.Event, tr *rfid.Trace) accuracy {
	truth := func(id rfid.TagID, t int) (rfid.Vec3, bool) { return tr.Truth.ObjectAt(id, t) }
	acc := accuracy{report: rfid.ScoreEvents(events, truth)}
	latest := map[rfid.TagID]rfid.Event{}
	for _, ev := range events {
		if cur, ok := latest[ev.Tag]; !ok || ev.Time >= cur.Time {
			latest[ev.Tag] = ev
		}
	}
	for _, id := range sortedTags(latest) {
		ev := latest[id]
		if loc, ok := truth(id, ev.Time); ok {
			acc.errs = append(acc.errs, math.Hypot(ev.Loc.X-loc.X, ev.Loc.Y-loc.Y))
		}
	}
	return acc
}

// checkScored: every object of the trace was scored, none missing.
func checkScored(acc accuracy, objects int) error {
	if acc.report.Missing != 0 {
		return fmt.Errorf("%d scored objects have no ground truth", acc.report.Missing)
	}
	if acc.report.Count != objects {
		return fmt.Errorf("%d of %d objects scored: %d missing from the output", acc.report.Count, objects, objects-acc.report.Count)
	}
	return nil
}

// checkAcked: the stream acknowledged every batch sent.
func checkAcked(ackedUpTo, sent uint64) error {
	if ackedUpTo != sent {
		return fmt.Errorf("acknowledged up to batch %d of %d", ackedUpTo, sent)
	}
	return nil
}

// checkRows: the long-poll delivered exactly the rows the in-process
// reference produced — each sequence number once, in order, no gap, every
// row byte-equal.
func checkRows(got []api.QueryResult, want [][]byte) error {
	for i, r := range got {
		if r.Seq != i {
			return fmt.Errorf("row %d has seq %d: rows duplicated, dropped or out of order", i, r.Seq)
		}
		if i >= len(want) {
			return fmt.Errorf("%d rows delivered, reference has %d", len(got), len(want))
		}
		if !bytes.Equal(bytes.TrimSpace(r.Row), want[i]) {
			return fmt.Errorf("row %d differs from the reference: got %s want %s", i, r.Row, want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d rows delivered, reference has %d", len(got), len(want))
	}
	return nil
}

// checkNoFailures: operations were made and none failed (for cold, a failed
// touch is one not answered 2xx).
func checkNoFailures(attempted, failed int) error {
	if attempted == 0 {
		return fmt.Errorf("no operations made")
	}
	if failed != 0 {
		return fmt.Errorf("%d of %d operations failed", failed, attempted)
	}
	return nil
}

// sessionView is what a session reports about its state: the reader pose and
// every tracked tag's belief.
type sessionView struct {
	Reader api.Pose
	Tags   []api.TagSnapshot
}

// referenceView renders an in-process runner in the server's snapshot shape.
func referenceView(r *rfid.Runner) sessionView {
	p := r.ReaderSnapshot()
	v := sessionView{Reader: api.Pose{X: p.Pos.X, Y: p.Pos.Y, Z: p.Pos.Z, Phi: p.Phi}}
	tags := r.Tracked()
	set := map[rfid.TagID]bool{}
	for _, t := range tags {
		set[t] = true
	}
	for _, id := range sortedTags(set) {
		loc, st, ok := r.Snapshot(id)
		v.Tags = append(v.Tags, api.TagSnapshot{
			Tag: string(id), Found: ok, X: loc.X, Y: loc.Y, Z: loc.Z,
			VarX: st.Variance.X, VarY: st.Variance.Y, VarZ: st.Variance.Z,
			NumParticles: st.NumParticles, Compressed: st.Compressed,
		})
	}
	return v
}

// checkSnapshot: a served session's state equals its uncapped in-process
// twin bit for bit.
func checkSnapshot(got, want sessionView) error {
	if got.Reader != want.Reader {
		return fmt.Errorf("reader pose %+v, reference %+v", got.Reader, want.Reader)
	}
	if len(got.Tags) != len(want.Tags) {
		return fmt.Errorf("%d tracked tags, reference %d", len(got.Tags), len(want.Tags))
	}
	for i := range got.Tags {
		if got.Tags[i] != want.Tags[i] {
			return fmt.Errorf("tag %s: %+v, reference %+v", want.Tags[i].Tag, got.Tags[i], want.Tags[i])
		}
	}
	return nil
}
