package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/rfid"
	"repro/rfid/api"
)

// Workload inputs. Every generator is a pure function of the --seed value
// (and, for live, of the run length), built with the simulator in
// internal/sim through the public rfid API; the program under test only ever
// sees the generated raw streams.

// workloadSeed derives the simulator seed of one workload input from the
// run's seed, so the workloads never share a world.
func workloadSeed(seed int64, name string, index int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", name, seed, index)
	return int64(h.Sum64() >> 1)
}

// replayTrace is the offline-cleaning input: a ~1000-object warehouse, four
// rows deep at 0.25 ft spacing, with two objects relocated every 100 epochs
// (the moving-object case of the paper's Fig. 5(h)). One pass is 626 epochs.
func replayTrace(seed int64) (*rfid.Trace, error) {
	cfg := rfid.DefaultWarehouseConfig()
	cfg.NumObjects = 1000
	cfg.NumShelfTags = 8
	cfg.ObjectSpacing = 0.25
	cfg.RowsDeep = 4
	cfg.MoveInterval = 100
	cfg.MoveDistance = 2
	cfg.MoveCount = 2
	cfg.Seed = workloadSeed(seed, "replay", 0)
	return rfid.SimulateWarehouse(cfg)
}

// liveTrace is the mobile reader's world for the live workload: one pass
// down a two-row-deep aisle long enough that the reader never reaches its end
// during warm-up plus the timed epochs (4 objects per foot, 10 epochs per
// foot).
func liveTrace(seed int64, epochs int) (*rfid.Trace, error) {
	cfg := rfid.DefaultWarehouseConfig()
	cfg.RowsDeep = 2
	cfg.ObjectSpacing = 0.5
	cfg.NumShelfTags = 8
	cfg.NumObjects = 4 * (epochs/10 + 1)
	cfg.Seed = workloadSeed(seed, "live", 0)
	return rfid.SimulateWarehouse(cfg)
}

// coldTrace is one cold session's small world: 8 objects on an 8 ft shelf,
// scanned four times (80 epochs a pass).
func coldTrace(seed int64, session int) (*rfid.Trace, error) {
	cfg := rfid.DefaultWarehouseConfig()
	cfg.NumObjects = 8
	cfg.NumShelfTags = 2
	cfg.ObjectSpacing = 1
	cfg.Rounds = 4
	cfg.Seed = workloadSeed(seed, "cold", session)
	return rfid.SimulateWarehouse(cfg)
}

// batch is one epoch's raw records as they go over the wire.
type batch struct {
	Time      int
	Readings  []api.Reading
	Locations []api.LocationReport
}

func (b batch) request() api.IngestRequest {
	return api.IngestRequest{Readings: b.Readings, Locations: b.Locations}
}

// epochBatches splits a trace's raw streams into one batch per epoch.
func epochBatches(tr *rfid.Trace) []batch {
	out := make([]batch, 0, len(tr.Epochs))
	for _, ep := range tr.Epochs {
		b := batch{Time: ep.Time}
		for _, id := range ep.ObservedList() {
			b.Readings = append(b.Readings, api.Reading{Time: ep.Time, Tag: string(id)})
		}
		if ep.HasPose {
			p := ep.ReportedPose
			b.Locations = append(b.Locations, api.LocationReport{
				Time: ep.Time, X: p.Pos.X, Y: p.Pos.Y, Z: p.Pos.Z, Phi: p.Phi, HasPhi: true,
			})
		}
		out = append(out, b)
	}
	return out
}

// merge concatenates batches into one (the cold warm-up pass is sent as a
// single ingest).
func merge(bs []batch) batch {
	var m batch
	for _, b := range bs {
		m.Time = b.Time
		m.Readings = append(m.Readings, b.Readings...)
		m.Locations = append(m.Locations, b.Locations...)
	}
	return m
}

// apiWorld converts a simulated world into the session-creation schema.
func apiWorld(w *rfid.World) *api.World {
	out := &api.World{}
	for _, sh := range w.Shelves {
		out.Shelves = append(out.Shelves, api.Shelf{
			ID:  sh.ID,
			Min: api.Vec3{X: sh.Region.Min.X, Y: sh.Region.Min.Y, Z: sh.Region.Min.Z},
			Max: api.Vec3{X: sh.Region.Max.X, Y: sh.Region.Max.Y, Z: sh.Region.Max.Z},
		})
	}
	for _, id := range sortedTags(w.ShelfTags) {
		loc := w.ShelfTags[id]
		out.ShelfTags = append(out.ShelfTags, api.ShelfTag{Tag: string(id), Loc: api.Vec3{X: loc.X, Y: loc.Y, Z: loc.Z}})
	}
	return out
}

// inputDigest hashes everything a workload sends to the program: the
// session worlds and every raw record, in order. Two runs see identical
// inputs exactly when their digests match.
func inputDigest(worlds []*api.World, batches [][]batch) string {
	h := sha256.New()
	var buf [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, w := range worlds {
		for _, sh := range w.Shelves {
			fmt.Fprintf(h, "shelf %s\n", sh.ID)
			f(sh.Min.X)
			f(sh.Min.Y)
			f(sh.Min.Z)
			f(sh.Max.X)
			f(sh.Max.Y)
			f(sh.Max.Z)
		}
		for _, t := range w.ShelfTags {
			fmt.Fprintf(h, "tag %s\n", t.Tag)
			f(t.Loc.X)
			f(t.Loc.Y)
			f(t.Loc.Z)
		}
	}
	for _, bs := range batches {
		for _, b := range bs {
			fmt.Fprintf(h, "epoch %d\n", b.Time)
			for _, r := range b.Readings {
				fmt.Fprintf(h, "r %d %s\n", r.Time, r.Tag)
			}
			for _, l := range b.Locations {
				fmt.Fprintf(h, "l %d %t\n", l.Time, l.HasPhi)
				f(l.X)
				f(l.Y)
				f(l.Z)
				f(l.Phi)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
