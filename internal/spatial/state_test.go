package spatial

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/stream"
)

// TestSensingIndexStateRoundTrip pins that a restored index answers queries
// identically to the original, in the same order.
func TestSensingIndexStateRoundTrip(t *testing.T) {
	a := NewSensingIndex()
	for i := 0; i < 12; i++ {
		box := geom.NewBBox(
			geom.Vec3{X: float64(i), Y: float64(i)},
			geom.Vec3{X: float64(i) + 2, Y: float64(i) + 2, Z: 1},
		)
		a.Insert(box, []stream.TagID{
			stream.TagID("obj-" + string(rune('a'+i%4))),
			stream.TagID("obj-x"),
		})
	}

	enc := checkpoint.NewEncoder()
	a.SaveState(enc)
	b := NewSensingIndex()
	if err := b.RestoreState(checkpoint.NewDecoder(enc.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("restored index holds %d entries, want %d", b.Len(), a.Len())
	}
	for i := 0; i < 14; i++ {
		probe := geom.NewBBox(
			geom.Vec3{X: float64(i) - 0.5, Y: float64(i) - 0.5},
			geom.Vec3{X: float64(i) + 0.5, Y: float64(i) + 0.5, Z: 1},
		)
		want := a.Query(probe)
		got := b.Query(probe)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("probe %d diverged: %v vs %v", i, got, want)
		}
	}
}

// TestSensingIndexRestoreRejectsCorrupt pins error-not-panic.
func TestSensingIndexRestoreRejectsCorrupt(t *testing.T) {
	a := NewSensingIndex()
	a.Insert(geom.NewBBox(geom.Vec3{}, geom.Vec3{X: 1, Y: 1, Z: 1}), []stream.TagID{"o"})
	enc := checkpoint.NewEncoder()
	a.SaveState(enc)
	payload := enc.Bytes()
	for _, cut := range []int{0, 1, len(payload) - 1} {
		if err := NewSensingIndex().RestoreState(checkpoint.NewDecoder(payload[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

// sweepIndex inserts one sensing region per box, each associated with 1..10
// tags drawn from k distinct ids, favouring ids near the region's position in
// the sweep.
func sweepIndex(idx *SensingIndex, src *rng.Source, boxes []geom.BBox, k int) {
	for i, b := range boxes {
		objs := make([]stream.TagID, 1+src.Intn(10))
		for j := range objs {
			objs[j] = stream.TagID(fmt.Sprintf("obj-%04d", (i/4+src.Intn(30))%k))
		}
		idx.Insert(b, objs)
	}
}

// naiveQuery is the reference for the canonical query order: every region
// overlapping the probe in ascending region id, its objects de-duplicated by
// first appearance.
func naiveQuery(x *SensingIndex, probe geom.BBox) []stream.TagID {
	var out []stream.TagID
	seen := map[stream.TagID]bool{}
	for i, b := range x.boxes {
		if !b.Intersects(probe) {
			continue
		}
		for _, id := range x.objects[i] {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// TestSensingIndexRestoreMatchesIncremental is the property the bulk-loaded
// restore rests on: an index built by incremental insertion and one restored
// through SaveState/RestoreState (a differently shaped tree) return equal
// slices, in the same canonical order, for every probe — before and after
// both receive further insertions.
func TestSensingIndexRestoreMatchesIncremental(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		src := rng.New(seed)
		n := 100 + src.Intn(700)
		boxes := sweepBoxes(src, n+150)
		a := NewSensingIndex()
		sweepIndex(a, src, boxes[:n], 60)
		if a.tree.Height() < 3 {
			t.Fatalf("seed %d: %d regions give height %d, want >= 3", seed, n, a.tree.Height())
		}

		enc := checkpoint.NewEncoder()
		a.SaveState(enc)
		b := NewSensingIndex()
		if err := b.RestoreState(checkpoint.NewDecoder(enc.Bytes())); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}

		compare := func(stage string) {
			t.Helper()
			if a.Len() != b.Len() {
				t.Fatalf("seed %d %s: %d vs %d regions", seed, stage, a.Len(), b.Len())
			}
			for q := 0; q < 200; q++ {
				c := geom.V(src.Uniform(-4, 20), src.Uniform(-4, 24), src.Uniform(-1, 3))
				probe := geom.BBoxAround(c, src.Uniform(0.1, 4))
				want := naiveQuery(a, probe)
				got := a.Query(probe)
				restored := b.Query(probe)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(restored, want) {
					t.Fatalf("seed %d %s probe %v:\nincremental %v\nrestored    %v\nwant        %v",
						seed, stage, probe, got, restored, want)
				}
			}
		}
		compare("after restore")

		// Both keep growing identically after the restore.
		more := rng.New(seed + 100)
		sweepIndex(a, more, boxes[n:], 60)
		more = rng.New(seed + 100)
		sweepIndex(b, more, boxes[n:], 60)
		compare("after further inserts")
		checkRTree(t, b.tree, seqIDs(b.Len()), false)

		encA, encB := checkpoint.NewEncoder(), checkpoint.NewEncoder()
		a.SaveState(encA)
		b.SaveState(encB)
		if !reflect.DeepEqual(encA.Bytes(), encB.Bytes()) {
			t.Fatalf("seed %d: incremental and restored indexes save different bytes", seed)
		}
	}
}

func seqIDs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestSensingIndexRestoreAllocBound pins that restoring R regions over K
// distinct tag ids allocates one object list per region and one string per
// distinct id, plus a constant (slices, the intern map, the packed tree):
// tag ids are interned, not copied per (region, object).
func TestSensingIndexRestoreAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const regions, distinct = 600, 40
	a := NewSensingIndex()
	for i := 0; i < regions; i++ {
		objs := make([]stream.TagID, 8)
		for j := range objs {
			objs[j] = stream.TagID(fmt.Sprintf("obj-%04d", (i+j*5)%distinct))
		}
		a.Insert(geom.BBoxAround(geom.V(0, float64(i)*0.01, 0), 3), objs)
	}
	enc := checkpoint.NewEncoder()
	a.SaveState(enc)
	payload := enc.Bytes()
	var b *SensingIndex
	allocs := testing.AllocsPerRun(5, func() {
		b = NewSensingIndex()
		if err := b.RestoreState(checkpoint.NewDecoder(payload)); err != nil {
			t.Fatal(err)
		}
	})
	const slack = 32
	if limit := float64(regions + distinct + slack); allocs > limit {
		t.Fatalf("restore of %d regions over %d ids: %.0f allocs, want <= %.0f", regions, distinct, allocs, limit)
	}
	t.Logf("restore of %d regions over %d ids: %.0f allocs", regions, distinct, allocs)
	if b.Len() != regions {
		t.Fatalf("restored %d regions, want %d", b.Len(), regions)
	}
}
