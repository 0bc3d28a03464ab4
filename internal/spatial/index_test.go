package spatial

import (
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/stream"
)

func TestSensingIndexInsertAndQuery(t *testing.T) {
	idx := NewSensingIndex()
	if idx.Len() != 0 {
		t.Error("new index not empty")
	}
	// Two sensing regions along a scan path, each with the objects whose
	// particles fell inside.
	idx.Insert(geom.BBoxAround(geom.V(0, 0, 0), 2), []stream.TagID{"a", "b"})
	idx.Insert(geom.BBoxAround(geom.V(0, 5, 0), 2), []stream.TagID{"c"})
	if idx.Len() != 2 {
		t.Errorf("Len = %d", idx.Len())
	}

	// A query overlapping only the first region returns its objects (Case 2
	// of Fig. 4: read before near the current reader location).
	got := idx.Query(geom.BBoxAround(geom.V(0, 1, 0), 1.5))
	if !hasTag(got, "a") || !hasTag(got, "b") || hasTag(got, "c") {
		t.Errorf("Query = %v", got)
	}
	// A query far from every recorded region returns nothing (Case 4 objects
	// are skipped entirely).
	if got := idx.Query(geom.BBoxAround(geom.V(0, 50, 0), 2)); len(got) != 0 {
		t.Errorf("far query = %v", got)
	}
	// A query overlapping both regions returns the union without duplicates.
	got = idx.Query(geom.BBoxAround(geom.V(0, 2.5, 0), 3))
	if len(got) != 3 {
		t.Errorf("union query = %v", got)
	}
}

func TestSensingIndexDeduplicatesAcrossRegions(t *testing.T) {
	idx := NewSensingIndex()
	// The same object appears in several overlapping sensing regions, as
	// happens when the reader creeps along a shelf.
	for i := 0; i < 10; i++ {
		idx.Insert(geom.BBoxAround(geom.V(0, float64(i)*0.1, 0), 2), []stream.TagID{"obj"})
	}
	got := idx.Query(geom.BBoxAround(geom.V(0, 0.5, 0), 1))
	count := 0
	for _, id := range got {
		if id == "obj" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("object returned %d times, want 1", count)
	}
}

func TestSensingIndexIgnoresEmptyInserts(t *testing.T) {
	idx := NewSensingIndex()
	idx.Insert(geom.EmptyBBox(), []stream.TagID{"a"})
	idx.Insert(geom.BBoxAround(geom.V(0, 0, 0), 1), nil)
	if idx.Len() != 0 {
		t.Errorf("empty inserts were stored: %d", idx.Len())
	}
	if got := idx.Query(geom.BBoxAround(geom.V(0, 0, 0), 1)); len(got) != 0 {
		t.Errorf("query on empty index = %v", got)
	}
}

func TestSensingIndexCopiesObjectSlices(t *testing.T) {
	idx := NewSensingIndex()
	objs := []stream.TagID{"a"}
	idx.Insert(geom.BBoxAround(geom.V(0, 0, 0), 1), objs)
	objs[0] = "mutated"
	got := idx.Query(geom.BBoxAround(geom.V(0, 0, 0), 1))
	if !hasTag(got, "a") || hasTag(got, "mutated") {
		t.Error("index aliases the caller's slice")
	}
}

func TestSensingIndexQueryBoxes(t *testing.T) {
	idx := NewSensingIndex()
	b := geom.BBoxAround(geom.V(1, 1, 0), 1)
	idx.Insert(b, []stream.TagID{"a"})
	boxes := idx.QueryBoxes(geom.BBoxAround(geom.V(1, 1, 0), 0.5))
	if len(boxes) != 1 || boxes[0] != b {
		t.Errorf("QueryBoxes = %v", boxes)
	}
}

// TestQueryIntoZeroAlloc pins that a warm probe (the engine's per-epoch
// Case-2 lookup) allocates nothing: the region bitmap, the de-duplication map
// and the caller's buffer are all reused.
func TestQueryIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	idx := NewSensingIndex()
	for i := 0; i < 300; i++ {
		idx.Insert(geom.BBoxAround(geom.V(0, float64(i)*0.05, 0), 2), []stream.TagID{
			stream.TagID(fmt.Sprintf("obj-%d", i%37)), stream.TagID(fmt.Sprintf("obj-%d", (i*7)%37)),
		})
	}
	probe := geom.BBoxAround(geom.V(0, 7, 0), 3)
	buf := idx.QueryInto(probe, nil)
	if len(buf) == 0 {
		t.Fatal("probe matched nothing")
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = idx.QueryInto(probe, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("warm QueryInto allocated %.1f times per call, want 0", allocs)
	}
}

func hasTag(ids []stream.TagID, want stream.TagID) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}
