package spatial

import (
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
)

func box(x0, y0, x1, y1 float64) geom.BBox {
	return geom.NewBBox(geom.V(x0, y0, 0), geom.V(x1, y1, 0))
}

func TestRTreeInsertAndSearchSmall(t *testing.T) {
	tr := NewRTree(4)
	tr.Insert(box(0, 0, 1, 1), 1)
	tr.Insert(box(2, 2, 3, 3), 2)
	tr.Insert(box(0.5, 0.5, 2.5, 2.5), 3)

	if tr.Len() != 3 {
		t.Errorf("Len = %d", tr.Len())
	}
	got := tr.Search(box(0.9, 0.9, 1.1, 1.1))
	if !containsAll(got, 1, 3) || contains(got, 2) {
		t.Errorf("Search = %v, want {1,3}", got)
	}
	if got := tr.Search(box(10, 10, 11, 11)); len(got) != 0 {
		t.Errorf("Search far away = %v, want empty", got)
	}
	// Empty query boxes return nothing.
	if got := tr.Search(geom.EmptyBBox()); len(got) != 0 {
		t.Errorf("empty query returned %v", got)
	}
	// Empty boxes are not inserted.
	tr.Insert(geom.EmptyBBox(), 99)
	if contains(tr.Search(box(-100, -100, 100, 100)), 99) {
		t.Error("empty box was inserted")
	}
}

func TestRTreeSplitsAndGrows(t *testing.T) {
	tr := NewRTree(4)
	// Insert enough entries to force several node splits and a root split.
	n := 200
	for i := 0; i < n; i++ {
		x := float64(i % 20)
		y := float64(i / 20)
		tr.Insert(box(x, y, x+0.5, y+0.5), i)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if tr.Height() < 2 {
		t.Errorf("expected the tree to grow beyond a single leaf, height = %d", tr.Height())
	}
	// Every entry must be findable by a query centered on it.
	for i := 0; i < n; i++ {
		x := float64(i % 20)
		y := float64(i / 20)
		got := tr.Search(box(x+0.1, y+0.1, x+0.2, y+0.2))
		if !contains(got, i) {
			t.Fatalf("entry %d not found after splits", i)
		}
	}
	// A full-coverage query returns everything exactly once.
	all := tr.Search(box(-1, -1, 30, 30))
	if len(all) != n {
		t.Errorf("full query returned %d entries, want %d", len(all), n)
	}
	seen := map[int]bool{}
	for _, id := range all {
		if seen[id] {
			t.Errorf("entry %d returned twice", id)
		}
		seen[id] = true
	}
}

func TestRTreeSearchFunc(t *testing.T) {
	tr := NewRTree(4)
	for i := 0; i < 10; i++ {
		tr.Insert(box(float64(i), 0, float64(i)+0.9, 1), i)
	}
	count := 0
	tr.SearchFunc(box(2.5, 0, 5.5, 1), func(id int) { count++ })
	if count != 4 {
		t.Errorf("SearchFunc visited %d entries, want 4 (ids 2..5)", count)
	}
}

// Property: R-tree search results always match a brute-force scan, for a
// tree built by Insert, one packed by Load, and a loaded tree grown further
// by Insert.
func TestRTreeMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		var boxes []geom.BBox
		n := 120
		for i := 0; i < n; i++ {
			x := src.Uniform(0, 50)
			y := src.Uniform(0, 50)
			w := src.Uniform(0.1, 4)
			h := src.Uniform(0.1, 4)
			boxes = append(boxes, box(x, y, x+w, y+h))
		}
		built := NewRTree(6)
		for i, b := range boxes {
			built.Insert(b, i)
		}
		loaded := NewRTree(6)
		loaded.Load(boxes)
		grown := NewRTree(6)
		grown.Load(boxes[:n/2])
		for i := n / 2; i < n; i++ {
			grown.Insert(boxes[i], i)
		}
		for q := 0; q < 25; q++ {
			x := src.Uniform(-2, 50)
			y := src.Uniform(-2, 50)
			query := box(x, y, x+src.Uniform(0.1, 8), y+src.Uniform(0.1, 8))
			for _, tr := range []*RTree{built, loaded, grown} {
				got := map[int]bool{}
				for _, id := range tr.Search(query) {
					got[id] = true
				}
				for i, b := range boxes {
					if got[i] != b.Intersects(query) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// checkRTree verifies the structural invariants every R-tree must keep,
// however it was built: each inner entry's box is the union of its child's
// entries, every leaf sits at the same depth, Len() matches the reachable
// payloads, and every payload in want is reachable exactly once (and nothing
// else). With packed set it also checks the fill Load promises: every
// non-root node holds between minEntries and maxEntries entries.
func checkRTree(t *testing.T, tr *RTree, want []int, packed bool) {
	t.Helper()
	count := map[int]int{}
	leafDepth := -1
	var walk func(n *rtreeNode, depth int)
	walk = func(n *rtreeNode, depth int) {
		if n != tr.root && packed && (len(n.entries) < tr.minEntries || len(n.entries) > tr.maxEntries) {
			t.Errorf("node at depth %d holds %d entries, want %d..%d", depth, len(n.entries), tr.minEntries, tr.maxEntries)
		}
		if n.leaf {
			if leafDepth < 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Errorf("leaf at depth %d, another at %d", depth, leafDepth)
			}
			for _, e := range n.entries {
				count[e.id]++
			}
			return
		}
		for _, e := range n.entries {
			if e.child == nil {
				t.Fatalf("inner entry at depth %d has no child", depth)
			}
			if got := nodeBBox(e.child); got != e.box {
				t.Errorf("inner box at depth %d is %v, union of its children %v", depth, e.box, got)
			}
			walk(e.child, depth+1)
		}
	}
	walk(tr.root, 0)
	if leafDepth+1 != tr.Height() {
		t.Errorf("leaves at depth %d but Height() = %d", leafDepth, tr.Height())
	}
	reachable := 0
	for _, c := range count {
		reachable += c
	}
	if tr.Len() != reachable {
		t.Errorf("Len() = %d, %d payloads reachable", tr.Len(), reachable)
	}
	for _, id := range want {
		if count[id] != 1 {
			t.Errorf("payload %d reachable %d times, want once", id, count[id])
		}
		delete(count, id)
	}
	for id := range count {
		t.Errorf("payload %d reachable but never stored", id)
	}
}

// sweepBoxes returns n sensing-region boxes along a serpentine reader path
// through several aisles, the shape the engine indexes.
func sweepBoxes(src *rng.Source, n int) []geom.BBox {
	out := make([]geom.BBox, n)
	for i := range out {
		aisle := i / 200
		y := float64(i%200) * 0.1
		if aisle%2 == 1 {
			y = 20 - y
		}
		c := geom.V(float64(aisle)*4+src.Uniform(-0.2, 0.2), y+src.Uniform(-0.2, 0.2), src.Uniform(0, 2))
		out[i] = geom.BBoxAround(c, src.Uniform(1, 3))
	}
	return out
}

func TestRTreeInvariants(t *testing.T) {
	for _, fanout := range []int{4, 5, 8} {
		for _, n := range []int{0, 1, 7, 8, 9, 17, 64, 65, 300, 1000} {
			src := rng.New(int64(fanout*10000 + n))
			boxes := sweepBoxes(src, n)
			ids := make([]int, n)
			for i := range ids {
				ids[i] = i
			}

			built := NewRTree(fanout)
			for i, b := range boxes {
				built.Insert(b, i)
			}
			checkRTree(t, built, ids, false)

			loaded := NewRTree(fanout)
			loaded.Load(boxes)
			checkRTree(t, loaded, ids, true)

			// Insert after Load: half the boxes packed, the rest inserted,
			// plus some random boxes far from the sweep.
			grown := NewRTree(fanout)
			grown.Load(boxes[:n/2])
			for i := n / 2; i < n; i++ {
				grown.Insert(boxes[i], i)
			}
			extra := ids
			for i := 0; i < 40; i++ {
				x, y := src.Uniform(-30, 60), src.Uniform(-30, 60)
				grown.Insert(box(x, y, x+src.Uniform(0.1, 5), y+src.Uniform(0.1, 5)), n+i)
				extra = append(extra, n+i)
			}
			checkRTree(t, grown, extra, false)
			if t.Failed() {
				t.Fatalf("fanout %d, %d boxes", fanout, n)
			}
		}
	}
	// Load replaces earlier contents and skips empty boxes, like Insert.
	tr := NewRTree(4)
	tr.Insert(box(0, 0, 1, 1), 99)
	tr.Load([]geom.BBox{box(0, 0, 1, 1), geom.EmptyBBox(), box(2, 2, 3, 3)})
	checkRTree(t, tr, []int{0, 2}, true)
}

func contains(ids []int, want int) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

func containsAll(ids []int, want ...int) bool {
	for _, w := range want {
		if !contains(ids, w) {
			return false
		}
	}
	return true
}
