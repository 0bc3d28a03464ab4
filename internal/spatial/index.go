package spatial

import (
	"math/bits"

	"repro/internal/geom"
	"repro/internal/stream"
)

// SensingIndex is the two-component index of Fig. 4(b)/(c): an R*-tree over
// the bounding boxes of past sensing regions, plus, for each bounding box,
// the set of objects that had at least one particle inside it when the box
// was inserted. Probing the index with the current sensing region yields the
// Case-2 objects: tags not read in the current epoch but read before near the
// current reader location, whose particles therefore need to be
// down-weighted.
//
// Regions are numbered in insertion order (the region id is the R-tree
// payload). Queries answer in region-id order, so their output never depends
// on the tree's shape, and a restore is free to pack the tree in bulk.
type SensingIndex struct {
	tree    *RTree
	boxes   []geom.BBox
	objects [][]stream.TagID

	// hits is the query-time region bitmap (bit i marks region i), kept one
	// bit per region and cleared as each query scans it. seen is the
	// query-time de-duplication scratch, cleared per query. Both are reused
	// so that probing every epoch does not allocate.
	hits []uint64
	seen map[stream.TagID]bool
}

// NewSensingIndex returns an empty index.
func NewSensingIndex() *SensingIndex {
	return &SensingIndex{tree: NewRTree(8), seen: make(map[stream.TagID]bool)}
}

// Len returns the number of indexed sensing regions.
func (x *SensingIndex) Len() int { return len(x.boxes) }

// Insert records a sensing-region bounding box together with the objects that
// currently have at least one particle inside it. Boxes with no associated
// objects are not stored. The objs slice is copied; use InsertOwned when the
// caller can hand over ownership instead.
func (x *SensingIndex) Insert(box geom.BBox, objs []stream.TagID) {
	if box.IsEmpty() || len(objs) == 0 {
		return
	}
	cp := make([]stream.TagID, len(objs))
	copy(cp, objs)
	x.InsertOwned(box, cp)
}

// InsertOwned is Insert taking ownership of objs: the index stores the slice
// directly and the caller must not reuse it. The engine builds each epoch's
// association list once and hands it over, so indexed state is written
// exactly once with no intermediate copies.
func (x *SensingIndex) InsertOwned(box geom.BBox, objs []stream.TagID) {
	if box.IsEmpty() || len(objs) == 0 {
		return
	}
	id := len(x.boxes)
	x.boxes = append(x.boxes, box)
	x.objects = append(x.objects, objs)
	if id>>6 == len(x.hits) {
		x.hits = append(x.hits, 0)
	}
	x.tree.Insert(box, id)
}

// Query returns the union of the objects associated with every indexed
// sensing region that overlaps the query box, de-duplicated, in canonical
// order (see QueryInto).
func (x *SensingIndex) Query(box geom.BBox) []stream.TagID {
	return x.QueryInto(box, nil)
}

// QueryInto is Query appending into a caller-owned buffer (pass dst[:0] to
// reuse its backing array). The order is canonical: the matched regions in
// ascending region id (insertion order), each region's objects in stored
// order, each object kept at its first appearance. The tree only marks the
// matched regions in a bitmap, so its shape never shows in the result.
// The bitmap and the de-duplication map are index-owned scratch, so a warm
// caller probes without allocating; consequently the index is not safe for
// concurrent queries (the engine only queries from the sequential epoch
// prologue).
func (x *SensingIndex) QueryInto(box geom.BBox, dst []stream.TagID) []stream.TagID {
	if box.IsEmpty() || len(x.boxes) == 0 {
		return dst
	}
	x.tree.markHits(x.tree.root, box, x.hits)
	clear(x.seen)
	out := dst
	for w, word := range x.hits {
		if word == 0 {
			continue
		}
		x.hits[w] = 0
		for ; word != 0; word &= word - 1 {
			for _, obj := range x.objects[w<<6|bits.TrailingZeros64(word)] {
				if !x.seen[obj] {
					x.seen[obj] = true
					out = append(out, obj)
				}
			}
		}
	}
	return out
}

// QueryBoxes returns the bounding boxes overlapping the query box; exposed
// for tests and diagnostics.
func (x *SensingIndex) QueryBoxes(box geom.BBox) []geom.BBox {
	var out []geom.BBox
	x.tree.SearchFunc(box, func(id int) {
		out = append(out, x.boxes[id])
	})
	return out
}
