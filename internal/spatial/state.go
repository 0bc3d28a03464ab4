package spatial

import (
	"repro/internal/checkpoint"
	"repro/internal/geom"
	"repro/internal/stream"
)

const indexSection = "spatial.SensingIndex"

// SaveState appends the index contents — every sensing-region box with its
// associated objects, in insertion (region id) order — to the encoder. The
// R*-tree itself is not serialized: queries answer in region-id order
// whatever the tree's shape, so RestoreState is free to pack a new one.
func (x *SensingIndex) SaveState(e *checkpoint.Encoder) {
	e.Section(indexSection)
	e.Uvarint(uint64(len(x.boxes)))
	for i, box := range x.boxes {
		e.BBox(box)
		e.Uvarint(uint64(len(x.objects[i])))
		for _, id := range x.objects[i] {
			e.String(string(id))
		}
	}
}

// RestoreState replaces the index contents with a SaveState payload. It
// decodes every region first, interning each distinct tag id once, and then
// bulk-loads the R*-tree in one pass (RTree.Load) rather than replaying the
// insertions. Corrupt input errors, never panics, and leaves the index as it
// was.
func (x *SensingIndex) RestoreState(d *checkpoint.Decoder) error {
	d.Section(indexSection)
	n := d.SliceLen(8 * 6)
	boxes := make([]geom.BBox, 0, n)
	objects := make([][]stream.TagID, 0, n)
	intern := make(map[string]stream.TagID)
	for i := 0; i < n && d.Err() == nil; i++ {
		box := d.BBox()
		m := d.SliceLen(1)
		objs := make([]stream.TagID, 0, m)
		for j := 0; j < m && d.Err() == nil; j++ {
			raw := d.StringView()
			id, ok := intern[string(raw)]
			if !ok {
				id = stream.TagID(raw)
				intern[string(id)] = id
			}
			objs = append(objs, id)
		}
		// Insert never stores these, so neither does a restore.
		if !box.IsEmpty() && len(objs) > 0 {
			boxes = append(boxes, box)
			objects = append(objects, objs)
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	x.boxes, x.objects = boxes, objects
	x.hits = make([]uint64, (len(boxes)+63)>>6)
	x.tree.Load(boxes)
	return nil
}
