package spatial

import (
	"fmt"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/geom"
	"repro/internal/stream"
)

// coldShapeIndex builds the index a long-lived session hydrates: n regions
// of a slowly creeping reader, every one overlapping the probe returned
// alongside, each associated with 8 tags out of a few dozen.
func coldShapeIndex(n int) (*SensingIndex, geom.BBox) {
	idx := NewSensingIndex()
	for i := 0; i < n; i++ {
		objs := make([]stream.TagID, 8)
		for j := range objs {
			objs[j] = stream.TagID(fmt.Sprintf("obj-%05d", (i/8+j*3)%48))
		}
		idx.Insert(geom.BBoxAround(geom.V(0.001*float64(i%7), 0.01*float64(i), 0), 3), objs)
	}
	return idx, geom.BBoxAround(geom.V(0, 0.005*float64(n), 0), 3)
}

// BenchmarkSensingIndexRestore measures hydrating the index from its
// checkpoint section: decode every region and rebuild the tree.
func BenchmarkSensingIndexRestore(b *testing.B) {
	for _, n := range []int{160, 600} {
		b.Run(fmt.Sprintf("regions=%d", n), func(b *testing.B) {
			idx, _ := coldShapeIndex(n)
			enc := checkpoint.NewEncoder()
			idx.SaveState(enc)
			payload := enc.Bytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := NewSensingIndex().RestoreState(checkpoint.NewDecoder(payload)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSensingIndexQuery measures the engine's per-epoch Case-2 probe
// against a restored index whose every region overlaps the probe.
func BenchmarkSensingIndexQuery(b *testing.B) {
	for _, n := range []int{160, 600} {
		b.Run(fmt.Sprintf("regions=%d", n), func(b *testing.B) {
			idx, probe := coldShapeIndex(n)
			enc := checkpoint.NewEncoder()
			idx.SaveState(enc)
			restored := NewSensingIndex()
			if err := restored.RestoreState(checkpoint.NewDecoder(enc.Bytes())); err != nil {
				b.Fatal(err)
			}
			if got := len(restored.QueryBoxes(probe)); got != n {
				b.Fatalf("probe overlaps %d of %d regions", got, n)
			}
			buf := restored.QueryInto(probe, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = restored.QueryInto(probe, buf[:0])
			}
		})
	}
}
