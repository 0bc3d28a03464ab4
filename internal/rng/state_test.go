package rng

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
)

// drawMix exercises every sampling helper so the position counter is verified
// across all draw shapes (single-draw, multi-draw rejection loops, vectors).
func drawMix(s *Source, out *[]float64) {
	*out = append(*out, s.Float64())
	*out = append(*out, s.Normal(1, 2))
	*out = append(*out, float64(s.Intn(1000)))
	v := s.NormalVec(geom.Vec3{X: 1}, geom.Vec3{X: 1, Y: 2, Z: 3})
	*out = append(*out, v.X, v.Y, v.Z)
	*out = append(*out, s.Uniform(-3, 9))
	c := s.UniformInCone(geom.Pose{Phi: 0.3}, 0.5, 4)
	*out = append(*out, c.X, c.Y, c.Z)
	*out = append(*out, float64(s.Categorical([]float64{0.1, 0.5, 0.2, 0.2})))
	for _, i := range s.Systematic([]float64{0.25, 0.25, 0.5}, 5) {
		*out = append(*out, float64(i))
	}
	if s.Bernoulli(0.5) {
		*out = append(*out, 1)
	} else {
		*out = append(*out, 0)
	}
}

// TestNewAtContinuation is the property the checkpoint subsystem builds on: a
// source restored with NewAt(seed, pos) continues the original stream
// bit-exactly, no matter where the split falls.
func TestNewAtContinuation(t *testing.T) {
	for _, splitRounds := range []int{0, 1, 3, 17} {
		orig := New(42)
		var pre []float64
		for i := 0; i < splitRounds; i++ {
			drawMix(orig, &pre)
		}
		pos := orig.Pos()

		restored := NewAt(42, pos)
		if restored.Pos() != pos {
			t.Fatalf("split %d: restored Pos = %d, want %d", splitRounds, restored.Pos(), pos)
		}
		var a, b []float64
		for i := 0; i < 5; i++ {
			drawMix(orig, &a)
			drawMix(restored, &b)
		}
		if len(a) != len(b) {
			t.Fatalf("split %d: draw counts differ: %d vs %d", splitRounds, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("split %d: draw %d diverged: %v vs %v", splitRounds, i, a[i], b[i])
			}
		}
		if orig.Pos() != restored.Pos() {
			t.Fatalf("split %d: positions diverged after identical draws: %d vs %d", splitRounds, orig.Pos(), restored.Pos())
		}
	}
}

// TestPosAdvances pins that the counter observes the low-level draws (not the
// helper calls), so multi-draw helpers advance it by more than one.
func TestPosAdvances(t *testing.T) {
	s := New(7)
	if s.Pos() != 0 {
		t.Fatalf("fresh source Pos = %d, want 0", s.Pos())
	}
	s.Float64()
	one := s.Pos()
	if one == 0 {
		t.Fatal("Float64 did not advance Pos")
	}
	s.NormalVec(geom.Vec3{}, geom.Vec3{X: 1, Y: 1, Z: 1})
	if s.Pos() <= one {
		t.Fatal("NormalVec did not advance Pos")
	}
	if s.Seed() != 7 {
		t.Fatalf("Seed = %d, want 7", s.Seed())
	}
}

// TestNewAtFarPositions pins that the seek is exact anywhere in the stream:
// NewAt(seed, pos) agrees with a source sought to pos−k and stepped k draws,
// for positions up to 2^40 — far beyond anything a replay could reach — and,
// where stepping from zero is affordable, with a source that really drew pos
// values.
func TestNewAtFarPositions(t *testing.T) {
	const k = 1000
	for _, seed := range []int64{0, 1, 42, -7, math.MaxInt64} {
		for _, pos := range []uint64{k, 1 << 20, 1<<32 + 3, 1 << 40} {
			from := NewAt(seed, pos-k)
			for i := 0; i < k; i++ {
				from.Int63()
			}
			at := NewAt(seed, pos)
			if from.Pos() != pos || at.Pos() != pos {
				t.Fatalf("seed %d pos %d: positions %d and %d", seed, pos, from.Pos(), at.Pos())
			}
			for i := 0; i < 64; i++ {
				if a, b := from.Int63(), at.Int63(); a != b {
					t.Fatalf("seed %d pos %d: draw %d diverged: %d vs %d", seed, pos, i, a, b)
				}
			}
		}
	}
	stepped := New(11)
	for i := 0; i < 100000; i++ {
		stepped.Int63()
	}
	at := NewAt(11, 100000)
	for i := 0; i < 64; i++ {
		if a, b := stepped.Float64(), at.Float64(); a != b {
			t.Fatalf("draw %d after 1e5 steps diverged: %v vs %v", i, a, b)
		}
	}
}

// TestCounterStreamPinned pins the first draws of the counter stream.
// Checkpoints record streams as (seed, pos) only, so any change to the
// generator silently re-randomizes every restored session; a change that is
// intended must bump checkpoint.Version and update these values.
func TestCounterStreamPinned(t *testing.T) {
	want := map[int64][4]uint64{
		0:  {0x98e61d37916ef922, 0x2a1f5373d536b577, 0xf3e5292dbc8f70dc, 0xe90ef0a3c75cd84f},
		42: {0x0134fc0991992248, 0x0fcb7e39b652d492, 0x3900d09b9835dde6, 0xe8a19fd1635c2db1},
	}
	for seed, w := range want {
		s := New(seed)
		for i, v := range w {
			if got := s.ctr.Uint64(); got != v {
				t.Errorf("seed %d draw %d = %#x, want %#x", seed, i, got, v)
			}
		}
	}
}

// TestMathRandMatchesStdlib pins the simulator's and the SMURF baseline's
// generator: NewMathRand(seed) must emit exactly what
// rand.New(rand.NewSource(seed)) emits, so traces and baseline numbers never
// change.
func TestMathRandMatchesStdlib(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 42, 20090401, -3} {
		got := NewMathRand(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 10000; i++ {
			var a, b float64
			switch i % 3 {
			case 0:
				a, b = got.Float64(), ref.Float64()
			case 1:
				a, b = got.Normal(0, 1), ref.NormFloat64()
			default:
				a, b = float64(got.Intn(97)), float64(ref.Intn(97))
			}
			if a != b {
				t.Fatalf("seed %d draw %d: %v, math/rand gives %v", seed, i, a, b)
			}
		}
	}
}

// TestMathRandHasNoPos pins that a NewMathRand stream refuses to report a
// position: it could not be resumed from one.
func TestMathRandHasNoPos(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pos on a NewMathRand source did not panic")
		}
	}()
	NewMathRand(1).Pos()
}

// TestNewAtAllocBound is the allocation gate for stream restore: hydration
// restores one stream per tracked object, so NewAt may allocate only a few
// small objects — never a generator table.
func TestNewAtAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	var sink *Source
	allocs := testing.AllocsPerRun(200, func() { sink = NewAt(12345, 1e9) })
	if allocs > 2 {
		t.Errorf("NewAt allocates %v objects per call, want <= 2", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const n = 1000
	for i := 0; i < n; i++ {
		sink = NewAt(int64(i), uint64(i)<<20)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 128 {
		t.Errorf("NewAt allocates %d bytes per call, want <= 128", per)
	}
	_ = sink
}

// BenchmarkNewAt shows that restore cost does not depend on the position.
func BenchmarkNewAt(b *testing.B) {
	for _, pos := range []uint64{1e3, 1e6, 1e9} {
		b.Run(fmt.Sprintf("pos=%g", float64(pos)), func(b *testing.B) {
			b.ReportAllocs()
			var sink *Source
			for i := 0; i < b.N; i++ {
				sink = NewAt(int64(i), pos)
			}
			_ = sink
		})
	}
}
