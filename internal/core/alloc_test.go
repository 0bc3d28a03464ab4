package core

import (
	"runtime"
	"testing"

	"repro/internal/stream"
)

// steadyEngines builds a serial and a sharded engine with identical
// configuration, warms both over the same fixed-seed trace prefix (so every
// belief exists and every scratch buffer has reached capacity) and returns
// them together with a representative steady-state epoch to replay.
func steadyEngines(t *testing.T, workers, shards int) (*Engine, *ShardedEngine, *stream.Epoch) {
	t.Helper()
	trace, err := generateWarehouse(smallTraceConfig(16, 11))
	if err != nil {
		t.Fatalf("GenerateWarehouse: %v", err)
	}
	cfg := DefaultConfig(defaultTestParams(), trace.World)
	cfg.Compression = false
	cfg.NumObjectParticles = 120
	cfg.NumReaderParticles = 25
	cfg.Seed = 17
	cfg.Workers = workers
	cfg.ShardCount = shards

	serial, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sharded, err := NewSharded(cfg)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	warm := len(trace.Epochs) - 1
	if warm < 40 {
		t.Fatalf("trace too short: %d epochs", len(trace.Epochs))
	}
	for _, ep := range trace.Epochs[:warm] {
		if _, err := serial.ProcessEpoch(ep); err != nil {
			t.Fatalf("serial ProcessEpoch: %v", err)
		}
		if _, err := sharded.ProcessEpoch(ep); err != nil {
			t.Fatalf("sharded ProcessEpoch: %v", err)
		}
	}
	return serial, sharded, trace.Epochs[warm]
}

// TestShardedEpochAllocsNoWorseThanSerial is the regression gate for the
// sharded fan-out's allocation behaviour: dispatching an epoch across shards
// and workers must not allocate more than the serial engine processing the
// same epoch. This pins the persistent work channel and the field-published
// fan-out state — the earlier closure-based dispatcher allocated a fresh
// channel plus one closure per worker every epoch, which made the parallel
// path allocate strictly more per reading than the serial one.
func TestShardedEpochAllocsNoWorseThanSerial(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	serial, sharded, ep := steadyEngines(t, 4, 16)

	// One unmeasured pass each so lazily grown buffers reach capacity.
	if _, err := serial.ProcessEpoch(ep); err != nil {
		t.Fatalf("serial ProcessEpoch: %v", err)
	}
	if _, err := sharded.ProcessEpoch(ep); err != nil {
		t.Fatalf("sharded ProcessEpoch: %v", err)
	}

	serialAllocs := testing.AllocsPerRun(30, func() {
		if _, err := serial.ProcessEpoch(ep); err != nil {
			t.Errorf("serial ProcessEpoch: %v", err)
		}
	})
	shardedAllocs := testing.AllocsPerRun(30, func() {
		if _, err := sharded.ProcessEpoch(ep); err != nil {
			t.Errorf("sharded ProcessEpoch: %v", err)
		}
	})
	if shardedAllocs > serialAllocs {
		t.Errorf("sharded epoch allocates %.2f times, serial %.2f; sharded must not allocate more",
			shardedAllocs, serialAllocs)
	}
	// Absolute backstop: the steady-state epoch allocates at most the serial
	// prologue's small constant (observed-list and index temporaries), never
	// per-worker or per-shard churn.
	const maxEpochAllocs = 16
	if shardedAllocs > maxEpochAllocs {
		t.Errorf("sharded epoch allocates %.2f times; want <= %d", shardedAllocs, maxEpochAllocs)
	}
}

// mallocs returns the number of heap allocations fn performs in one call,
// measured the way testing.AllocsPerRun does but without its warm-up call:
// the epoch under test compresses beliefs and so cannot be replayed.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestCompressionEpochAllocBound is the allocation gate for a compressing
// epoch: compressing k beliefs may allocate only the k compressed Gaussians
// on top of what the same epoch costs when nothing is compressed. Two engines
// warm over the same trace with a scope window longer than the trace, so
// neither compresses; an empty epoch past the window then makes every
// watched belief eligible in one of them, while the twin's window never
// closes. The bound pins that compression estimates no KL divergence (an
// O(n^2) kernel density estimate allocating per object) unless the policy
// ranks by it, and that the policy selects into reused scratch.
func TestCompressionEpochAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	trace, err := generateWarehouse(smallTraceConfig(16, 11))
	if err != nil {
		t.Fatalf("GenerateWarehouse: %v", err)
	}
	last := trace.Epochs[len(trace.Epochs)-1].Time
	window := last + 10

	for _, workers := range []int{0, 4} {
		engines := make([]*Engine, 2)
		for i, outOfScope := range []int{window, 1 << 30} {
			cfg := DefaultConfig(defaultTestParams(), trace.World)
			cfg.NumObjectParticles = 200
			cfg.NumReaderParticles = 25
			cfg.Seed = 17
			cfg.CompressionPolicy.OutOfScopeEpochs = outOfScope
			eng := newEngineForTest(t, cfg, workers, 16)
			for _, ep := range trace.Epochs {
				if _, err := eng.ProcessEpoch(ep); err != nil {
					t.Fatalf("ProcessEpoch: %v", err)
				}
			}
			if eng.Stats().Compressions != 0 {
				t.Fatalf("workers=%d: warm-up compressed %d beliefs; the window must outlast the trace",
					workers, eng.Stats().Compressions)
			}
			switch e := eng.(type) {
			case *Engine:
				engines[i] = e
			case *ShardedEngine:
				engines[i] = e.Engine
			}
		}
		compressing, twin := engines[0], engines[1]

		future := last + window + 1
		var allocs [2]uint64
		for i, e := range engines {
			ep := stream.NewEpoch(future)
			allocs[i] = mallocs(func() {
				if _, err := e.ProcessEpoch(ep); err != nil {
					t.Errorf("ProcessEpoch: %v", err)
				}
			})
		}
		k := uint64(compressing.Stats().Compressions)
		if k == 0 || twin.Stats().Compressions != 0 {
			t.Fatalf("workers=%d: compressed %d (twin %d); want >0 (0)", workers, k, twin.Stats().Compressions)
		}
		const slack = 4
		if allocs[0] > allocs[1]+k+slack {
			t.Errorf("workers=%d: epoch compressing %d beliefs allocates %d times, the same epoch without compression %d; want <= %d + k + %d",
				workers, k, allocs[0], allocs[1], allocs[1], slack)
		}
		t.Logf("workers=%d: k=%d compressing epoch %d allocs, twin %d", workers, k, allocs[0], allocs[1])
	}
}
