package core

import (
	"bytes"
	"strconv"
	"testing"

	"repro/internal/belief"
	"repro/internal/checkpoint"
	"repro/internal/rng"
	"repro/internal/stream"
)

// TestPropertyShardedMatchesSerialMatrix is the randomized determinism
// property suite: for a seeded matrix of traces and engine configurations,
// the sharded engine's event stream must be byte-identical to the serial
// engine's for every combination of Workers in {1,2,4,8} and ShardCount in
// {1,3,8,32}, and a sharded run checkpointed mid-trace must continue
// byte-identically in a fresh serial engine. Each seed draws a different trace
// and a different pipeline variant (spatial index on/off, compression on/off,
// leave-scope or KL-ranked compression policy) from its own deterministic
// stream, so the property is exercised well beyond the one fixed golden trace
// — yet failures reproduce exactly from the seed printed in the subtest name.
func TestPropertyShardedMatchesSerialMatrix(t *testing.T) {
	// 505 and 909 are the seeds whose draws enable compression, under the
	// leave-scope and the KL-ranked policy respectively.
	seeds := []int64{101, 202, 303, 505, 909}
	if testing.Short() {
		seeds = seeds[:1]
	}
	workersList := []int{1, 2, 4, 8}
	shardList := []int{1, 3, 8, 32}

	for _, seed := range seeds {
		seed := seed
		t.Run(fmtSeed(seed), func(t *testing.T) {
			pick := rng.New(seed)

			simCfg := smallTraceConfig(6+pick.Intn(6), seed)
			trace, err := generateWarehouse(simCfg)
			if err != nil {
				t.Fatalf("GenerateWarehouse: %v", err)
			}

			cfg := DefaultConfig(defaultTestParams(), trace.World)
			cfg.NumObjectParticles = 60 + 20*pick.Intn(3)
			cfg.NumReaderParticles = 15 + 5*pick.Intn(2)
			cfg.SpatialIndex = pick.Bernoulli(0.5)
			cfg.Compression = pick.Bernoulli(0.5)
			cfg.Seed = seed*7 + 1
			if pick.Bernoulli(0.5) {
				cfg.CompressionPolicy.Mode = belief.KLRanked
				cfg.CompressionPolicy.KLThreshold = 0.9
			}

			serial, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			want, err := serial.Run(trace.Epochs)
			if err != nil {
				t.Fatalf("serial Run: %v", err)
			}
			wantBytes := encodeEvents(t, want)
			wantStats := serial.Stats()

			for _, workers := range workersList {
				for _, shards := range shardList {
					scfg := cfg
					scfg.Workers = workers
					scfg.ShardCount = shards
					se, err := NewSharded(scfg)
					if err != nil {
						t.Fatalf("NewSharded(workers=%d,shards=%d): %v", workers, shards, err)
					}
					got, err := se.Run(trace.Epochs)
					if err != nil {
						t.Fatalf("sharded Run(workers=%d,shards=%d): %v", workers, shards, err)
					}
					if !bytes.Equal(encodeEvents(t, got), wantBytes) {
						t.Errorf("seed=%d workers=%d shards=%d (index=%v compression=%v policy=%v): events differ from serial engine",
							seed, workers, shards, cfg.SpatialIndex, cfg.Compression, cfg.CompressionPolicy.Mode)
					}
					if se.Stats() != wantStats {
						t.Errorf("seed=%d workers=%d shards=%d: stats %+v != serial %+v",
							seed, workers, shards, se.Stats(), wantStats)
					}
				}
			}

			split := len(trace.Epochs) / 2
			a := newEngineForTest(t, cfg, 4, 8)
			var got []stream.Event
			for _, ep := range trace.Epochs[:split] {
				evs, err := a.ProcessEpoch(ep)
				if err != nil {
					t.Fatalf("sharded ProcessEpoch: %v", err)
				}
				got = append(got, evs...)
			}
			enc := checkpoint.NewEncoder()
			a.SaveState(enc)
			b := newEngineForTest(t, cfg, 0, 0)
			if err := b.RestoreState(checkpoint.NewDecoder(enc.Bytes())); err != nil {
				t.Fatalf("restore: %v", err)
			}
			for _, ep := range trace.Epochs[split:] {
				evs, err := b.ProcessEpoch(ep)
				if err != nil {
					t.Fatalf("restored ProcessEpoch: %v", err)
				}
				got = append(got, evs...)
			}
			got = append(got, b.Finish()...)
			if !bytes.Equal(encodeEvents(t, got), wantBytes) {
				t.Errorf("seed=%d: run restored from a mid-trace checkpoint differs from the uninterrupted run", seed)
			}
		})
	}
}

// TestPropertyShardedStreamingMatchesBatch checks, for one seeded draw, that
// the per-epoch emissions (the streaming entry point the serving layer uses)
// also match between serial and sharded engines — the matrix above only
// compares whole runs.
func TestPropertyShardedStreamingMatchesBatch(t *testing.T) {
	const seed = 404
	trace, err := generateWarehouse(smallTraceConfig(8, seed))
	if err != nil {
		t.Fatalf("GenerateWarehouse: %v", err)
	}
	cfg := DefaultConfig(defaultTestParams(), trace.World)
	cfg.NumObjectParticles = 80
	cfg.NumReaderParticles = 20
	cfg.Seed = seed

	serial, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	scfg := cfg
	scfg.Workers = 4
	scfg.ShardCount = 32
	se, err := NewSharded(scfg)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	for _, ep := range trace.Epochs {
		want, err := serial.ProcessEpoch(ep)
		if err != nil {
			t.Fatalf("serial ProcessEpoch: %v", err)
		}
		got, err := se.ProcessEpoch(ep)
		if err != nil {
			t.Fatalf("sharded ProcessEpoch: %v", err)
		}
		if !bytes.Equal(encodeEvents(t, got), encodeEvents(t, want)) {
			t.Fatalf("epoch %d: emissions differ", ep.Time)
		}
	}
	if !bytes.Equal(encodeEvents(t, se.Finish()), encodeEvents(t, serial.Finish())) {
		t.Error("final flush differs")
	}
}

// fmtSeed names a property subtest after its seed.
func fmtSeed(seed int64) string {
	return "seed-" + strconv.FormatInt(seed, 10)
}
