package core

import (
	"testing"

	"repro/internal/belief"
	"repro/internal/stream"
)

// TestCompressionRecordsPolicyKL pins what a compressed belief's
// CompressionKL holds: under KLRanked it is exactly the CompressionCandidateKL
// the policy ranked on, measured at the barrier just before compression;
// under LeaveScope, which ranks by nothing, it is 0. Each epoch runs with a
// policy whose scope window never closes, which leaves the barrier's watchlist
// intact but compresses nothing; the test then measures every candidate's KL
// and runs the real policy's compression pass itself.
func TestCompressionRecordsPolicyKL(t *testing.T) {
	trace, err := generateWarehouse(smallTraceConfig(12, 23))
	if err != nil {
		t.Fatalf("GenerateWarehouse: %v", err)
	}
	for _, policy := range []belief.Config{
		{Mode: belief.KLRanked, OutOfScopeEpochs: 8, KLThreshold: 0.9},
		{Mode: belief.LeaveScope, OutOfScopeEpochs: 8},
	} {
		cfg := DefaultConfig(defaultTestParams(), trace.World)
		cfg.NumObjectParticles = 120
		cfg.NumReaderParticles = 25
		cfg.Seed = 3
		cfg.CompressionPolicy = policy
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ref, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		policyMgr := e.beliefMgr
		hold := belief.NewManager(belief.Config{OutOfScopeEpochs: 1 << 30})
		measured := map[stream.TagID]float64{}
		checked, skipped := 0, 0
		for _, ep := range trace.Epochs {
			e.beliefMgr = hold
			if _, err := e.ProcessEpoch(ep); err != nil {
				t.Fatalf("ProcessEpoch: %v", err)
			}
			e.beliefMgr = policyMgr
			clear(measured)
			for _, id := range e.watch.Merged() {
				if kl, ok := e.fact.CompressionCandidateKL(id); ok {
					measured[id] = kl
				}
			}
			e.runCompression(ep.Time)
			for id, kl := range measured {
				b := e.fact.Belief(id)
				if !b.IsCompressed() {
					if ep.Time-b.LastSeen >= policy.OutOfScopeEpochs {
						skipped++
					}
					continue
				}
				checked++
				want := kl
				if policy.Mode == belief.LeaveScope {
					want = 0
				}
				if b.CompressionKL != want {
					t.Errorf("%v epoch %d: %s CompressionKL = %v, want %v (candidate KL %v)",
						policy.Mode, ep.Time, id, b.CompressionKL, want, kl)
				}
			}
			if _, err := ref.ProcessEpoch(ep); err != nil {
				t.Fatalf("reference ProcessEpoch: %v", err)
			}
		}
		if checked == 0 {
			t.Fatalf("%v: no belief was compressed", policy.Mode)
		}
		if policy.Mode == belief.KLRanked && skipped == 0 {
			t.Errorf("KL threshold %v rejected no eligible belief; the test needs one of each", policy.KLThreshold)
		}
		if got, want := e.Stats(), ref.Stats(); got != want {
			t.Errorf("%v: split barrier stats %+v differ from ProcessEpoch's %+v", policy.Mode, got, want)
		}
		t.Logf("%v: %d compressions checked, %d eligible beliefs held back", policy.Mode, checked, skipped)
	}
}
