package belief

import (
	"slices"
	"testing"

	"repro/internal/stream"
)

// fakeFilter provides canned per-object compression KL values.
type fakeFilter map[stream.TagID]float64

func (f fakeFilter) CandidateKL(id stream.TagID) (float64, bool) {
	kl, ok := f[id]
	return kl, ok
}

// ids projects a selection onto its object ids.
func ids(sel []Candidate) []stream.TagID {
	out := make([]stream.TagID, len(sel))
	for i, c := range sel {
		out[i] = c.ID
	}
	return out
}

func TestLeaveScopeSelectsOnlyStaleObjects(t *testing.T) {
	m := NewManager(Config{Mode: LeaveScope, OutOfScopeEpochs: 10})
	candidates := []Candidate{
		{ID: "fresh", LastSeen: 95},
		{ID: "stale", LastSeen: 80},
		{ID: "very-stale", LastSeen: 10},
	}
	got := ids(m.Select(nil, 100, candidates, nil))
	if len(got) != 2 {
		t.Fatalf("selected %v", got)
	}
	// Oldest first.
	if got[0] != "very-stale" || got[1] != "stale" {
		t.Errorf("selection order = %v", got)
	}
}

func TestLeaveScopeTieBreaksOnID(t *testing.T) {
	m := NewManager(Config{Mode: LeaveScope, OutOfScopeEpochs: 5})
	candidates := []Candidate{
		{ID: "b", LastSeen: 10},
		{ID: "a", LastSeen: 10},
	}
	got := ids(m.Select(nil, 100, candidates, nil))
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("tie-break order = %v", got)
	}
}

func TestMaxPerEpochBoundsWork(t *testing.T) {
	m := NewManager(Config{Mode: LeaveScope, OutOfScopeEpochs: 1, MaxPerEpoch: 3})
	var candidates []Candidate
	for i := 0; i < 10; i++ {
		candidates = append(candidates, Candidate{ID: stream.TagID(rune('a' + i)), LastSeen: i})
	}
	got := ids(m.Select(nil, 100, candidates, nil))
	if len(got) != 3 {
		t.Errorf("selected %d, want 3", len(got))
	}
}

func TestKLRankedPrefersCompactBeliefs(t *testing.T) {
	m := NewManager(Config{Mode: KLRanked, OutOfScopeEpochs: 5, KLThreshold: 1.0, MaxPerEpoch: 10})
	candidates := []Candidate{
		{ID: "spread", LastSeen: 0},
		{ID: "compact", LastSeen: 0},
		{ID: "medium", LastSeen: 0},
	}
	f := fakeFilter{"spread": 5.0, "compact": 0.01, "medium": 0.5}
	got := ids(m.Select(nil, 100, candidates, f))
	// The spread belief exceeds the threshold and must not be compressed.
	if len(got) != 2 {
		t.Fatalf("selected %v", got)
	}
	if got[0] != "compact" || got[1] != "medium" {
		t.Errorf("KL ranking order = %v", got)
	}
}

func TestKLRankedWithoutThresholdKeepsAll(t *testing.T) {
	m := NewManager(Config{Mode: KLRanked, OutOfScopeEpochs: 1, MaxPerEpoch: 10})
	candidates := []Candidate{{ID: "a", LastSeen: 0}, {ID: "b", LastSeen: 0}}
	got := ids(m.Select(nil, 10, candidates, fakeFilter{"a": 3, "b": 1}))
	if len(got) != 2 || got[0] != "b" {
		t.Errorf("selection = %v", got)
	}
}

func TestSelectEmptyCandidates(t *testing.T) {
	m := NewManager(DefaultConfig())
	if got := m.Select(nil, 5, nil, nil); got != nil {
		t.Errorf("expected nil for no candidates, got %v", got)
	}
	// All candidates recently seen: nothing selected.
	got := m.Select(nil, 5, []Candidate{{ID: "a", LastSeen: 5}}, nil)
	if len(got) != 0 {
		t.Errorf("recently-seen candidate selected: %v", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	m := NewManager(Config{})
	cfg := m.Config()
	if cfg.OutOfScopeEpochs <= 0 || cfg.MaxPerEpoch <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if LeaveScope.String() != "leave-scope" || KLRanked.String() != "kl-ranked" || Mode(9).String() != "unknown" {
		t.Error("Mode.String wrong")
	}
}

func TestSelectCarriesRankedKL(t *testing.T) {
	candidates := []Candidate{{ID: "a", LastSeen: 0}, {ID: "b", LastSeen: 0}}
	f := fakeFilter{"a": 0.5, "b": 0.25}
	m := NewManager(Config{Mode: KLRanked, OutOfScopeEpochs: 1})
	got := m.Select(nil, 10, candidates, f)
	if len(got) != 2 || got[0] != (Candidate{ID: "b", KL: 0.25}) || got[1] != (Candidate{ID: "a", KL: 0.5}) {
		t.Errorf("KL-ranked selection = %+v; want each candidate with its measured KL", got)
	}
	// LeaveScope measures no KL, even when given a filter or a stale value.
	stale := []Candidate{{ID: "a", LastSeen: 0, KL: 7}}
	m = NewManager(Config{Mode: LeaveScope, OutOfScopeEpochs: 1})
	if got := m.Select(nil, 10, stale, f); len(got) != 1 || got[0].KL != 0 {
		t.Errorf("leave-scope selection = %+v; want KL 0", got)
	}
	if stale[0].KL != 7 {
		t.Error("Select modified its candidates")
	}
}

func TestSelectReusesScratch(t *testing.T) {
	var candidates []Candidate
	for i := 0; i < 40; i++ {
		candidates = append(candidates, Candidate{ID: stream.TagID(rune('A' + i)), LastSeen: i % 7})
	}
	f := fakeFilter{}
	for i, c := range candidates {
		f[c.ID] = float64(i%5) / 10
	}
	for _, cfg := range []Config{
		{Mode: LeaveScope, OutOfScopeEpochs: 1, MaxPerEpoch: 16},
		{Mode: KLRanked, OutOfScopeEpochs: 1, KLThreshold: 0.3},
	} {
		m := NewManager(cfg)
		buf := m.Select(nil, 100, candidates, f)
		want := ids(buf)
		allocs := testing.AllocsPerRun(20, func() {
			buf = m.Select(buf, 100, candidates, f)
		})
		if allocs != 0 {
			t.Errorf("%v: Select with reused scratch allocates %.1f times; want 0", cfg.Mode, allocs)
		}
		if got := ids(buf); !slices.Equal(got, want) {
			t.Errorf("%v: reused-scratch selection %v differs from %v", cfg.Mode, got, want)
		}
	}
}
