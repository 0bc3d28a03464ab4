// Package belief implements the belief-compression policies of Section IV-D.
// The mechanics of compression (moment-matching a weighted particle set to a
// Gaussian, measuring the KL divergence, re-sampling on decompression) live
// with the factored filter; this package decides WHICH objects to compress
// and WHEN, using the two policies the paper describes: compress an object
// once its tag has not been read for several epochs (it left the reader's
// scope), or rank uncompressed objects by the KL divergence their compression
// would incur and compress the cheapest ones, optionally bounded by a KL
// threshold.
package belief

import (
	"cmp"
	"slices"

	"repro/internal/stream"
)

// Mode selects the compression policy.
type Mode int

const (
	// LeaveScope compresses an object after it has gone unobserved for
	// OutOfScopeEpochs epochs.
	LeaveScope Mode = iota
	// KLRanked additionally ranks the out-of-scope candidates by compression
	// KL and only compresses those whose KL falls below KLThreshold.
	KLRanked
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case LeaveScope:
		return "leave-scope"
	case KLRanked:
		return "kl-ranked"
	default:
		return "unknown"
	}
}

// Config configures the compression manager.
type Config struct {
	// Mode selects the policy.
	Mode Mode
	// OutOfScopeEpochs is the number of consecutive unobserved epochs after
	// which an object becomes a compression candidate (default 20).
	OutOfScopeEpochs int
	// KLThreshold bounds the acceptable compression loss for the KLRanked
	// policy; zero means no threshold.
	KLThreshold float64
	// MaxPerEpoch bounds how many objects are compressed in a single epoch so
	// that compression work is spread over time (default 64).
	MaxPerEpoch int
}

// DefaultConfig returns the policy configuration used by the engine.
func DefaultConfig() Config {
	return Config{Mode: LeaveScope, OutOfScopeEpochs: 20, MaxPerEpoch: 64}
}

func (c *Config) applyDefaults() {
	if c.OutOfScopeEpochs <= 0 {
		c.OutOfScopeEpochs = 20
	}
	if c.MaxPerEpoch <= 0 {
		c.MaxPerEpoch = 64
	}
}

// BeliefState is the narrow view of an object's belief that the policy needs.
type BeliefState interface {
	// LastSeenEpoch returns the epoch of the object's most recent reading.
	LastSeenEpoch() int
	// IsCompressed reports whether the belief is already compressed.
	IsCompressed() bool
}

// Filter is the narrow view of the factored filter that the policy needs; it
// is satisfied by *factored.Filter via a small adapter in the engine.
type Filter interface {
	// CandidateKL returns the KL divergence compressing the object would
	// incur right now.
	CandidateKL(id stream.TagID) (float64, bool)
}

// Candidate pairs an object id with the information the policy ranks on.
type Candidate struct {
	ID       stream.TagID
	LastSeen int
	KL       float64
}

// Manager applies a compression policy over epochs.
type Manager struct {
	cfg Config
}

// NewManager returns a Manager with the given configuration.
func NewManager(cfg Config) *Manager {
	cfg.applyDefaults()
	return &Manager{cfg: cfg}
}

// Config returns the effective configuration.
func (m *Manager) Config() Config { return m.cfg }

// Select returns the candidates that should be compressed at the current
// epoch, in compression order, given the uncompressed candidates (each with
// the epoch it was last seen). The result is built in dst, reused from its
// start, so a caller that passes back the previous result selects without
// allocating; candidates is only read.
//
// For the KLRanked mode the filter is queried for per-object compression KL
// and each returned candidate carries the KL it was ranked on; f may be nil
// for the LeaveScope mode, which measures no KL and returns KL 0.
func (m *Manager) Select(dst []Candidate, epoch int, candidates []Candidate, f Filter) []Candidate {
	eligible := slices.Grow(dst[:0], len(candidates))
	for _, c := range candidates {
		if epoch-c.LastSeen < m.cfg.OutOfScopeEpochs {
			continue
		}
		c.KL = 0
		eligible = append(eligible, c)
	}
	if len(eligible) == 0 {
		return eligible
	}

	if m.cfg.Mode == KLRanked && f != nil {
		for i := range eligible {
			if kl, ok := f.CandidateKL(eligible[i].ID); ok {
				eligible[i].KL = kl
			}
		}
		slices.SortFunc(eligible, func(a, b Candidate) int {
			if c := cmp.Compare(a.KL, b.KL); c != 0 {
				return c
			}
			return cmp.Compare(a.ID, b.ID)
		})
		if m.cfg.KLThreshold > 0 {
			cut := 0
			for cut < len(eligible) && eligible[cut].KL <= m.cfg.KLThreshold {
				cut++
			}
			eligible = eligible[:cut]
		}
	} else {
		// Deterministic order: oldest unseen first.
		slices.SortFunc(eligible, func(a, b Candidate) int {
			if c := cmp.Compare(a.LastSeen, b.LastSeen); c != 0 {
				return c
			}
			return cmp.Compare(a.ID, b.ID)
		})
	}

	if len(eligible) > m.cfg.MaxPerEpoch {
		eligible = eligible[:m.cfg.MaxPerEpoch]
	}
	return eligible
}
