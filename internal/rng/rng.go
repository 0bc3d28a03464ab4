// Package rng provides the deterministic random sources used throughout the
// RFID inference system. All stochastic components (simulation, particle
// proposal, resampling, EM restarts) draw from an rng.Source seeded
// explicitly so that experiments and tests are reproducible.
//
// # Random streams
//
// A Source is backed by one of two generators:
//
//   - New, NewAt and Derive return counter-based streams (SplitMix64). The
//     n-th draw (n = 1, 2, …) of the stream for seed s is
//     mix64(key(s) + n·γ(s) mod 2^64) — a pure function of (s, n) — so the
//     pair (Seed, Pos) is the whole generator state and NewAt resumes any
//     position in O(1). The inference engine's
//     streams (the factored filter, every per-object belief, the baseline
//     particle filter) are of this kind because checkpoints record exactly
//     (seed, pos) and hydration restores thousands of them.
//   - NewMathRand returns math/rand's additive lagged-Fibonacci generator,
//     which has no cheap seek and therefore no NewAt. The simulator and the
//     SMURF baseline use it so that traces and baseline numbers never change.
//
// Stream overlap. key(s) is mix64(s) and the increment γ(s) is derived from
// s by a second, different mix and forced odd, so each stream's inputs
// key + n·γ visit all 2^64 values before repeating: no stream cycles within
// 2^64 draws. Two streams with different increments can meet only in
// isolated points — if their inputs coincide at draws (n, m), the next inputs
// differ by γa − γb ≠ 0 — so the chance that any of L draws of one equals any
// of L draws of the other is at most L²/2^64 (2^-16 for L = 2^24 draws), and
// such a coincidence is a single repeated value, not a shared run. Only
// streams with equal increments are shifted copies of each other, and that
// happens with probability about 2^-62 per pair of seeds.
package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/geom"
)

// goldenGamma is SplitMix64's default increment, 2^64/φ rounded to odd.
const goldenGamma = 0x9e3779b97f4a7c15

// mix64 is SplitMix64's output finalizer (Stafford's variant 13): a
// bijection on 64-bit words with full avalanche.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mixGamma derives a stream increment from z with MurmurHash3's finalizer,
// a different mix than mix64's. The increment is odd, so the counter walks
// all 2^64 inputs, and has at least 24 bit transitions: a sparse increment
// makes consecutive inputs differ in few bits, which the finalizer mixes
// less well (the same rule as Java's SplittableRandom).
func mixGamma(z uint64) uint64 {
	z = (z ^ (z >> 33)) * 0xff51afd7ed558ccd
	z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53
	z = (z ^ (z >> 33)) | 1
	if bits.OnesCount64(z^(z>>1)) < 24 {
		z ^= 0xaaaaaaaaaaaaaaaa
	}
	return z
}

// counter is the counter-based generator behind New and NewAt. state is
// key + n·gamma, where n is the number of draws served so far.
type counter struct {
	state, gamma, n uint64
}

// seek positions c at draw pos of the stream for seed.
func (c *counter) seek(seed int64, pos uint64) {
	s := uint64(seed)
	c.gamma = mixGamma(s + goldenGamma)
	c.state = mix64(s) + pos*c.gamma
	c.n = pos
}

// Uint64 implements rand.Source64.
func (c *counter) Uint64() uint64 {
	c.n++
	c.state += c.gamma
	return mix64(c.state)
}

// Int63 implements rand.Source.
func (c *counter) Int63() int64 { return int64(c.Uint64() >> 1) }

// Seed implements rand.Source.
func (c *counter) Seed(seed int64) { c.seek(seed, 0) }

// Source is a seeded pseudo-random source with the sampling helpers the
// inference engine needs. It is not safe for concurrent use; create one per
// goroutine.
type Source struct {
	r    *rand.Rand
	ctr  counter // the generator behind r, unless mathRand
	seed int64
	// mathRand marks a NewMathRand stream, which has no position.
	mathRand bool
}

// New returns a counter-based Source seeded with seed.
func New(seed int64) *Source { return NewAt(seed, 0) }

// NewAt returns a counter-based Source positioned at draw pos of the stream
// for seed (the Pos() of the source being restored). The seek is O(1): it
// sets the counter, it replays nothing.
func NewAt(seed int64, pos uint64) *Source {
	s := &Source{seed: seed}
	s.ctr.seek(seed, pos)
	s.r = rand.New(&s.ctr)
	return s
}

// NewMathRand returns a Source backed by math/rand's generator: its draws
// equal rand.New(rand.NewSource(seed))'s, bit for bit. The simulator and the
// SMURF baseline use it so that traces and baseline numbers never change.
// Its stream has no cheap seek, so it has no position (see Pos) and no
// NewAt counterpart; use New for any stream a checkpoint must record.
func NewMathRand(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed)), seed: seed, mathRand: true}
}

// Seed returns the seed the source was created with.
func (s *Source) Seed() int64 { return s.seed }

// Pos returns the number of low-level draws consumed so far. Together with
// Seed it is the stream's whole state: NewAt(Seed(), Pos()) produces a
// source whose future draws are identical to this one's. It panics on a
// NewMathRand source, which does not track a position.
func (s *Source) Pos() uint64 {
	if s.mathRand {
		panic("rng: Pos on a NewMathRand source, which has no resumable position")
	}
	return s.ctr.n
}

// SeedFor derives a child seed from a base seed and a string key by hashing
// both with FNV-1a. The derivation consumes no state from an existing
// stream, so the resulting seed depends only on (seed, key):
// components keyed by a stable identifier (e.g. a tag id) receive the same
// stream no matter how many siblings exist or in which order they are
// created. This is what makes sharded inference results independent of the
// shard count and worker schedule.
func SeedFor(seed int64, key string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(key))
	return int64(h.Sum64() & math.MaxInt64)
}

// Derive returns a Source seeded with SeedFor(seed, key).
func Derive(seed int64, key string) *Source {
	return New(SeedFor(seed, key))
}

// Float64 returns a uniform draw in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform draw in [0, n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return s.r.Int63() }

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.r.Float64() < p
}

// Normal returns a draw from N(mu, sigma^2).
func (s *Source) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.r.NormFloat64()
}

// NormalVec returns a 3-D vector whose components are independent draws from
// N(mu_i, sigma_i^2).
func (s *Source) NormalVec(mu, sigma geom.Vec3) geom.Vec3 {
	return geom.Vec3{
		X: s.Normal(mu.X, sigma.X),
		Y: s.Normal(mu.Y, sigma.Y),
		Z: s.Normal(mu.Z, sigma.Z),
	}
}

// UniformInBox returns a point drawn uniformly inside the bounding box.
func (s *Source) UniformInBox(b geom.BBox) geom.Vec3 {
	return geom.Vec3{
		X: s.Uniform(b.Min.X, b.Max.X),
		Y: s.Uniform(b.Min.Y, b.Max.Y),
		Z: s.Uniform(b.Min.Z, b.Max.Z),
	}
}

// UniformInCone returns a point drawn uniformly (by area, in the XY plane)
// from the cone that originates at the reader pose, opens by halfAngle
// radians on each side of the heading and extends to maxRange feet. The
// paper's sensor-model-based initialization draws new object particles from
// exactly such a cone, chosen as an overestimate of the reader's true range.
func (s *Source) UniformInCone(p geom.Pose, halfAngle, maxRange float64) geom.Vec3 {
	// Sample radius with density proportional to r so that points are
	// uniform by area rather than clustered near the apex.
	r := maxRange * math.Sqrt(s.r.Float64())
	a := p.Phi + s.Uniform(-halfAngle, halfAngle)
	return geom.Vec3{
		X: p.Pos.X + r*math.Cos(a),
		Y: p.Pos.Y + r*math.Sin(a),
		Z: p.Pos.Z,
	}
}

// Categorical draws an index in [0, len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative; if they sum to
// zero the draw is uniform.
func (s *Source) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return s.r.Intn(len(weights))
	}
	u := s.r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w > 0 {
			acc += w
		}
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Systematic performs systematic (low-variance) resampling: it returns n
// indices drawn from the categorical distribution defined by weights using a
// single uniform offset. Systematic resampling is the standard choice for
// particle filters because it minimizes resampling noise.
func (s *Source) Systematic(weights []float64, n int) []int {
	return s.SystematicInto(make([]int, 0, n), weights, n)
}

// SystematicInto is Systematic with a caller-provided destination buffer: the
// n drawn indices are appended to dst and the extended slice returned, so hot
// paths can reuse one buffer across calls and resample without allocating.
// The draw sequence is identical to Systematic's for the same source state.
func (s *Source) SystematicInto(dst []int, weights []float64, n int) []int {
	m := len(weights)
	out := dst
	if m == 0 || n == 0 {
		return out
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		for i := 0; i < n; i++ {
			out = append(out, s.r.Intn(m))
		}
		return out
	}
	step := total / float64(n)
	u := s.r.Float64() * step
	acc := 0.0
	idx := 0
	for i := 0; i < n; i++ {
		target := u + float64(i)*step
		for idx < m-1 {
			w := weights[idx]
			if w < 0 {
				w = 0
			}
			if acc+w > target {
				break
			}
			acc += w
			idx++
		}
		out = append(out, idx)
	}
	return out
}

// Perm permutes a copy of the provided slice of indices.
func (s *Source) Perm(idx []int) []int {
	out := make([]int, len(idx))
	copy(out, idx)
	s.r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
