// Package learn implements the self-calibration step of Section III-C: the
// model parameters — the sensor-model coefficients, the average reader
// velocity and motion noise, and the bias and noise of reader location
// sensing — are estimated from a small training trace collected in the target
// environment, which includes a handful of shelf tags with known locations.
//
// Estimation uses Monte-Carlo Expectation-Maximization: the E-step runs the
// factored particle filter under the current parameters to obtain estimates
// of the hidden variables (the true reader trajectory and the unknown tag
// locations); the M-step refits the logistic-regression sensor model on the
// (distance, angle, read/not-read) examples induced by those estimates and
// re-estimates the Gaussian motion and location-sensing parameters.
package learn

import (
	"fmt"
	"math"

	"repro/internal/factored"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/sensor"
	"repro/internal/stats"
	"repro/internal/stream"
)

// Config configures calibration.
type Config struct {
	// Iterations is the number of EM iterations (default 3).
	Iterations int
	// ObjectParticles is the number of particles per object used in the
	// E-step filter (default 200; the E-step does not need the full
	// inference-quality particle counts).
	ObjectParticles int
	// ReaderParticles is the number of reader particles in the E-step filter
	// (default 50).
	ReaderParticles int
	// NegativeWindow is the distance (feet) from the estimated reader
	// location within which a tag's non-observation is included as a
	// negative training example; zero derives it from the sensor range.
	NegativeWindow float64
	// FitOptions tune the logistic regression fit.
	FitOptions stats.LogisticFitOptions
	// LearnMotion enables re-estimation of the reader motion model.
	LearnMotion bool
	// LearnSensing enables re-estimation of the reader location sensing
	// model (bias and noise).
	LearnSensing bool
	// EStepSensingNoiseFloor inflates the reader-location-sensing noise used
	// during the E-step so that shelf-tag evidence is able to pull the
	// estimated trajectory away from a biased or drifting reported one (e.g.
	// dead reckoning). The learned parameters themselves are not affected.
	// Default 0.15 ft.
	EStepSensingNoiseFloor float64
	// MinSensingNoise and MinMotionNoise floor the learned noise parameters
	// so inference never treats the reported locations (or the motion model)
	// as exact. Defaults 0.03 and 0.01 ft.
	MinSensingNoise float64
	MinMotionNoise  float64
	// Seed seeds the E-step filter.
	Seed int64
}

// DefaultConfig returns the calibration configuration used in the
// experiments.
func DefaultConfig() Config {
	return Config{
		Iterations:      3,
		ObjectParticles: 200,
		ReaderParticles: 50,
		FitOptions:      stats.DefaultLogisticFitOptions(),
		LearnMotion:     true,
		LearnSensing:    true,
		Seed:            11,
	}
}

func (c *Config) applyDefaults() {
	d := DefaultConfig()
	if c.Iterations <= 0 {
		c.Iterations = d.Iterations
	}
	if c.ObjectParticles <= 0 {
		c.ObjectParticles = d.ObjectParticles
	}
	if c.ReaderParticles <= 0 {
		c.ReaderParticles = d.ReaderParticles
	}
	if c.FitOptions.MaxIter <= 0 {
		c.FitOptions = d.FitOptions
	}
	if c.EStepSensingNoiseFloor <= 0 {
		c.EStepSensingNoiseFloor = 0.15
	}
	if c.MinSensingNoise <= 0 {
		c.MinSensingNoise = 0.03
	}
	if c.MinMotionNoise <= 0 {
		c.MinMotionNoise = 0.01
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
}

// Result is the output of calibration.
type Result struct {
	// Params are the estimated model parameters.
	Params model.Params
	// Iterations is the number of EM iterations performed.
	Iterations int
	// LogLikelihood is the training log likelihood of the sensor model after
	// each iteration; it should be non-decreasing in well-behaved runs.
	LogLikelihood []float64
	// NumExamples is the number of (distance, angle, outcome) examples used
	// in the final M-step.
	NumExamples int
	// NumShelfTags is the number of tags with known locations available.
	NumShelfTags int
}

// Calibrate estimates the model parameters from a training trace. The epochs
// are the synchronized raw streams; the world carries the shelf tags whose
// locations are known. init provides the starting parameters (typically
// model.DefaultParams with a generic sensor model).
func Calibrate(epochs []*stream.Epoch, world *model.World, init model.Params, cfg Config) (Result, error) {
	cfg.applyDefaults()
	if len(epochs) == 0 {
		return Result{}, fmt.Errorf("learn: no training epochs")
	}
	if world == nil {
		return Result{}, fmt.Errorf("learn: nil world")
	}

	params := init
	if params.Sensor.MaxRange <= 0 {
		params.Sensor.MaxRange = sensor.DefaultModel().MaxRange
	}
	negWindow := cfg.NegativeWindow
	if negWindow <= 0 {
		negWindow = params.Sensor.MaxRange * 1.2
	}

	res := Result{NumShelfTags: len(world.ShelfTags)}
	for iter := 0; iter < cfg.Iterations; iter++ {
		est := runEStep(epochs, world, params, cfg, int64(iter))

		examples := buildExamples(epochs, world, est, negWindow, params.Sensor.MaxRange)
		if len(examples) == 0 {
			return res, fmt.Errorf("learn: no training examples generated (iteration %d)", iter)
		}

		beta, err := stats.FitLogistic(examples, params.Sensor.Coefficients(), cfg.FitOptions)
		if err != nil {
			return res, fmt.Errorf("learn: sensor model fit failed: %w", err)
		}
		newSensor, err := sensor.ModelFromCoefficients(beta, params.Sensor.MaxRange)
		if err != nil {
			return res, err
		}
		params.Sensor = newSensor
		res.LogLikelihood = append(res.LogLikelihood, stats.LogisticLogLikelihood(examples, beta))
		res.NumExamples = len(examples)

		if cfg.LearnMotion {
			params.Motion = estimateMotion(est.readerPoses, params.Motion, cfg.MinMotionNoise)
		}
		if cfg.LearnSensing {
			params.Sensing = estimateSensing(epochs, est.readerPoses, params.Sensing, cfg.MinSensingNoise)
		}
		res.Iterations = iter + 1
	}
	res.Params = params
	return res, nil
}

// eStepResult carries the hidden-variable estimates produced by one E-step.
type eStepResult struct {
	// readerPoses[i] is the estimated true reader pose for epochs[i].
	readerPoses []geom.Pose
	// objects and objectLocs are the estimated object tags and their
	// locations at the end of the training trace, in tracked-object order so
	// the M-step sees its examples in the same order on every run.
	objects    []stream.TagID
	objectLocs []geom.Vec3
}

// runEStep runs the factored particle filter under the current parameters to
// estimate the reader trajectory and the unknown tag locations. The sensing
// noise is floored so that shelf-tag evidence can correct a biased reported
// trajectory even on the first iteration, before the bias has been learned.
func runEStep(epochs []*stream.Epoch, world *model.World, params model.Params, cfg Config, iterSeed int64) eStepResult {
	params.Sensing.Noise = floorNoise(params.Sensing.Noise, cfg.EStepSensingNoiseFloor)
	f := factored.New(factored.Config{
		NumReaderParticles: cfg.ReaderParticles,
		NumObjectParticles: cfg.ObjectParticles,
		Params:             params,
		World:              world,
		UseMotionModel:     true,
		Seed:               cfg.Seed + iterSeed*101,
	})
	est := eStepResult{
		readerPoses: make([]geom.Pose, len(epochs)),
	}
	for i, ep := range epochs {
		f.Step(ep, nil)
		est.readerPoses[i] = f.ReaderEstimate()
	}
	for _, id := range f.TrackedObjects() {
		if loc, _, ok := f.Estimate(id); ok {
			est.objects = append(est.objects, id)
			est.objectLocs = append(est.objectLocs, loc)
		}
	}
	return est
}

// buildExamples converts the E-step estimates into weighted logistic
// regression examples. Shelf tags (known locations) contribute full-weight
// examples; object tags (estimated locations) contribute half-weight
// examples, since their locations are themselves uncertain.
func buildExamples(epochs []*stream.Epoch, world *model.World, est eStepResult, negWindow, maxRange float64) []stats.LogisticSample {
	shelfIDs := world.ShelfTagIDs()
	var examples []stats.LogisticSample

	// Anchor examples. Training traces only exercise the distances and angles
	// that actually occur between the reader path and the shelves, so the
	// quadratic logistic model is unconstrained elsewhere and can extrapolate
	// to absurd shapes. Two sets of weak anchors pin it down: a tag touching
	// the antenna on axis is read with near certainty, and a tag at the
	// model's own maximum range (where the read probability is clamped to
	// zero anyway) is essentially never read.
	for _, d := range []float64{0, 0.2, 0.4} {
		for _, theta := range []float64{0, 0.3} {
			examples = append(examples, stats.LogisticSample{
				X:      sensor.Features(d, theta),
				Y:      true,
				Weight: 2,
			})
		}
	}
	if maxRange > 0 {
		for _, d := range []float64{maxRange, 1.15 * maxRange} {
			for _, theta := range []float64{0, 0.5} {
				examples = append(examples, stats.LogisticSample{
					X:      sensor.Features(d, theta),
					Y:      false,
					Weight: 2,
				})
			}
		}
	}

	addExample := func(pose geom.Pose, loc geom.Vec3, observed bool, weight float64) {
		d, theta := pose.DistanceAngleTo(loc)
		if !observed && d > negWindow {
			// Distant non-observations carry almost no information and would
			// otherwise swamp the fit.
			return
		}
		examples = append(examples, stats.LogisticSample{
			X:      sensor.Features(d, theta),
			Y:      observed,
			Weight: weight,
		})
	}

	for i, ep := range epochs {
		pose := est.readerPoses[i]
		for _, sid := range shelfIDs {
			addExample(pose, world.ShelfTags[sid], ep.Contains(sid), 1.0)
		}
		for j, id := range est.objects {
			addExample(pose, est.objectLocs[j], ep.Contains(id), 0.5)
		}
	}
	return examples
}

// estimateMotion re-estimates the average reader velocity and the motion
// noise from the estimated reader trajectory.
func estimateMotion(poses []geom.Pose, prev model.MotionModel, minNoise float64) model.MotionModel {
	if len(poses) < 3 {
		return prev
	}
	diffs := make([]geom.Vec3, 0, len(poses)-1)
	for i := 1; i < len(poses); i++ {
		diffs = append(diffs, poses[i].Pos.Sub(poses[i-1].Pos))
	}
	mean := stats.WeightedMeanVec(diffs, nil)
	var sx, sy, sz float64
	for _, d := range diffs {
		sx += (d.X - mean.X) * (d.X - mean.X)
		sy += (d.Y - mean.Y) * (d.Y - mean.Y)
		sz += (d.Z - mean.Z) * (d.Z - mean.Z)
	}
	n := float64(len(diffs))
	noise := geom.Vec3{X: math.Sqrt(sx / n), Y: math.Sqrt(sy / n), Z: math.Sqrt(sz / n)}
	return model.MotionModel{
		Velocity:    mean,
		Noise:       floorNoise(noise, minNoise),
		PhiNoise:    prev.PhiNoise,
		PhiVelocity: prev.PhiVelocity,
	}
}

// estimateSensing re-estimates the systematic bias and noise of reader
// location sensing by comparing the reported locations against the estimated
// true trajectory.
func estimateSensing(epochs []*stream.Epoch, poses []geom.Pose, prev model.LocationSensingModel, minNoise float64) model.LocationSensingModel {
	var residuals []geom.Vec3
	for i, ep := range epochs {
		if !ep.HasPose || i >= len(poses) {
			continue
		}
		residuals = append(residuals, ep.ReportedPose.Pos.Sub(poses[i].Pos))
	}
	if len(residuals) < 3 {
		return prev
	}
	mean := stats.WeightedMeanVec(residuals, nil)
	var sx, sy, sz float64
	for _, r := range residuals {
		sx += (r.X - mean.X) * (r.X - mean.X)
		sy += (r.Y - mean.Y) * (r.Y - mean.Y)
		sz += (r.Z - mean.Z) * (r.Z - mean.Z)
	}
	n := float64(len(residuals))
	return model.LocationSensingModel{
		Bias:  mean,
		Noise: floorNoise(geom.Vec3{X: math.Sqrt(sx / n), Y: math.Sqrt(sy / n), Z: math.Sqrt(sz / n)}, minNoise),
	}
}

// floorNoise keeps each noise component above a small floor so the Gaussians
// stay non-degenerate.
func floorNoise(v geom.Vec3, floor float64) geom.Vec3 {
	if v.X < floor {
		v.X = floor
	}
	if v.Y < floor {
		v.Y = floor
	}
	if v.Z < floor {
		v.Z = floor
	}
	return v
}

// FitModelToProfile fits the parametric logistic sensor model directly to a
// ground-truth detection profile by sampling it on a dense grid of distances
// and angles. It is used to obtain the best parametric approximation of a
// known profile (e.g. the simulator's cone) for "true sensor model" runs and
// for goodness-of-fit checks of learned models.
func FitModelToProfile(p sensor.Profile, maxRange float64, opts stats.LogisticFitOptions) (sensor.Model, error) {
	if maxRange <= 0 {
		maxRange = p.MaxRange()
	}
	var examples []stats.LogisticSample
	origin := geom.Pose{}
	for di := 0; di <= 40; di++ {
		d := maxRange * float64(di) / 40
		for ai := 0; ai <= 36; ai++ {
			theta := math.Pi * float64(ai) / 36
			loc := geom.Vec3{X: d * math.Cos(theta), Y: d * math.Sin(theta)}
			pr := p.DetectProb(origin, loc)
			features := sensor.Features(d, theta)
			// Encode the probability with a pair of weighted examples.
			if pr > 0 {
				examples = append(examples, stats.LogisticSample{X: features, Y: true, Weight: pr})
			}
			if pr < 1 {
				examples = append(examples, stats.LogisticSample{X: features, Y: false, Weight: 1 - pr})
			}
		}
	}
	beta, err := stats.FitLogistic(examples, nil, opts)
	if err != nil {
		return sensor.Model{}, err
	}
	return sensor.ModelFromCoefficients(beta, maxRange)
}
