package learn

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/stats"
)

// trainingTrace builds a small warehouse training trace with the given number
// of tags whose locations are known (shelf tags).
func trainingTrace(t *testing.T, knownTags int, seed int64) *sim.Trace {
	t.Helper()
	cfg := sim.DefaultWarehouseConfig()
	cfg.NumObjects = 20
	cfg.NumShelfTags = 20
	cfg.Seed = seed
	trace, err := sim.GenerateWarehouse(cfg)
	if err != nil {
		t.Fatalf("GenerateWarehouse: %v", err)
	}
	return trace.SplitForTraining(knownTags)
}

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Iterations = 2
	cfg.ObjectParticles = 80
	cfg.ReaderParticles = 30
	return cfg
}

func TestCalibrateLearnsDecayingSensorModel(t *testing.T) {
	trace := trainingTrace(t, 20, 3)
	res, err := Calibrate(trace.Epochs, trace.World, model.DefaultParams(), quickConfig())
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	m := res.Params.Sensor
	// The learned model must have a sensible shape: read rate near the
	// antenna is high and decays with distance and with angle.
	if p := m.ReadProb(0.3, 0); p < 0.7 {
		t.Errorf("near read prob = %v, want high", p)
	}
	if m.ReadProb(3.4, 0) > m.ReadProb(1.0, 0) {
		t.Error("read prob should decay with distance")
	}
	if m.ReadProb(1.5, 1.2) > m.ReadProb(1.5, 0.1) {
		t.Error("read prob should decay with angle")
	}
	if res.NumExamples == 0 || res.Iterations != 2 || res.NumShelfTags != 20 {
		t.Errorf("result metadata wrong: %+v", res)
	}
	// The cone used for generation reads essentially nothing beyond ~3 ft, so
	// the learned 50% range should be in a plausible band.
	r := m.EffectiveRange(0.5)
	if r < 1.0 || r > 3.6 {
		t.Errorf("learned 50%% range = %v ft, want within [1.0, 3.6]", r)
	}
}

func TestCalibrateWithKnownTagsBeatsNoKnownTags(t *testing.T) {
	// Starting from a deliberately poor initial model, calibration with many
	// known tags should match the true cone much better than calibration with
	// none (which the paper attributes to EM local maxima).
	badInit := model.DefaultParams()
	badInit.Sensor = sensor.Model{A0: 1.0, A1: -0.2, A2: 0, B1: 0, B2: -0.3, MaxRange: 4.0}

	cone := sensor.DefaultConeProfile()
	trueGrid := sensor.SampleProfileGrid(cone, 0, 5, -2.5, 2.5, 24, 24)

	gridDiff := func(knownTags int) float64 {
		trace := trainingTrace(t, knownTags, 5)
		res, err := Calibrate(trace.Epochs, trace.World, badInit, quickConfig())
		if err != nil {
			t.Fatalf("Calibrate(%d known): %v", knownTags, err)
		}
		g := sensor.SampleProfileGrid(sensor.ModelProfile{Model: res.Params.Sensor}, 0, 5, -2.5, 2.5, 24, 24)
		return g.MeanAbsDifference(trueGrid)
	}

	with := gridDiff(20)
	without := gridDiff(0)
	if with >= without {
		t.Errorf("calibration with 20 known tags (diff %v) should beat 0 known tags (diff %v)", with, without)
	}
}

func TestCalibrateLearnsMotionAndSensing(t *testing.T) {
	cfg := sim.DefaultWarehouseConfig()
	cfg.NumObjects = 12
	cfg.NumShelfTags = 6
	cfg.Seed = 9
	cfg.Sensing = model.LocationSensingModel{Noise: geom.Vec3{X: 0.05, Y: 0.05}}
	trace, err := sim.GenerateWarehouse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	learnCfg := quickConfig()
	res, err := Calibrate(trace.Epochs, trace.World, model.DefaultParams(), learnCfg)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	// The robot advances 0.1 ft per epoch along y (direction may alternate
	// between rounds, but with one round the mean velocity is +0.1).
	if math.Abs(res.Params.Motion.Velocity.Y-0.1) > 0.05 {
		t.Errorf("learned velocity = %v, want ~0.1 along y", res.Params.Motion.Velocity)
	}
	// The learned sensing noise respects the configured floor.
	if res.Params.Sensing.Noise.X < learnCfg.MinSensingNoise-1e-9 {
		t.Errorf("learned sensing noise %v below the floor", res.Params.Sensing.Noise)
	}
}

// TestCalibratesToSameBitsTwice pins that calibration is a pure function of
// its inputs: the M-step examples are built in tracked-object order, so two
// runs over one trace fit the same parameters to the last bit.
func TestCalibratesToSameBitsTwice(t *testing.T) {
	trace := trainingTrace(t, 10, 17)
	first, err := Calibrate(trace.Epochs, trace.World, model.DefaultParams(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := Calibrate(trace.Epochs, trace.World, model.DefaultParams(), quickConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d calibrated differently:\n%+v\nvs\n%+v", run+1, again, first)
		}
	}
}

func TestCalibrateErrorCases(t *testing.T) {
	trace := trainingTrace(t, 4, 11)
	if _, err := Calibrate(nil, trace.World, model.DefaultParams(), quickConfig()); err == nil {
		t.Error("expected error for empty epochs")
	}
	if _, err := Calibrate(trace.Epochs, nil, model.DefaultParams(), quickConfig()); err == nil {
		t.Error("expected error for nil world")
	}
}

func TestCalibrateLogLikelihoodReported(t *testing.T) {
	trace := trainingTrace(t, 10, 13)
	res, err := Calibrate(trace.Epochs, trace.World, model.DefaultParams(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LogLikelihood) != res.Iterations {
		t.Fatalf("log likelihood per iteration missing: %v", res.LogLikelihood)
	}
	for _, ll := range res.LogLikelihood {
		if ll > 0 || math.IsNaN(ll) {
			t.Errorf("invalid log likelihood %v", ll)
		}
	}
}

func TestFitModelToProfileMatchesCone(t *testing.T) {
	cone := sensor.DefaultConeProfile()
	m, err := FitModelToProfile(cone, 4, stats.DefaultLogisticFitOptions())
	if err != nil {
		t.Fatalf("FitModelToProfile: %v", err)
	}
	// The fitted parametric model cannot reproduce the hard cone edges but
	// must capture the gross shape: high on axis nearby, low far away and far
	// off axis.
	if p := m.ReadProb(1, 0); p < 0.6 {
		t.Errorf("fit read prob at (1, 0) = %v", p)
	}
	if p := m.ReadProb(3.9, 0); p > 0.45 {
		t.Errorf("fit read prob at (3.9, 0) = %v", p)
	}
	if p := m.ReadProb(1, 1.5); p > 0.4 {
		t.Errorf("fit read prob at (1, 86deg) = %v", p)
	}
	grid := sensor.SampleProfileGrid(sensor.ModelProfile{Model: m}, 0, 5, -2.5, 2.5, 24, 24)
	trueGrid := sensor.SampleProfileGrid(cone, 0, 5, -2.5, 2.5, 24, 24)
	if d := grid.MeanAbsDifference(trueGrid); d > 0.25 {
		t.Errorf("grid difference of direct fit = %v, want < 0.25", d)
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	var cfg Config
	cfg.applyDefaults()
	if cfg.Iterations <= 0 || cfg.ObjectParticles <= 0 || cfg.ReaderParticles <= 0 {
		t.Error("defaults not applied")
	}
	if cfg.EStepSensingNoiseFloor <= 0 || cfg.MinSensingNoise <= 0 || cfg.MinMotionNoise <= 0 {
		t.Error("noise floors not defaulted")
	}
}
