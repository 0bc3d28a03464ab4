package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/rfid"
)

// replay: offline cleaning through the rfid library, as rfidclean runs it —
// raw streams synchronized into epochs and fed one by one to
// Pipeline.ProcessEpoch, closed loop, as fast as it goes. Each pass over the
// trace uses a fresh pipeline; the first pass's events are scored against
// ground truth (deterministic for a seed), and timing covers every pass.

// minSamples is the smallest latency sample that supports a p99 with ten
// samples beyond it. A run keeps going past --seconds until it has them.
const minSamples = 1000

// setupRounds is how many times a run repeats its set-up; setup_s is the
// median.
const setupRounds = 5

type replayInput struct {
	trace  *rfid.Trace
	epochs []*rfid.Epoch
	cfg    rfid.Config
}

// replaySetup generates the trace, synchronizes its raw streams, and warms a
// throwaway pipeline (arenas, worker goroutines) on the first epochs.
func replaySetup(seed int64, workers int) (*replayInput, error) {
	tr, err := replayTrace(seed)
	if err != nil {
		return nil, err
	}
	readings, locations := rfid.RawStreams(tr)
	in := &replayInput{trace: tr, epochs: rfid.Synchronize(readings, locations)}
	in.cfg = rfid.DefaultConfig(rfid.DefaultParams(), tr.World)
	in.cfg.Workers = workers
	in.cfg.Seed = seed
	warm, err := rfid.NewPipeline(in.cfg)
	if err != nil {
		return nil, err
	}
	for _, ep := range in.epochs[:20] {
		if _, err := warm.ProcessEpoch(ep); err != nil {
			return nil, fmt.Errorf("warm-up epoch %d: %w", ep.Time, err)
		}
	}
	return in, nil
}

// replayRun is the outcome of one timed replay phase.
type replayRun struct {
	lat       samples // ProcessEpoch wall per epoch
	readings  int
	elapsed   time.Duration
	attempted int
	failed    int
	first     []rfid.Event // events of the first complete pass
	stats     rfid.Stats   // engine counters of the first pass
	particles int          // particles alive at the end of the first pass
	passLat   samples      // first-pass epoch walls, by epoch index
}

// timeReplay runs passes over the epochs until seconds have passed and at
// least min samples were taken (and at least one pass completed). A non-nil
// rec traces every epoch: the engine accrues stage timings and the loop
// commits each epoch with its wall time.
func timeReplay(in *replayInput, cfg rfid.Config, seconds float64, min int, maxEpochs int, rec *rfid.TraceRecorder) (*replayRun, error) {
	run := &replayRun{}
	limit := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for pass := 0; ; pass++ {
		pipe, err := rfid.NewPipeline(cfg)
		if err != nil {
			return nil, err
		}
		pipe.SetTraceRecorder(rec)
		for i, ep := range in.epochs {
			if maxEpochs > 0 && i >= maxEpochs {
				break
			}
			if pass > 0 && time.Since(start) >= limit && len(run.lat) >= min {
				run.elapsed = time.Since(start)
				return run, nil
			}
			t := time.Now()
			events, err := pipe.ProcessEpoch(ep)
			d := time.Since(t)
			rec.Commit(ep.Time, d)
			run.lat.add(d)
			run.attempted++
			if err != nil {
				run.failed++
			}
			run.readings += len(ep.Observed)
			if pass == 0 {
				run.first = append(run.first, events...)
				run.passLat.add(d)
			}
		}
		if pass == 0 {
			run.first = append(run.first, pipe.Finish()...)
			run.stats = pipe.Stats()
			run.particles = pipe.Particles()
		}
		if maxEpochs > 0 {
			run.elapsed = time.Since(start)
			return run, nil
		}
	}
}

func runReplay(o options) (*report, error) {
	rep := newReport()
	workers := runtime.NumCPU()
	var setups []float64
	var in *replayInput
	for i := 0; i < setupRounds; i++ {
		in = nil
		runtime.GC()
		debug.FreeOSMemory()
		t := time.Now()
		var err error
		if in, err = replaySetup(o.seed, workers); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	rep.printf("input replay objects=%d epochs=%d digest=%s", len(in.trace.ObjectIDs), len(in.epochs), replayDigest(in.trace))

	run, err := timeReplay(in, in.cfg, o.seconds, minSamples, 0, nil)
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = run.attempted, run.failed
	acc := scoreEvents(run.first, in.trace)
	rep.check("replay_all_objects_scored", checkScored(acc, len(in.trace.ObjectIDs)))
	rep.check("replay_no_failed_epochs", checkNoFailures(run.attempted, run.failed))

	if !o.trace {
		rep.set("setup_s", median(setups), "s", fmt.Sprintf("n=%d median of set-ups (trace generation, synchronize, warm-up)", len(setups)))
		rep.set("readings_per_s", float64(run.readings)/run.elapsed.Seconds(), "1/s", fmt.Sprintf("readings=%d elapsed_s=%.3f", run.readings, run.elapsed.Seconds()))
		rep.setLatency("ack", run.lat, "alias=epoch (ProcessEpoch wall)")
		rep.setLatency("result", run.lat, "alias=epoch (events returned by ProcessEpoch)")
		rep.set("loc_err_mean_ft", acc.report.MeanXY, "ft", fmt.Sprintf("objects=%d via rfid.ScoreEvents", acc.report.Count))
		rep.set("loc_err_p95_ft", acc.errs.quantile(0.95), "ft", fmt.Sprintf("objects=%d", len(acc.errs)))
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		rep.set("peak_rss_mb", rss, "MB", "VmHWM of the benchmark process (the library under test)")
		rep.info("epoch_p50_ms", run.lat.quantile(0.5), "ms", fmt.Sprintf("n=%d", len(run.lat)))
		rep.info("epoch_p99_ms", run.lat.quantile(0.99), "ms", fmt.Sprintf("n=%d beyond=%d", len(run.lat), run.lat.beyond(0.99)))
		rep.info("failed_share", float64(run.failed)/float64(run.attempted), "ratio", fmt.Sprintf("attempted=%d", run.attempted))
		return rep, nil
	}

	// Traced run: the untraced phase above is the overhead baseline; the
	// traced phase times each engine stage through a TraceRecorder; a
	// single-worker phase over the same first-pass epochs gives the parallel
	// speedup.
	rec := rfid.NewTraceRecorder(1)
	traced, err := timeReplay(in, in.cfg, o.seconds, minSamples, 0, rec)
	if err != nil {
		return nil, err
	}
	epochs := float64(rec.Epochs())
	stages := rec.CumulativeStages()
	stageMS := func(s rfid.TraceStage) float64 { return float64(stages[s]) / 1e6 / epochs }
	prologue, step, estimate := stageMS(rfid.TraceStagePrologue), stageMS(rfid.TraceStageStep), stageMS(rfid.TraceStageEstimate)
	rep.set("core.prologue_ms", prologue, "ms", "per epoch, TraceRecorder")
	rep.set("core.step_ms", step, "ms", "per epoch, TraceRecorder")
	rep.set("core.estimate_ms", estimate, "ms", "per epoch, TraceRecorder")
	rep.info("core.seal_ms", 0, "ms", "not exercised: a bare Pipeline has no seal stage")

	serialCfg := in.cfg
	serialCfg.Workers = 1
	budget := len(in.epochs)
	serial, err := timeReplay(in, serialCfg, o.seconds, 0, budget, nil)
	if err != nil {
		return nil, err
	}
	k := len(serial.lat)
	if k > len(run.passLat) {
		k = len(run.passLat)
	}
	speedup := samples(serial.lat[:k]).sum() / samples(run.passLat[:k]).sum()
	rep.set("core.parallel_speedup", speedup, "x", fmt.Sprintf("Workers=%d over Workers=1, first %d epochs", workers, k))
	rep.set("core.particles", float64(run.particles), "count", "alive at the end of the first pass")
	rep.set("spatial.objects_per_reading", float64(run.stats.ObjectsProcessed)/float64(run.stats.Readings), "ratio", "Stats.ObjectsProcessed / Stats.Readings")
	rep.set("belief.compressions", float64(run.stats.Compressions), "count", "first pass")
	rep.set("belief.decompressions", float64(run.stats.Decompressions), "count", "first pass")
	unattributed := 1 - (prologue+step+estimate)/traced.lat.mean()
	rep.set("serve.unattributed_share", unattributed, "ratio", "1 - engine stages / epoch wall")
	rep.set("trace.overhead_share", traced.lat.mean()/run.lat.mean()-1, "ratio", fmt.Sprintf("traced %.4f ms / untraced %.4f ms mean epoch", traced.lat.mean(), run.lat.mean()))
	setBypassed(rep, "replay")
	return rep, nil
}

func replayDigest(tr *rfid.Trace) string {
	return inputDigest(nil, [][]batch{epochBatches(tr)})
}
