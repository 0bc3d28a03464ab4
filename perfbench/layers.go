package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root. Its
// end_to_end and per_layer lists are the metric sets the untraced and the
// traced run must report, each metric with its unit. The per_layer set holds
// the engine stage times (every workload runs the engine) and counts or
// ratios, which read 0 on a workload that bypasses the layer. Time metrics of
// layers only some workloads use (WAL, checkpoint, hydration, stream decode,
// query eval, long-poll) are printed as "info" lines by the workloads that
// use them.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// spec is BENCHMARK.json, read once at start-up.
var spec benchmarkFile

// loadBenchmarkFile reads and strictly decodes a BENCHMARK.json file.
func loadBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// wantMetrics is the metric set a run of the given mode reports: name to unit.
func (bf benchmarkFile) wantMetrics(traced bool) map[string]string {
	want := map[string]string{}
	if traced {
		for _, m := range bf.PerLayer {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range bf.EndToEnd {
			want[m.Name] = m.Unit
		}
	}
	return want
}

// setBypassed reports the serving-layer counts of a workload that never
// touches those layers (replay) as zero.
func setBypassed(rep *report, workload string) {
	units := spec.wantMetrics(true)
	for _, name := range []string{"wire.bytes_per_reading", "wal.bytes_per_reading", "checkpoint.bytes_per_session", "query.rows", "hydrate.per_touch"} {
		rep.set(name, 0, units[name], "not exercised: "+workload+" bypasses this layer")
	}
}

// checkMetricSet verifies a run reports exactly the JSON set its mode
// promises in BENCHMARK.json, each with its declared unit.
func checkMetricSet(rep *report, want map[string]string) error {
	if len(rep.metrics) != len(want) {
		return fmt.Errorf("reported %d metrics %v, want %d", len(rep.metrics), rep.metricNames(), len(want))
	}
	for name, unit := range want {
		got, ok := rep.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s missing", name)
		}
		if got.Unit != unit {
			return fmt.Errorf("metric %s has unit %q, want %q", name, got.Unit, unit)
		}
	}
	return nil
}

// serverStages are the epoch stages rfidserve exports per session as
// rfidserve_epoch_stage_seconds_total{stage=...}.
var serverStages = []string{"decode", "prologue", "step", "estimate", "query_eval", "wal_append", "seal"}

// serverLayerStats is what the server's own metrics say about the window
// between two scrapes.
type serverLayerStats struct {
	epochs    float64
	stageMS   map[string]float64 // per epoch
	particles float64
	note      string // where the stage times come from
}

func serverLayers(before, after prom) serverLayerStats {
	l := serverLayerStats{stageMS: map[string]float64{}}
	l.epochs = delta(before, after, "rfidserve_epochs_total", nil)
	l.note = fmt.Sprintf("per epoch, server stage counters over %.0f epochs", l.epochs)
	for _, st := range serverStages {
		secs := delta(before, after, "rfidserve_epoch_stage_seconds_total", map[string]string{"stage": st})
		if l.epochs > 0 {
			l.stageMS[st] = secs * 1e3 / l.epochs
		}
	}
	n := 0.0
	for _, s := range after {
		if s.name == "rfidserve_particles" && s.labels["session"] != "" && s.value > 0 {
			l.particles += s.value
			n++
		}
	}
	if n > 0 {
		l.particles /= n
	}
	return l
}

// engineMS is the engine's share of an epoch: prologue, step and estimate.
func (l serverLayerStats) engineMS() float64 {
	return l.stageMS["prologue"] + l.stageMS["step"] + l.stageMS["estimate"]
}

// report writes the stage-derived metrics; e2eMean is the workload's mean
// end-to-end latency in ms, the base of the unattributed share.
func (l serverLayerStats) report(rep *report, before, after prom, e2eMean float64) {
	note := l.note
	rep.set("core.prologue_ms", l.stageMS["prologue"], "ms", note)
	rep.set("core.step_ms", l.stageMS["step"], "ms", note)
	rep.set("core.estimate_ms", l.stageMS["estimate"], "ms", note)
	rep.info("core.seal_ms", l.stageMS["seal"], "ms", note)
	rep.info("stream.decode_ms", l.stageMS["decode"], "ms", note+" (decode stage: drain of the epoch synchronizer)")
	rep.info("query.eval_ms", l.stageMS["query_eval"], "ms", note)
	rep.info("wal.append_ms", l.stageMS["wal_append"], "ms", note)
	rep.set("core.particles", l.particles, "count", "rfidserve_particles, mean over resident sessions")
	sum := 0.0
	for _, v := range l.stageMS {
		sum += v
	}
	rep.set("serve.unattributed_share", 1-sum/e2eMean, "ratio", fmt.Sprintf("1 - %.4f ms summed stages / %.4f ms mean end-to-end", sum, e2eMean))

	hist := func(name, metric string, q float64) {
		count := delta(before, after, metric+"_count", nil)
		if count <= 0 {
			rep.info(name, 0, "ms", "no observations in the window")
			return
		}
		rep.info(name, histQuantile(before, after, metric, q)*1e3, "ms", fmt.Sprintf("n=%.0f bucket estimate from %s", count, metric))
	}
	mean := func(name, metric string) {
		count := delta(before, after, metric+"_count", nil)
		if count <= 0 {
			rep.info(name, 0, "ms", "no observations in the window")
			return
		}
		rep.info(name, delta(before, after, metric+"_sum", nil)/count*1e3, "ms", fmt.Sprintf("n=%.0f mean of %s", count, metric))
	}
	hist("wal.fsync_p50_ms", "rfidserve_wal_fsync_seconds", 0.5)
	hist("wal.fsync_p99_ms", "rfidserve_wal_fsync_seconds", 0.99)
	hist("checkpoint.write_p99_ms", "rfidserve_checkpoint_write_seconds", 0.99)
	hist("hydrate.p50_ms", "rfidserve_hydration_seconds", 0.5)
	hist("hydrate.p99_ms", "rfidserve_hydration_seconds", 0.99)
	mean("serve.longpoll_ms", "rfidserve_longpoll_seconds")
	mean("serve.ingest_ms", "rfidserve_ingest_seconds")
}
