package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/rfid"
	"repro/rfid/api"
	"repro/rfid/client"
)

// cold: hundreds of durable sessions behind a resident cap far below their
// count. Two lanes each POST one epoch's readings as JSON to their half of the
// sessions in round-robin order and wait for every reply (closed loop), so
// every touch lands on an evicted session and pays a full hydration:
// checkpoint read and decode, then WAL replay. Every touch also writes an
// eviction checkpoint; run.sh puts the data directories on a private tmpfs so
// that the touch latency follows that work rather than the disk's fsync
// stalls (see README.md).

const (
	coldSessions        = 256
	coldResident        = 16
	coldObjParticles    = 64
	coldReaderParticles = 32
	coldWarmEpochs      = 80 // one pass over the shelf, sent as one ingest, plus a per-session stagger
	coldLanes           = 2
	coldSample          = 8 // sessions checked against the reference and probed
	coldSetupRounds     = 3 // each set-up creates every session, so fewer rounds
)

type coldSession struct {
	id      string
	req     api.CreateSessionRequest
	trace   *rfid.Trace
	batches []batch
	warm    int // epochs sent as the warm-up ingest
	next    int // index of the next batch to send
}

type coldRun struct {
	srv      *server
	cl       *client.Client
	sessions []*coldSession
	errs     samples // per-object error of the served snapshots after warm-up
	scoring  time.Duration
}

// coldSetup starts rfidserve with the resident cap, creates every session,
// sends its warm-up pass as one ingest and, while the session is still
// resident, reads its snapshot back for the accuracy score.
func coldSetup(o options, traceEpochs int, name string) (*coldRun, error) {
	srv, err := startServer(o.serveBin, filepath.Join(o.workDir, name), filepath.Join(o.workDir, name+".log"),
		"-fsync", "always", "-max-resident", fmt.Sprint(coldResident),
		"-max-sessions", fmt.Sprint(coldSessions+1), "-trace-epochs", fmt.Sprint(traceEpochs))
	if err != nil {
		return nil, err
	}
	cr := &coldRun{srv: srv, cl: client.New(srv.base)}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for i := 0; i < coldSessions; i++ {
		cs, err := coldInput(o.seed, i)
		if err != nil {
			srv.stop()
			return nil, err
		}
		sess, _, err := cr.cl.OpenSession(ctx, cs.req)
		if err != nil {
			srv.stop()
			return nil, fmt.Errorf("create session %s: %w", cs.id, err)
		}
		if _, err := sess.Ingest(ctx, merge(cs.batches[:cs.warm]).request()); err != nil {
			srv.stop()
			return nil, fmt.Errorf("warm-up ingest %s: %w", cs.id, err)
		}
		t := time.Now()
		view, err := fetchView(ctx, sess)
		if err != nil {
			srv.stop()
			return nil, err
		}
		last := cs.batches[cs.warm-1].Time
		var events []rfid.Event
		for _, tg := range view.Tags {
			events = append(events, rfid.Event{Time: last, Tag: rfid.TagID(tg.Tag), Loc: rfid.Vec3{X: tg.X, Y: tg.Y, Z: tg.Z}})
		}
		acc := scoreEvents(events, cs.trace)
		if err := checkScored(acc, len(cs.trace.ObjectIDs)); err != nil {
			srv.stop()
			return nil, fmt.Errorf("session %s after warm-up: %w", cs.id, err)
		}
		cr.errs = append(cr.errs, acc.errs...)
		cr.scoring += time.Since(t)
		cr.sessions = append(cr.sessions, cs)
	}
	return cr, nil
}

// coldInput builds session i's world, creation request and batches. The
// warm-up covers the first pass plus a per-session stagger, so the timed
// touches land at positions spread over the whole aisle and the readings a
// touch carries do not depend on how many touches a run makes.
func coldInput(seed int64, i int) (*coldSession, error) {
	tr, err := coldTrace(seed, i)
	if err != nil {
		return nil, err
	}
	id := fmt.Sprintf("c%03d", i)
	return &coldSession{
		id:      id,
		req:     sessionRequest(id, apiWorld(tr.World), coldObjParticles, coldReaderParticles, workloadSeed(seed, "cold-engine", i)),
		trace:   tr,
		batches: epochBatches(tr),
		warm:    coldWarmEpochs + i*37%coldWarmEpochs,
		next:    coldWarmEpochs + i*37%coldWarmEpochs,
	}, nil
}

// fetchView reads a session's reader pose and every tracked tag's belief.
func fetchView(ctx context.Context, sess *client.Session) (sessionView, error) {
	ov, err := sess.Snapshot(ctx)
	if err != nil {
		return sessionView{}, fmt.Errorf("snapshot %s: %w", sess.ID(), err)
	}
	v := sessionView{Reader: ov.Reader}
	set := map[rfid.TagID]bool{}
	for _, t := range ov.Tracked {
		set[rfid.TagID(t)] = true
	}
	for _, t := range sortedTags(set) {
		ts, err := sess.SnapshotTag(ctx, string(t))
		if err != nil {
			return sessionView{}, fmt.Errorf("snapshot %s/%s: %w", sess.ID(), t, err)
		}
		v.Tags = append(v.Tags, ts)
	}
	return v, nil
}

// coldPhase is the outcome of one timed closed-loop phase.
type coldPhase struct {
	touch         samples
	readings      int
	attempted     int
	failed        int
	elapsed       time.Duration
	before, after prom
	jsonBytes     int
}

// runTimed drives the lanes closed loop: each lane sends its next touch
// when the previous reply arrives, round robin over its half of the
// sessions, until seconds have passed and minSamples touches were made.
func (cr *coldRun) runTimed(seconds float64, scrape bool) (*coldPhase, error) {
	ph := &coldPhase{}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var err error
	if scrape {
		if ph.before, err = cr.srv.scrape(ctx); err != nil {
			return nil, err
		}
	}
	limit := time.Duration(seconds * float64(time.Second))
	var made atomic.Int64
	type lane struct {
		touch    samples
		readings int
		failed   int
		err      error
	}
	lanes := make([]lane, coldLanes)
	from := make([]int, len(cr.sessions))
	for i, cs := range cr.sessions {
		from[i] = cs.next
	}
	start := time.Now()
	var wg sync.WaitGroup
	for l := 0; l < coldLanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			ln := &lanes[l]
			for k := l; time.Since(start) < limit || made.Load() < minSamples; k += coldLanes {
				cs := cr.sessions[k%coldSessions]
				if cs.next >= len(cs.batches) {
					ln.err = fmt.Errorf("session %s ran out of epochs", cs.id)
					return
				}
				b := cs.batches[cs.next].request()
				t := time.Now()
				_, err := cr.cl.Session(cs.id).Ingest(ctx, b)
				ln.touch.add(time.Since(t))
				made.Add(1)
				if err != nil {
					ln.failed++
				}
				cs.next++
				ln.readings += len(b.Readings)
			}
		}(l)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	for _, ln := range lanes {
		if ln.err != nil {
			return nil, ln.err
		}
		ph.touch = append(ph.touch, ln.touch...)
		ph.readings += ln.readings
		ph.failed += ln.failed
	}
	for i, cs := range cr.sessions {
		for _, b := range cs.batches[from[i]:cs.next] {
			js, err := json.Marshal(b.request())
			if err != nil {
				return nil, err
			}
			ph.jsonBytes += len(js)
		}
	}
	ph.attempted = len(ph.touch)
	if scrape {
		if ph.after, err = cr.srv.scrape(ctx); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// sample returns the sessions checked against the reference, spread over
// both lanes and the whole round.
func (cr *coldRun) sample() []*coldSession {
	var out []*coldSession
	for i := 0; i < coldSample; i++ {
		out = append(out, cr.sessions[i*coldSessions/coldSample+i%coldLanes])
	}
	return out
}

// twins sums what the sampled sessions' in-process twins did over the
// touches: engine counters, and engine stage time per touched epoch.
type twins struct {
	stats  rfid.Stats
	epochs int64
	stages [rfid.NumTraceStages]time.Duration
}

// stageMS is the twins' mean time per touched epoch in one stage.
func (t twins) stageMS(s rfid.TraceStage) float64 {
	return float64(t.stages[s]) / 1e6 / float64(t.epochs)
}

// checkSample compares each sampled session's served state with an uncapped
// in-process runner fed the same batches, and sums the twins' counters.
func (cr *coldRun) checkSample() (twins, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var sum twins
	for _, cs := range cr.sample() {
		got, err := fetchView(ctx, cr.cl.Session(cs.id))
		if err != nil {
			return sum, err
		}
		ref, err := referenceRunner(cs.req, 1)
		if err != nil {
			return sum, err
		}
		if _, err := ingestInto(ref, merge(cs.batches[:cs.warm])); err != nil {
			return sum, err
		}
		rec := ref.TraceRecorder()
		epochs0, stages0 := rec.Epochs(), rec.CumulativeStages()
		for _, b := range cs.batches[cs.warm:cs.next] {
			if _, err := ingestInto(ref, b); err != nil {
				return sum, err
			}
		}
		sum.epochs += rec.Epochs() - epochs0
		for i, d := range rec.CumulativeStages() {
			sum.stages[i] += d - stages0[i]
		}
		if err := checkSnapshot(got, referenceView(ref)); err != nil {
			return sum, fmt.Errorf("session %s after %d touches: %w", cs.id, cs.next-cs.warm, err)
		}
		st := ref.Stats().Stats
		sum.stats.Readings += st.Readings
		sum.stats.ObjectsProcessed += st.ObjectsProcessed
		sum.stats.Compressions += st.Compressions
		sum.stats.Decompressions += st.Decompressions
	}
	return sum, nil
}

func runCold(o options) (*report, error) {
	rep := newReport()
	var setups []float64
	var cr *coldRun
	for i := 0; i < coldSetupRounds; i++ {
		t := time.Now()
		var err error
		cr, err = coldSetup(o, 0, fmt.Sprintf("cold-setup-%d", i))
		if err != nil {
			return nil, err
		}
		setups = append(setups, (time.Since(t) - cr.scoring).Seconds())
		if i < coldSetupRounds-1 {
			if err := cr.srv.stop(); err != nil {
				return nil, err
			}
		}
	}
	rep.printf("input cold sessions=%d resident_cap=%d objects_per_session=%d digest=%s",
		coldSessions, coldResident, len(cr.sessions[0].trace.ObjectIDs), coldDigest(cr.sessions))

	ph, err := cr.runTimed(o.seconds, o.trace)
	if err != nil {
		cr.srv.stop()
		return nil, err
	}
	rep.attempted, rep.failed = ph.attempted, ph.failed
	rep.check("cold_every_touch_2xx", checkNoFailures(ph.attempted, ph.failed))
	tw, err := cr.checkSample()
	rep.check("cold_sample_matches_uncapped_reference", err)
	rss, rssErr := cr.srv.peakRSSMB()
	if err := cr.srv.stop(); err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}

	if !o.trace {
		rep.set("setup_s", median(setups), "s", fmt.Sprintf("n=%d median of set-ups (rfidserve boot, %d sessions created and warmed)", len(setups), coldSessions))
		rep.set("readings_per_s", float64(ph.readings)/ph.elapsed.Seconds(), "1/s",
			fmt.Sprintf("readings=%d elapsed_s=%.3f touches=%d", ph.readings, ph.elapsed.Seconds(), ph.attempted))
		rep.setLatency("ack", ph.touch, "alias=touch (JSON ingest round trip on an evicted session)")
		rep.setLatency("result", ph.touch, "alias=touch (the reply follows the applied epoch)")
		rep.info("touch_p50_ms", ph.touch.quantile(0.5), "ms", fmt.Sprintf("n=%d", len(ph.touch)))
		rep.info("touch_p99_ms", ph.touch.quantile(0.99), "ms", fmt.Sprintf("n=%d beyond=%d", len(ph.touch), ph.touch.beyond(0.99)))
		rep.set("loc_err_mean_ft", cr.errs.mean(), "ft", fmt.Sprintf("objects=%d served snapshots after the warm-up pass", len(cr.errs)))
		rep.set("loc_err_p95_ft", cr.errs.quantile(0.95), "ft", fmt.Sprintf("objects=%d", len(cr.errs)))
		rep.set("peak_rss_mb", rss, "MB", "VmHWM of rfidserve")
		rep.info("failed_share", float64(ph.failed)/float64(ph.attempted), "ratio", fmt.Sprintf("attempted=%d", ph.attempted))
		return rep, nil
	}

	tc, err := coldSetup(o, 64, "cold-traced")
	if err != nil {
		return nil, err
	}
	tp, err := tc.runTimed(o.seconds, true)
	if err != nil {
		tc.srv.stop()
		return nil, err
	}
	rep.check("cold_traced_every_touch_2xx", checkNoFailures(tp.attempted, tp.failed))
	ckptBytes := newestCheckpointBytes(filepath.Join(tc.srv.dataDir, "sessions"))
	if err := tc.srv.stop(); err != nil {
		return nil, err
	}
	// The server's stage counters only ever rise to the resident runner's
	// own cumulative total, which restarts at every hydration, so under
	// eviction they undercount. The engine stages are timed instead on the
	// sampled sessions' byte-identical in-process twins.
	layers := serverLayers(tp.before, tp.after)
	rep.info("serve.stage_counter_ms", layers.engineMS(), "ms", "engine stages per epoch as rfidserve_epoch_stage_seconds_total reports them (undercounts across evictions)")
	for name, st := range map[string]rfid.TraceStage{"prologue": rfid.TraceStagePrologue, "step": rfid.TraceStageStep,
		"estimate": rfid.TraceStageEstimate, "seal": rfid.TraceStageSeal, "decode": rfid.TraceStageDecode} {
		layers.stageMS[name] = tw.stageMS(st)
	}
	layers.note = fmt.Sprintf("per epoch, in-process twins of %d sampled sessions over %d touched epochs (query_eval, wal_append: server counters)", coldSample, tw.epochs)
	layers.report(rep, tp.before, tp.after, tp.touch.mean())
	var probes []probeTarget
	for _, cs := range tc.sample() {
		probes = append(probes, probeTarget{filepath.Join(tc.srv.dataDir, "sessions", cs.id), cs.req})
	}
	if err := probeHydration(rep, probes); err != nil {
		return nil, err
	}
	rep.set("core.parallel_speedup", 0, "x", "not measured on this workload (replay only)")
	rep.set("spatial.objects_per_reading", float64(tw.stats.ObjectsProcessed)/float64(tw.stats.Readings), "ratio", "byte-identical in-process twins of the sampled sessions")
	rep.set("belief.compressions", float64(tw.stats.Compressions), "count", "sampled sessions' twins")
	rep.set("belief.decompressions", float64(tw.stats.Decompressions), "count", "sampled sessions' twins")
	rep.set("wire.bytes_per_reading", float64(tp.jsonBytes)/float64(tp.readings), "B", "JSON ingest bodies")
	rep.set("wal.bytes_per_reading", delta(tp.before, tp.after, "rfidserve_wal_appended_bytes_total", nil)/float64(tp.readings), "B", "")
	rep.set("checkpoint.bytes_per_session", ckptBytes, "B", "newest checkpoint file, mean over sessions")
	rep.set("query.rows", 0, "count", "not exercised: cold sessions have no queries")
	rep.set("hydrate.per_touch", delta(tp.before, tp.after, "rfidserve_hydrations_total", nil)/float64(tp.attempted), "ratio", fmt.Sprintf("touches=%d", tp.attempted))
	rep.set("trace.overhead_share", tp.touch.mean()/ph.touch.mean()-1, "ratio",
		fmt.Sprintf("traced %.4f ms / untraced %.4f ms mean touch", tp.touch.mean(), ph.touch.mean()))
	return rep, nil
}

func coldDigest(sessions []*coldSession) string {
	var worlds []*api.World
	var batches [][]batch
	for _, cs := range sessions {
		worlds = append(worlds, cs.req.World)
		batches = append(batches, cs.batches)
	}
	return inputDigest(worlds, batches)
}
