package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/rfid"
	"repro/rfid/api"
	"repro/rfid/client"
	"repro/rfid/wire"
)

// live: one durable rfidserve session tracks one mobile reader in real
// time. The reader's raw streams go out over the binary stream
// (client.StreamIngester), one batch per epoch, each sent when it is due at
// a fixed offered rate (open loop). A second connection long-polls a
// location-updates query. Latencies run from when the epoch was due.

const (
	liveRate            = 200.0 // offered epochs per second, about a third of saturation on 2 CPUs
	liveWarmEpochs      = 50
	liveObjParticles    = 100
	liveReaderParticles = 100
	liveMinChange       = 0
)

// liveSession is one started server with its session, query, stream and
// result reader.
type liveSession struct {
	srv     *server
	sess    *client.Session
	req     api.CreateSessionRequest
	qid     string
	st      *client.StreamIngester
	batches []batch
	trace   *rfid.Trace

	mu     sync.Mutex
	ackAt  []time.Time // by batch sequence number (1-based)
	acked  uint64
	rows   []api.QueryResult
	rowAt  map[int]time.Time // epoch time -> arrival of its first row
	rowErr error
	sent   uint64

	stopReader context.CancelFunc
	readerDone chan struct{}
}

// liveSetup starts rfidserve, creates the session, registers the query,
// opens the stream and the long-poll reader, and warms the path up with
// liveWarmEpochs epochs sent closed loop.
func liveSetup(o options, traceEpochs int, timed int, name string) (*liveSession, error) {
	tr, err := liveTrace(o.seed, liveWarmEpochs+timed)
	if err != nil {
		return nil, err
	}
	all := epochBatches(tr)
	if len(all) < liveWarmEpochs+timed {
		return nil, fmt.Errorf("live trace has %d epochs, need %d", len(all), liveWarmEpochs+timed)
	}
	srv, err := startServer(o.serveBin, filepath.Join(o.workDir, name), filepath.Join(o.workDir, name+".log"),
		"-fsync", "always", "-trace-epochs", fmt.Sprint(traceEpochs))
	if err != nil {
		return nil, err
	}
	ls := &liveSession{
		srv: srv, batches: all[:liveWarmEpochs+timed], trace: tr,
		ackAt: make([]time.Time, liveWarmEpochs+timed+1), rowAt: map[int]time.Time{},
		readerDone: make(chan struct{}),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ls.req = sessionRequest("live", apiWorld(tr.World), liveObjParticles, liveReaderParticles, workloadSeed(o.seed, "live-engine", 0))
	sess, _, err := client.New(srv.base).OpenSession(ctx, ls.req)
	if err != nil {
		ls.close()
		return nil, fmt.Errorf("create live session: %w", err)
	}
	ls.sess = sess
	info, err := sess.RegisterQuery(ctx, api.QuerySpec{Kind: api.QueryLocationUpdates, MinChange: liveMinChange})
	if err != nil {
		ls.close()
		return nil, fmt.Errorf("register query: %w", err)
	}
	ls.qid = info.ID
	readerCtx, stop := context.WithCancel(context.Background())
	ls.stopReader = stop
	go ls.readRows(readerCtx)
	ls.st = sess.Stream(client.StreamOptions{
		// Batches are sealed explicitly, one per epoch: no size or timer
		// seal may split an epoch.
		BatchSize:     1 << 30,
		FlushInterval: time.Hour,
		OnAck:         ls.onAck,
	})
	for i := 0; i < liveWarmEpochs; i++ {
		if err := ls.send(i); err != nil {
			ls.close()
			return nil, err
		}
		if err := ls.st.Flush(ctx); err != nil {
			ls.close()
			return nil, fmt.Errorf("warm-up flush: %w", err)
		}
	}
	if err := ls.awaitRows(ctx); err != nil {
		ls.close()
		return nil, err
	}
	return ls, nil
}

func (ls *liveSession) onAck(a api.StreamAck) {
	now := time.Now()
	ls.mu.Lock()
	for s := ls.acked + 1; s <= a.UpTo && s < uint64(len(ls.ackAt)); s++ {
		ls.ackAt[s] = now
	}
	if a.UpTo > ls.acked {
		ls.acked = a.UpTo
	}
	ls.mu.Unlock()
}

// send adds epoch i's records and seals them as one batch (sequence i+1).
func (ls *liveSession) send(i int) error {
	b := ls.batches[i]
	for _, r := range b.Readings {
		if err := ls.st.AddReading(r.Time, r.Tag); err != nil {
			return err
		}
	}
	for _, l := range b.Locations {
		if err := ls.st.AddLocation(l); err != nil {
			return err
		}
	}
	ls.sent++
	return seal(ls.st)
}

// sealed is an already-cancelled context: Flush under it seals the current
// batch for sending and returns at once instead of waiting for the ack,
// which keeps the generator open loop.
var sealed = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

func seal(st *client.StreamIngester) error {
	if err := st.Flush(sealed); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// readRows long-polls the query until stopped, stamping each epoch's first
// row with its arrival time.
func (ls *liveSession) readRows(ctx context.Context) {
	defer close(ls.readerDone)
	after := client.FromStart
	for {
		page, err := ls.sess.PollResults(ctx, ls.qid, client.PollOptions{After: after, Wait: 5 * time.Second})
		now := time.Now()
		if err != nil {
			if ctx.Err() == nil {
				ls.mu.Lock()
				ls.rowErr = err
				ls.mu.Unlock()
			}
			return
		}
		ls.mu.Lock()
		for _, r := range page.Results {
			var row struct {
				Time int `json:"time"`
			}
			if err := json.Unmarshal(r.Row, &row); err != nil {
				ls.rowErr = err
			}
			if _, seen := ls.rowAt[row.Time]; !seen {
				ls.rowAt[row.Time] = now
			}
			ls.rows = append(ls.rows, r)
			after = r.Seq
		}
		ls.mu.Unlock()
	}
}

// awaitRows waits until every row the query has produced so far arrived.
func (ls *liveSession) awaitRows(ctx context.Context) error {
	qs, err := ls.sess.Queries(ctx)
	if err != nil {
		return err
	}
	want := -1
	for _, q := range qs {
		if q.ID == ls.qid {
			want = q.NextSeq
		}
	}
	for {
		ls.mu.Lock()
		n, rerr := len(ls.rows), ls.rowErr
		ls.mu.Unlock()
		if rerr != nil {
			return fmt.Errorf("long-poll: %w", rerr)
		}
		if n >= want {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for query rows: %d of %d arrived: %w", n, want, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

func (ls *liveSession) close() error {
	if ls.stopReader != nil {
		ls.stopReader()
		<-ls.readerDone
	}
	var err error
	if ls.st != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = ls.st.Close(ctx)
		cancel()
	}
	if serr := ls.srv.stop(); serr != nil && err == nil {
		err = serr
	}
	return err
}

// livePhase is the outcome of one timed open-loop phase.
type livePhase struct {
	ack, result, lag samples
	readings         int
	elapsed          time.Duration // first due time to last ack
	before, after    prom
	timedRows        int
	missing          int // epochs never acknowledged
}

// runTimed sends the timed epochs open loop at liveRate and waits for every ack
// and row.
func (ls *liveSession) runTimed(timed int, scrape bool) (*livePhase, error) {
	ph := &livePhase{}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var err error
	if scrape {
		if ph.before, err = ls.srv.scrape(ctx); err != nil {
			return nil, err
		}
	}
	ls.mu.Lock()
	rowsBefore := len(ls.rows)
	ls.mu.Unlock()
	period := time.Duration(float64(time.Second) / liveRate)
	t0 := time.Now().Add(2 * time.Millisecond)
	due := make([]time.Time, timed)
	for i := 0; i < timed; i++ {
		due[i] = t0.Add(time.Duration(i) * period)
		if d := time.Until(due[i]); d > 0 {
			time.Sleep(d)
		}
		ph.lag.add(time.Since(due[i]))
		if err := ls.send(liveWarmEpochs + i); err != nil {
			return nil, fmt.Errorf("send epoch %d: %w", i, err)
		}
		ph.readings += len(ls.batches[liveWarmEpochs+i].Readings)
	}
	if err := ls.st.Flush(ctx); err != nil {
		return nil, fmt.Errorf("final flush: %w", err)
	}
	if err := ls.awaitRows(ctx); err != nil {
		return nil, err
	}
	if scrape {
		if ph.after, err = ls.srv.scrape(ctx); err != nil {
			return nil, err
		}
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	last := ls.ackAt[liveWarmEpochs+timed]
	ph.elapsed = last.Sub(t0)
	for i := 0; i < timed; i++ {
		at := ls.ackAt[liveWarmEpochs+i+1]
		if at.IsZero() {
			ph.missing++
			continue
		}
		ph.ack.add(at.Sub(due[i]))
		if at, ok := ls.rowAt[ls.batches[liveWarmEpochs+i].Time]; ok {
			ph.result.add(at.Sub(due[i]))
		}
	}
	ph.timedRows = len(ls.rows) - rowsBefore
	return ph, nil
}

// referenceRows replays the session's batches through an in-process runner
// and location-updates query and returns the rows the server must deliver.
func (ls *liveSession) reference() ([][]byte, rfid.Stats, error) {
	r, err := referenceRunner(ls.req, 0)
	if err != nil {
		return nil, rfid.Stats{}, err
	}
	q := rfid.NewLocationUpdateQuery(liveMinChange)
	var rows [][]byte
	for _, b := range ls.batches {
		events, err := ingestInto(r, b)
		if err != nil {
			return nil, rfid.Stats{}, err
		}
		for _, ev := range events {
			if u, ok := q.Push(ev); ok {
				js, err := json.Marshal(u)
				if err != nil {
					return nil, rfid.Stats{}, err
				}
				rows = append(rows, js)
			}
		}
	}
	return rows, r.Stats().Stats, nil
}

// deliveredEvents turns the delivered rows back into events for scoring.
func (ls *liveSession) deliveredEvents() ([]rfid.Event, error) {
	var out []rfid.Event
	for _, r := range ls.rows {
		var u rfid.LocationUpdate
		if err := json.Unmarshal(r.Row, &u); err != nil {
			return nil, err
		}
		out = append(out, rfid.Event{Time: u.Time, Tag: u.Tag, Loc: u.Loc})
	}
	return out, nil
}

// wireBytes is the size of the stream frames carrying the batches.
func wireBytes(bs []batch) int {
	var enc wire.Encoder
	n := 0
	for i, b := range bs {
		enc.Reset()
		wire.AppendBatchFrame(&enc, uint64(i+1), wire.APIBatch{Readings: b.Readings, Locations: b.Locations})
		n += len(wire.AppendFrame(nil, enc.Bytes()))
	}
	return n
}

func runLive(o options) (*report, error) {
	rep := newReport()
	timed := int(o.seconds * liveRate)
	var setups []float64
	var ls *liveSession
	for i := 0; i < setupRounds; i++ {
		t := time.Now()
		var err error
		ls, err = liveSetup(o, 0, timed, fmt.Sprintf("live-setup-%d", i))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < setupRounds-1 {
			if err := ls.close(); err != nil {
				return nil, err
			}
		}
	}
	rep.printf("input live objects=%d epochs=%d (warm-up %d, timed %d) offered_epochs_per_s=%g digest=%s",
		len(ls.trace.ObjectIDs), len(ls.batches), liveWarmEpochs, timed, liveRate,
		inputDigest([]*api.World{ls.req.World}, [][]batch{ls.batches}))

	ph, err := ls.runTimed(timed, o.trace)
	if err != nil {
		ls.close()
		return nil, err
	}
	rss, rssErr := ls.srv.peakRSSMB()
	if err := ls.close(); err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	rep.attempted = timed
	rep.failed = ph.missing
	want, refStats, err := ls.reference()
	if err != nil {
		return nil, err
	}
	rep.check("live_every_epoch_acked", checkAcked(ls.acked, ls.sent))
	rep.check("live_rows_exactly_once_in_order", checkRows(ls.rows, want))
	events, err := ls.deliveredEvents()
	if err != nil {
		return nil, err
	}
	acc := scoreEvents(events, ls.trace)
	if acc.report.Missing != 0 || acc.report.Count == 0 {
		rep.check("live_rows_scored", fmt.Errorf("%d scored, %d without ground truth", acc.report.Count, acc.report.Missing))
	}

	if !o.trace {
		rep.set("setup_s", median(setups), "s", fmt.Sprintf("n=%d median of set-ups (rfidserve boot to /healthz, session, query, stream, %d warm-up epochs)", len(setups), liveWarmEpochs))
		rep.set("readings_per_s", float64(ph.readings)/ph.elapsed.Seconds(), "1/s",
			fmt.Sprintf("readings=%d first-due-to-last-ack_s=%.3f offered_readings_per_s=%.1f", ph.readings, ph.elapsed.Seconds(), float64(ph.readings)/(float64(timed)/liveRate)))
		rep.setLatency("ack", ph.ack, "alias=ack (due to cumulative stream ack)")
		rep.setLatency("result", ph.result, "alias=result (due to first query row on the long-poll)")
		rep.set("loc_err_mean_ft", acc.report.MeanXY, "ft", fmt.Sprintf("objects=%d scored from delivered rows", acc.report.Count))
		rep.set("loc_err_p95_ft", acc.errs.quantile(0.95), "ft", fmt.Sprintf("objects=%d", len(acc.errs)))
		rep.set("peak_rss_mb", rss, "MB", "VmHWM of rfidserve")
		rep.info("gen.lag_p99_ms", ph.lag.quantile(0.99), "ms", fmt.Sprintf("n=%d", len(ph.lag)))
		rep.info("failed_share", float64(rep.failed)/float64(timed), "ratio", fmt.Sprintf("attempted=%d", timed))
		return rep, nil
	}

	// Traced phase: a fresh server with epoch-stage tracing on, same inputs.
	tl, err := liveSetup(o, 64, timed, "live-traced")
	if err != nil {
		return nil, err
	}
	tp, err := tl.runTimed(timed, true)
	if err != nil {
		tl.close()
		return nil, err
	}
	ckptBytes := newestCheckpointBytes(filepath.Join(tl.srv.dataDir, "sessions"))
	if err := tl.close(); err != nil {
		return nil, err
	}
	// The stopped server left the session's final checkpoint and WAL on
	// disk: time what a restart would do with them.
	if err := probeHydration(rep, []probeTarget{{filepath.Join(tl.srv.dataDir, "sessions", tl.req.ID), tl.req}}); err != nil {
		return nil, err
	}
	rep.check("live_traced_every_epoch_acked", checkAcked(tl.acked, tl.sent))
	rep.check("live_traced_rows_exactly_once_in_order", checkRows(tl.rows, want))
	layers := serverLayers(tp.before, tp.after)
	layers.report(rep, tp.before, tp.after, tp.result.mean())
	rep.info("core.share_of_result", layers.engineMS()/tp.result.mean(), "ratio", "engine stages / mean result latency")
	rep.set("core.parallel_speedup", 0, "x", "not measured on this workload (replay only)")
	rep.set("spatial.objects_per_reading", float64(refStats.ObjectsProcessed)/float64(refStats.Readings), "ratio", "byte-identical in-process twin of the session")
	rep.set("belief.compressions", float64(refStats.Compressions), "count", "byte-identical in-process twin of the session")
	rep.set("belief.decompressions", float64(refStats.Decompressions), "count", "byte-identical in-process twin of the session")
	rep.set("wire.bytes_per_reading", float64(wireBytes(tl.batches[liveWarmEpochs:]))/float64(tp.readings), "B", "rfid/wire stream frames")
	rep.set("wal.bytes_per_reading", delta(tp.before, tp.after, "rfidserve_wal_appended_bytes_total", nil)/float64(tp.readings), "B", "")
	rep.set("checkpoint.bytes_per_session", ckptBytes, "B", "newest checkpoint file")
	rep.set("query.rows", float64(tp.timedRows), "count", "rows delivered in the timed phase")
	rep.set("hydrate.per_touch", delta(tp.before, tp.after, "rfidserve_hydrations_total", nil)/float64(timed), "ratio", "hydrations per epoch sent")
	rep.set("trace.overhead_share", tp.result.mean()/ph.result.mean()-1, "ratio",
		fmt.Sprintf("traced %.4f ms / untraced %.4f ms mean result latency", tp.result.mean(), ph.result.mean()))
	rep.info("gen.lag_p99_ms", tp.lag.quantile(0.99), "ms", fmt.Sprintf("n=%d", len(tp.lag)))
	rep.info("stream.ack_mean_ms", tp.ack.mean(), "ms", "traced phase")
	return rep, nil
}

// newestCheckpointBytes is the mean size of each session's newest checkpoint
// file under root.
func newestCheckpointBytes(root string) float64 {
	dirs, err := os.ReadDir(root)
	if err != nil {
		return 0
	}
	total, n := 0.0, 0
	for _, d := range dirs {
		files, err := filepath.Glob(filepath.Join(root, d.Name(), "checkpoint-*"))
		if err != nil || len(files) == 0 {
			continue
		}
		newest := files[len(files)-1]
		if fi, err := os.Stat(newest); err == nil {
			total += float64(fi.Size())
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
