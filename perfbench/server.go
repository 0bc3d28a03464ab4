package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/wal"
	"repro/rfid"
	"repro/rfid/api"
)

// running counts started servers that have not exited; every run must end
// with it at zero.
var running atomic.Int64

// server is one rfidserve subprocess, started with its product flags and
// driven only over HTTP, exactly as a deployment runs it.
type server struct {
	cmd     *exec.Cmd
	base    string
	dataDir string
	log     *os.File
	exited  chan struct{}
	waitErr error
}

// startServer launches bin on a free loopback port with a fresh data
// directory and waits until /healthz reports the process serving.
func startServer(bin, dataDir, logPath string, args ...string) (*server, error) {
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	full := append([]string{"-addr", addr, "-data-dir", dataDir, "-log-level", "warn"}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The kernel kills the server if the benchmark dies first, so no run
	// leaves a process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start rfidserve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, dataDir: dataDir, log: logf, exited: make(chan struct{})}
	running.Add(1)
	go func() {
		s.waitErr = cmd.Wait()
		running.Add(-1)
		close(s.exited)
	}()
	if err := s.waitHealthy(30 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *server) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	hc := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("rfidserve exited during start-up: %v (log %s)", s.waitErr, s.log.Name())
		default:
		}
		resp, err := hc.Get(s.base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("rfidserve not healthy after %v (log %s)", limit, s.log.Name())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) { return peakRSSMB(s.cmd.Process.Pid) }

// peakRSSMB reads VmHWM of a process from /proc.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) < 2 {
				break
			}
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found for pid %d", pid)
}

// stop shuts the server down gracefully (SIGTERM: seal, final checkpoint)
// and waits for the process to exit, killing it if it hangs.
func (s *server) stop() error {
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("rfidserve did not stop within 20s; killed")
	}
	var ee *exec.ExitError
	if s.waitErr != nil && !errors.As(s.waitErr, &ee) {
		return s.waitErr
	}
	return nil
}

// scrape fetches /metrics (Prometheus text) and parses it.
func (s *server) scrape(ctx context.Context) (prom, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// prom is one scrape: series (name plus labels) to value.
type prom map[string]series

type series struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses the Prometheus text exposition format as rfidserve
// writes it (no timestamps, no escaped quotes in label values).
func parseProm(r io.Reader) (prom, error) {
	out := prom{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		key := line[:sp]
		s := series{name: key, labels: map[string]string{}, value: v}
		if i := strings.IndexByte(key, '{'); i >= 0 {
			s.name = key[:i]
			for _, kv := range strings.Split(strings.TrimSuffix(key[i+1:], "}"), ",") {
				k, val, ok := strings.Cut(kv, "=")
				if ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
		}
		out[key] = s
	}
	return out, sc.Err()
}

// sum adds every series of the metric name whose labels satisfy want (all
// given label pairs equal).
func (p prom) sum(name string, want map[string]string) float64 {
	total := 0.0
	for _, s := range p {
		if s.name != name {
			continue
		}
		match := true
		for k, v := range want {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			total += s.value
		}
	}
	return total
}

// delta is after minus before for one summed metric.
func delta(before, after prom, name string, want map[string]string) float64 {
	return after.sum(name, want) - before.sum(name, want)
}

// histQuantile estimates the q-quantile of a server histogram over the
// window between two scrapes, summed across its series, by linear
// interpolation inside the bucket — a bucket estimate, used only for the
// per-layer metrics the server exports solely as histograms.
func histQuantile(before, after prom, name string, q float64) float64 {
	cum := map[float64]float64{}
	for _, p := range []struct {
		scrape prom
		sign   float64
	}{{after, 1}, {before, -1}} {
		for _, s := range p.scrape {
			if s.name != name+"_bucket" {
				continue
			}
			le := s.labels["le"]
			bound := 0.0
			if le == "+Inf" {
				bound = 1e300
			} else if b, err := strconv.ParseFloat(le, 64); err == nil {
				bound = b
			} else {
				continue
			}
			cum[bound] += p.sign * s.value
		}
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] <= 0 {
		return 0
	}
	target := q * cum[bounds[len(bounds)-1]]
	prevBound, prevCum := 0.0, 0.0
	for _, b := range bounds {
		c := cum[b]
		if c >= target {
			if b >= 1e300 {
				return prevBound
			}
			if c == prevCum {
				return b
			}
			return prevBound + (b-prevBound)*(target-prevCum)/(c-prevCum)
		}
		prevBound, prevCum = b, c
	}
	return prevBound
}

// sessionRequest is the creation body of a benchmark session: a simulated
// warehouse world, default model parameters and the given engine knobs.
func sessionRequest(id string, world *api.World, objParticles, readerParticles int, seed int64) api.CreateSessionRequest {
	return api.CreateSessionRequest{
		ID:     id,
		Source: api.SourceWorld,
		World:  world,
		Engine: &api.EngineConfig{
			ObjectParticles: objParticles,
			ReaderParticles: readerParticles,
			Seed:            seed,
		},
	}
}

// referenceRunner builds the in-process twin of a session created from req:
// the same world (built in request order), parameters and engine knobs the
// serving layer derives from the manifest. Output is independent of the
// worker count, so the twin runs single-threaded. traceEpochs > 0 times the
// twin's engine stages.
func referenceRunner(req api.CreateSessionRequest, traceEpochs int) (*rfid.Runner, error) {
	world := rfid.NewWorld()
	for _, sh := range req.World.Shelves {
		world.AddShelf(rfid.Shelf{ID: sh.ID, Region: rfid.NewBBox(vec(sh.Min), vec(sh.Max))})
	}
	for _, t := range req.World.ShelfTags {
		world.AddShelfTag(rfid.TagID(t.Tag), vec(t.Loc))
	}
	cfg := rfid.DefaultConfig(rfid.DefaultParams(), world)
	cfg.ReportPolicy = rfid.ReportEveryEpoch
	cfg.NumObjectParticles = req.Engine.ObjectParticles
	cfg.NumReaderParticles = req.Engine.ReaderParticles
	cfg.Seed = req.Engine.Seed
	cfg.Workers = 1
	return rfid.NewRunner(cfg, rfid.RunnerConfig{Sharded: true, TraceEpochs: traceEpochs})
}

func vec(v api.Vec3) rfid.Vec3 { return rfid.Vec3{X: v.X, Y: v.Y, Z: v.Z} }

// ingestInto feeds one wire batch to an in-process runner exactly as the
// serving layer applies an ingest op (ingest, then advance).
func ingestInto(r *rfid.Runner, b batch) ([]rfid.Event, error) {
	rs := make([]rfid.Reading, len(b.Readings))
	for i, x := range b.Readings {
		rs[i] = rfid.Reading{Time: x.Time, Tag: rfid.TagID(x.Tag)}
	}
	ls := make([]rfid.LocationReport, len(b.Locations))
	for i, l := range b.Locations {
		ls[i] = rfid.LocationReport{Time: l.Time, Pos: rfid.Vec3{X: l.X, Y: l.Y, Z: l.Z}, Phi: l.Phi, HasPhi: l.HasPhi}
	}
	r.Ingest(rs, ls)
	return r.Advance()
}

func sortedTags[V any](m map[rfid.TagID]V) []rfid.TagID {
	out := make([]rfid.TagID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// probeTarget is one session's durable directory and creation request.
type probeTarget struct {
	dir string
	req api.CreateSessionRequest
}

// probeHydration times, from outside the program, the public calls a
// hydration or a restart makes on sessions' on-disk files once the server
// has stopped: loading the newest checkpoint (read + decode), restoring an
// engine from it, and replaying the WAL tail.
func probeHydration(rep *report, targets []probeTarget) error {
	var load, restore, replay samples
	records := 0
	for _, pt := range targets {
		t := time.Now()
		_, snap, ok, err := checkpoint.Latest(pt.dir)
		load.add(time.Since(t))
		if err != nil || !ok {
			return fmt.Errorf("probe %s: no checkpoint (%v)", pt.dir, err)
		}
		r, err := referenceRunner(pt.req, 0)
		if err != nil {
			return err
		}
		t = time.Now()
		if err := r.RestoreState(checkpoint.NewDecoder(snap.Payload)); err != nil {
			return fmt.Errorf("probe %s: restore: %w", pt.dir, err)
		}
		restore.add(time.Since(t))
		t = time.Now()
		st, err := wal.Replay(pt.dir, snap.WALSegment, func(wal.Record) error { return nil })
		replay.add(time.Since(t))
		if err != nil {
			return fmt.Errorf("probe %s: wal replay: %w", pt.dir, err)
		}
		records += st.Records
	}
	rep.info("checkpoint.load_ms", load.mean(), "ms", fmt.Sprintf("n=%d checkpoint.Latest (read + decode)", len(load)))
	rep.info("checkpoint.restore_ms", restore.mean(), "ms", fmt.Sprintf("n=%d Runner.RestoreState", len(restore)))
	rep.info("wal.replay_ms", replay.mean(), "ms", fmt.Sprintf("n=%d wal.Replay, %d records", len(replay), records))
	return nil
}
