package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"repro/rfid"
	"repro/rfid/api"
	"repro/rfid/client"
)

// liveDigest and coldDigestOf hash every input the workloads send for a seed.
func liveDigest(t *testing.T, seed int64) string {
	t.Helper()
	tr, err := liveTrace(seed, 200)
	if err != nil {
		t.Fatal(err)
	}
	return inputDigest([]*api.World{apiWorld(tr.World)}, [][]batch{epochBatches(tr)})
}

func coldDigestOf(t *testing.T, seed int64, n int) string {
	t.Helper()
	var sessions []*coldSession
	for i := 0; i < n; i++ {
		cs, err := coldInput(seed, i)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, cs)
	}
	return coldDigest(sessions)
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	replay := func(seed int64) string {
		tr, err := replayTrace(seed)
		if err != nil {
			t.Fatal(err)
		}
		return replayDigest(tr)
	}
	for _, c := range []struct {
		name string
		gen  func(int64) string
	}{
		{"replay", replay},
		{"live", func(s int64) string { return liveDigest(t, s) }},
		{"cold", func(s int64) string { return coldDigestOf(t, s, 16) }},
	} {
		a, b, other := c.gen(7), c.gen(7), c.gen(8)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs on two calls", c.name)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", c.name)
		}
	}
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range bf.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	maxBound := 0.0
	for _, m := range bf.EndToEnd {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bad unit, better or bound: %+v", m.Name, m)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range bf.PerLayer {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %s: bad unit or better: %+v", m.Name, m)
		}
	}
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must be listed with the largest bound")
	}
}

func TestCheckMetricSetFollowsBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		want := bf.wantMetrics(traced)
		full := func() *report {
			rep := newReport()
			for name, unit := range want {
				rep.set(name, 1, unit, "")
			}
			return rep
		}
		if err := checkMetricSet(full(), want); err != nil {
			t.Errorf("traced=%t: complete set rejected: %v", traced, err)
		}
		for name, unit := range want {
			rep := full()
			delete(rep.metrics, name)
			if checkMetricSet(rep, want) == nil {
				t.Errorf("traced=%t: missing %s not caught", traced, name)
			}
			rep = full()
			rep.metrics[name] = metric{Value: 1, Unit: unit + "x"}
			if checkMetricSet(rep, want) == nil {
				t.Errorf("traced=%t: wrong unit of %s not caught", traced, name)
			}
			break
		}
		rep := full()
		rep.set("extra_metric", 1, "s", "")
		if checkMetricSet(rep, want) == nil {
			t.Errorf("traced=%t: extra metric not caught", traced)
		}
	}
}

// liveFixture is a small live session's inputs and reference rows.
func liveFixture(t *testing.T) (*liveSession, [][]byte) {
	t.Helper()
	tr, err := liveTrace(3, 120)
	if err != nil {
		t.Fatal(err)
	}
	ls := &liveSession{
		req:     sessionRequest("live", apiWorld(tr.World), 50, 50, 3),
		batches: epochBatches(tr)[:120],
	}
	want, _, err := ls.reference()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 10 {
		t.Fatalf("fixture produced only %d rows", len(want))
	}
	return ls, want
}

func delivered(rows [][]byte) []api.QueryResult {
	out := make([]api.QueryResult, len(rows))
	for i, r := range rows {
		out[i] = api.QueryResult{Seq: i, Row: append(json.RawMessage(nil), r...)}
	}
	return out
}

func TestCheckRowsCatchesCorruption(t *testing.T) {
	_, want := liveFixture(t)
	if err := checkRows(delivered(want), want); err != nil {
		t.Fatalf("exact rows rejected: %v", err)
	}
	dropped := delivered(want)
	dropped = append(dropped[:5], dropped[6:]...)
	dup := delivered(want)
	dup = append(dup[:6], dup[5:]...)
	swapped := delivered(want)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	changed := delivered(want)
	changed[7].Row = json.RawMessage(strings.Replace(string(changed[7].Row), `"loc":{"x":`, `"loc":{"x":1`, 1))
	short := delivered(want)[:len(want)-1]
	for name, rows := range map[string][]api.QueryResult{
		"dropped row": dropped, "duplicated row": dup, "out of order": swapped,
		"changed row": changed, "missing tail": short,
	} {
		if checkRows(rows, want) == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCheckAckedAndScored(t *testing.T) {
	if checkAcked(10, 10) != nil || checkAcked(9, 10) == nil {
		t.Error("checkAcked does not tell a missing ack")
	}
	ls, _ := liveFixture(t)
	r, err := referenceRunner(ls.req, 0)
	if err != nil {
		t.Fatal(err)
	}
	var events []rfid.Event
	for _, b := range ls.batches {
		evs, err := ingestInto(r, b)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, evs...)
	}
	tr, err := liveTrace(3, 120)
	if err != nil {
		t.Fatal(err)
	}
	acc := scoreEvents(events, tr)
	if err := checkScored(acc, acc.report.Count); err != nil {
		t.Fatalf("complete score rejected: %v", err)
	}
	if checkScored(acc, acc.report.Count+1) == nil {
		t.Error("a missing object was accepted")
	}
	if math.Abs(acc.errs.mean()-acc.report.MeanXY) > 1e-9 {
		t.Errorf("per-object errors (mean %v) disagree with rfid.ScoreEvents (%v)", acc.errs.mean(), acc.report.MeanXY)
	}
}

func TestCheckSnapshotCatchesDivergence(t *testing.T) {
	cs, err := coldInput(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) sessionView {
		r, err := referenceRunner(cs.req, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range cs.batches[:n] {
			if _, err := ingestInto(r, b); err != nil {
				t.Fatal(err)
			}
		}
		return referenceView(r)
	}
	a, b := run(90), run(90)
	if err := checkSnapshot(a, b); err != nil {
		t.Fatalf("identical runs rejected: %v", err)
	}
	if checkSnapshot(a, run(89)) == nil {
		t.Error("a session one batch behind was accepted")
	}
	c := run(90)
	c.Tags[0].VarX = math.Nextafter(c.Tags[0].VarX, 1)
	if checkSnapshot(a, c) == nil {
		t.Error("a one-ulp variance difference was accepted")
	}
}

// TestColdLanesCountNon2xxTouches drives the real lane loop against a stub
// that refuses some ingests: the refusals must be counted and fail the check.
func TestColdLanesCountNon2xxTouches(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%100 == 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":{"code":"unavailable","message":"stub refusal"}}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"queued":true}`))
	}))
	defer ts.Close()
	cr := &coldRun{srv: &server{base: ts.URL}, cl: client.New(ts.URL)}
	for i := 0; i < coldSessions; i++ {
		cs, err := coldInput(9, i)
		if err != nil {
			t.Fatal(err)
		}
		cr.sessions = append(cr.sessions, cs)
	}
	ph, err := cr.runTimed(0.01, false)
	if err != nil {
		t.Fatal(err)
	}
	if ph.attempted < minSamples || ph.failed == 0 {
		t.Fatalf("attempted %d, failed %d: refusals not counted", ph.attempted, ph.failed)
	}
	if checkNoFailures(ph.attempted, ph.failed) == nil {
		t.Error("non-2xx touches accepted")
	}
	if checkNoFailures(ph.attempted, 0) != nil {
		t.Error("all-2xx touches rejected")
	}
}

func TestSamplesQuantiles(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s = append(s, float64(i))
	}
	if got := s.quantile(0.5); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := s.quantile(0.99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if label, _, ok := s.tailQuantile(10); !ok || label != "p99" || s.beyond(0.99) != 10 {
		t.Errorf("1000 samples: tail %q beyond %d, want p99 with 10 beyond", label, s.beyond(0.99))
	}
	if label, _, _ := s[:500].tailQuantile(10); label != "p95" {
		t.Errorf("500 samples: tail %q, want p95", label)
	}
}

func TestPromParsingAndHistogramQuantile(t *testing.T) {
	text := func(counts [3]int, sum float64) string {
		return strings.Join([]string{
			`# TYPE h histogram`,
			`h_bucket{session="a",le="0.001"} ` + itoa(counts[0]),
			`h_bucket{session="a",le="0.01"} ` + itoa(counts[1]),
			`h_bucket{session="a",le="+Inf"} ` + itoa(counts[2]),
			`h_sum{session="a"} ` + ftoa(sum),
			`h_count{session="a"} ` + itoa(counts[2]),
			`c_total{stage="step",session="a"} 2.5`,
		}, "\n")
	}
	before, err := parseProm(strings.NewReader(text([3]int{10, 10, 10}, 0.005)))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(text([3]int{10, 110, 110}, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	if got := after.sum("c_total", map[string]string{"stage": "step"}); got != 2.5 {
		t.Errorf("labelled sum = %v", got)
	}
	// The window's 100 observations all fall in (0.001, 0.01]: the median
	// interpolates to the bucket's middle.
	if got := histQuantile(before, after, "h", 0.5); math.Abs(got-0.0055) > 1e-12 {
		t.Errorf("windowed median = %v, want 0.0055", got)
	}
}

func itoa(v int) string     { b, _ := json.Marshal(v); return string(b) }
func ftoa(v float64) string { b, _ := json.Marshal(v); return string(b) }
