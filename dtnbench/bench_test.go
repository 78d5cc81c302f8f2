package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dtncache/internal/trace"
)

func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{100, 90, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		got, ok := supportedPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("supportedPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if supports(999, 99) || !supports(1000, 99) {
		t.Error("p99 needs 1000 samples: ten beyond it")
	}
}

func TestPercentileCountsFailuresAsMisses(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 = %g, want 99", got)
	}
	xs[0] = outcome{ok: false}.latencyMs()
	xs[1] = outcome{ok: false}.latencyMs()
	if got := percentile(xs, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with two failures in 100 = %g, want +Inf", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"replay_s", "knowledge.build_share", "serve-reality", "p99", "9lives"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_lead", ".lead", "has space", "slash/x", "pct%", "ünï", string(make([]byte, 65))} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric names and units
// the benchmark prints in step with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, table []struct{ name, unit string }, got []struct{ Name, Unit string }) {
		if len(table) != len(got) {
			t.Fatalf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(table), len(got))
		}
		for i := range table {
			if table[i].name != got[i].Name || table[i].unit != got[i].Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", kind, i, table[i].name, table[i].unit, got[i].Name, got[i].Unit)
			}
			if !validName(table[i].name) {
				t.Errorf("%s: invalid name %q", kind, table[i].name)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, code %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestBacklogRule(t *testing.T) {
	cases := []struct {
		mid, end, sent, conns int
		want                  bool
	}{
		{0, 0, 1000, 2, false},
		{3, 4, 100, 2, false},   // within two per connection
		{3, 10, 1000, 2, false}, // within 1% of the step
		{3, 11, 1000, 2, true},
		{20, 15, 1000, 2, false}, // shrinking since the midpoint
		{5, 50, 300, 2, true},
	}
	for _, c := range cases {
		if got := backlogGrowing(c.mid, c.end, c.sent, c.conns); got != c.want {
			t.Errorf("backlogGrowing(%d, %d, %d, %d) = %v, want %v", c.mid, c.end, c.sent, c.conns, got, c.want)
		}
	}
}

func TestMaxQPSLadder(t *testing.T) {
	ok := func(rate float64) ladderStep {
		return ladderStep{Rate: rate, Sent: 1100, P99Ms: 5, Supported: true}
	}
	slow := ok(3000)
	slow.P99Ms = 25
	backlog := ok(3000)
	backlog.MidQueue, backlog.EndQueue = 5, 40
	failed := ok(3000)
	failed.Failed = 1
	thin := ok(3000)
	thin.Supported = false
	at := func(s ladderStep, rate float64) ladderStep { s.Rate = rate; return s }
	for name, c := range map[string]struct {
		steps []ladderStep
		want  float64
	}{
		"all pass":             {[]ladderStep{ok(1000), ok(2000), ok(3000)}, 3000},
		"latency limit":        {[]ladderStep{ok(1000), ok(2000), slow, slow}, 2000},
		"growing backlog":      {[]ladderStep{ok(1000), ok(2000), backlog, backlog}, 2000},
		"failed request":       {[]ladderStep{ok(1000), ok(2000), failed, failed}, 2000},
		"p99 unsupported":      {[]ladderStep{ok(1000), ok(2000), thin, thin}, 2000},
		"first step fails":     {[]ladderStep{at(slow, 1000), at(slow, 1000)}, 0},
		"repeat passes":        {[]ladderStep{ok(1000), at(slow, 2000), ok(2000), ok(3000)}, 3000},
		"misses apart go on":   {[]ladderStep{at(slow, 1000), ok(1000), at(slow, 2000), ok(2000), slow, slow}, 2000},
		"stops at second miss": {[]ladderStep{ok(1000), at(slow, 2000), at(slow, 2000), ok(3000)}, 1000},
		"pending repeat":       {[]ladderStep{ok(1000), ok(2000), slow}, 2000},
	} {
		if got := maxQPS(c.steps, 20, 2); got != c.want {
			t.Errorf("%s: maxQPS = %g, want %g", name, got, c.want)
		}
	}
}

func TestMaxQPSRejectsBadClimb(t *testing.T) {
	ok := ladderStep{Rate: 1000, Sent: 1100, P99Ms: 5, Supported: true}
	for name, steps := range map[string][]ladderStep{
		"repeat after a pass": {ok, ok},
		"descending":          {ok, {Rate: 500}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: maxQPS accepted the climb", name)
				}
			}()
			maxQPS(steps, 20, 2)
		}()
	}
}

func TestBacklogAt(t *testing.T) {
	ms := time.Millisecond
	outs := []outcome{
		{due: 0, end: 2 * ms},
		{due: 1 * ms, end: 6 * ms},
		{due: 4 * ms, end: 5 * ms},
		{due: 9 * ms, end: 10 * ms},
	}
	if got := backlogAt(outs, 3*ms); got != 1 {
		t.Errorf("backlog at 3ms = %d, want 1", got)
	}
	if got := backlogAt(outs, 4*ms); got != 2 {
		t.Errorf("backlog at 4ms = %d, want 2", got)
	}
}

// TestWrongReportRejected pins the replay output check: a report that
// differs from the stored one by one byte fails, and every replay
// workload has a stored report that decodes.
func TestWrongReportRejected(t *testing.T) {
	for name := range replaySpecs {
		want, err := os.ReadFile(filepath.Join("expected", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var rep struct{ QueriesIssued int }
		if err := json.Unmarshal(want, &rep); err != nil || rep.QueriesIssued == 0 {
			t.Errorf("%s: stored report does not decode or issued no queries: %v", name, err)
		}
		if !reportMatches(want, append([]byte(nil), want...)) {
			t.Errorf("%s: identical report rejected", name)
		}
		bad := append([]byte(nil), want...)
		bad[len(bad)/2] ^= 1
		if reportMatches(want, bad) {
			t.Errorf("%s: corrupted report accepted", name)
		}
	}
	if !reportMatches(nil, []byte("{}")) {
		t.Error("a seed without a stored report must not fail the check")
	}
	var c checks
	checkReplay(&c, options{workload: "replay-reality", seed: recordedSeed},
		workerResult{Report: "{}", ReportsAgree: true, QueriesIssued: 1}, []byte("{\"x\":1}"))
	if c.ok() || len(c.failed) != 1 {
		t.Errorf("wrong report: failed checks %v, want exactly one", c.failed)
	}
	c = checks{}
	checkReplay(&c, options{workload: "replay-infocom06", seed: 7}, workerResult{Report: "{}", ReportsAgree: true}, nil)
	if c.ok() {
		t.Error("a replay with zero queries passed")
	}
}

func TestSelfTimes(t *testing.T) {
	s := func(id, parent int64, name string, a, b int64) span {
		return span{ID: id, Parent: parent, Name: name, Start: a * 1e9, End: b * 1e9}
	}
	ss := []span{
		s(1, 0, "root", 0, 10),
		s(2, 1, "a", 1, 3),
		s(3, 1, "a", 2, 5),
		s(4, 1, "b", 7, 8),
		s(5, 4, "c", 7, 8),
	}
	got := selfTimes(ss)
	want := map[string]float64{"root": 5, "a": 5, "b": 0, "c": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestHistPercentile(t *testing.T) {
	body := []byte(`# TYPE dtn_http_query_latency_seconds histogram
dtn_http_query_latency_seconds_bucket{le="1e-05"} 0
dtn_http_query_latency_seconds_bucket{le="0.0001"} 50
dtn_http_query_latency_seconds_bucket{le="0.001"} 100
dtn_http_query_latency_seconds_bucket{le="+Inf"} 100
dtn_http_query_latency_seconds_count 100
`)
	if got := histPercentile(body, "dtn_http_query_latency_seconds", 50); math.Abs(got-1e-4) > 1e-12 {
		t.Errorf("p50 = %g, want 1e-4", got)
	}
	if got := histPercentile(body, "dtn_http_query_latency_seconds", 75); math.Abs(got-math.Sqrt(1e-4*1e-3)) > 1e-12 {
		t.Errorf("p75 = %g, want the log midpoint of the bucket", got)
	}
	if got := histPercentile(body, "dtn_http_absent_latency_seconds", 50); got != 0 {
		t.Errorf("absent histogram = %g, want 0", got)
	}
	if got := promValue(body, "dtn_http_query_latency_seconds_count"); got != 100 {
		t.Errorf("promValue = %g, want 100", got)
	}
}

func TestLoadPlanIsSeeded(t *testing.T) {
	p := loadPlan{
		rate: 200, seconds: 0.2, queries: 5, batches: 3, publishes: 2, nodes: 97, dataItems: 8, zipfS: 1,
		fromSec: 1000, advanceBy: 500, batchSize: 3,
		pool: []trace.Contact{{A: 1, B: 2, Start: 0, End: 300}, {A: 3, B: 4, Start: 10, End: 130}},
	}
	a, b, c := p.build(1), p.build(1), p.build(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same schedule")
	}
	var advances []float64
	counts := make(map[opKind]int)
	clock := p.fromSec
	for i, op := range a {
		if i > 0 && op.due < a[i-1].due {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
		switch op.kind {
		case opAdvance:
			var req struct {
				ToSec float64 `json:"to_sec"`
			}
			if err := json.Unmarshal(op.body, &req); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(counts, map[opKind]int{opQuery: 5, opContacts: 3, opPublish: 2}) {
				t.Errorf("cycle before the advance to %g: %v", req.ToSec, counts)
			}
			counts = make(map[opKind]int)
			advances = append(advances, req.ToSec)
			clock = req.ToSec
			continue
		case opContacts:
			var req struct {
				Contacts []struct {
					A, B     int
					StartSec float64 `json:"start_sec"`
					EndSec   float64 `json:"end_sec"`
				} `json:"contacts"`
			}
			if err := json.Unmarshal(op.body, &req); err != nil {
				t.Fatal(err)
			}
			if len(req.Contacts) != p.batchSize {
				t.Errorf("batch of %d contacts, want %d", len(req.Contacts), p.batchSize)
			}
			for _, ct := range req.Contacts {
				d := ct.EndSec - ct.StartSec
				if ct.StartSec <= clock || ct.StartSec > clock+p.advanceBy || !(ct.A == 1 && math.Abs(d-300) < 1e-6 || ct.A == 3 && math.Abs(d-120) < 1e-6) {
					t.Errorf("contact %+v is not a pool contact re-timed into (%g, %g]", ct, clock, clock+p.advanceBy)
				}
			}
		}
		counts[op.kind]++
	}
	if want := []float64{1500, 2000, 2500}; !reflect.DeepEqual(advances, want) {
		t.Errorf("advance targets %v, want %v", advances, want)
	}
	if len(a) != 40+3 {
		t.Errorf("%d ops, want 43", len(a))
	}
}

// TestMixFor pins the mixed phase derived from MIT Reality: a batch is
// the trace's contacts in 600 s, a cycle carries the trace's contacts
// over one refresh period (2.46 days) and p_G = 0.2 publishes per node
// per one-week T_L over it.
func TestMixFor(t *testing.T) {
	p, err := mixFor()
	if err != nil {
		t.Fatal(err)
	}
	if p.batchSize != 3 || p.batches != 351 || p.publishes != 7 || p.queries != 500 || p.zipfS != 1 || p.advanceBy != 246*86400/100 {
		t.Errorf("mix = batch %d, %d batches, %d publishes, %d queries, zipf %g, advance %g s per cycle",
			p.batchSize, p.batches, p.publishes, p.queries, p.zipfS, p.advanceBy)
	}
}

// TestOpenLoopClient drives the open-loop client against a stub server:
// every op is sent once, successes and failures are told apart by
// status, issued queries are counted, latency runs from the due time,
// and queued writes are drained before an advance.
func TestOpenLoopClient(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/query":
			fmt.Fprint(w, `{"issued": true}`)
		case "/v1/contacts":
			w.WriteHeader(http.StatusAccepted)
		case "/v1/advance":
			fmt.Fprint(w, `{}`)
		default:
			w.WriteHeader(http.StatusTooManyRequests)
		}
	}))
	defer srv.Close()
	c := newClient(strings.TrimPrefix(srv.URL, "http://"), 2, newTracer("test", 0))
	defer c.close()
	var drains atomic.Int32
	c.drain = func() { drains.Add(1) }
	ops := []plannedOp{
		{opQuery, []byte(`{}`), 0},
		{opContacts, []byte(`{}`), time.Millisecond},
		{opPublish, []byte(`{}`), 2 * time.Millisecond},
		{opQuery, []byte(`{}`), 20 * time.Millisecond},
		{opAdvance, []byte(`{}`), 21 * time.Millisecond},
	}
	outs := c.run(ops, 0)
	wantOK := []bool{true, true, false, true, true}
	for i, o := range outs {
		if o.ok != wantOK[i] {
			t.Errorf("op %d: ok = %v, want %v", i, o.ok, wantOK[i])
		}
		if o.end < o.due || o.start < o.due {
			t.Errorf("op %d: sent at %v, done at %v, before its due time %v", i, o.start, o.end, o.due)
		}
	}
	if !outs[0].issued || !outs[3].issued || outs[1].issued {
		t.Errorf("issued flags: %+v", outs)
	}
	if !math.IsInf(outs[2].latencyMs(), 1) {
		t.Errorf("a shed request's latency = %g, want +Inf", outs[2].latencyMs())
	}
	if !outs[3].slept {
		t.Error("an op due 20ms in was not waited for")
	}
	if got := len(c.tr.snapshot()); got != len(ops) {
		t.Errorf("%d spans, want one per request", got)
	}
	if got := drains.Load(); got != 1 {
		t.Errorf("drain called %d times, want once, before the advance", got)
	}
}
