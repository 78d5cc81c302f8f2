package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dtncache/internal/cli"
	"dtncache/internal/engine"
	"dtncache/internal/mathx"
	"dtncache/internal/obs"
	"dtncache/internal/scheme"
	"dtncache/internal/trace"
	"dtncache/internal/wal"
)

// Service workload shape. The server replays the Table I MIT Reality
// preset at traceSeed; the run seed drives the requests. The queries
// copy the dtnload run of EXPERIMENTS.md's kill-and-restore walkthrough:
// eight items published at set-up with the server's default lifetime,
// Zipf queries at the engine's exponent (dtnload's -zipf 1), 400
// requests/s from one connection, and an advance every 500 queries.
// mixFor adds the live writes at the rates the served trace and the
// paper's workload give.
const (
	serveRounds     = 8    // mixed-load servers per run (one more climbs the ladder when traced)
	setupItems      = 8    // dtnload -publish 8
	mixedRate       = 400  // offered requests/s over one connection: dtnload -qps 400 -workers 1
	queriesPerCycle = 500  // queries between advances: dtnload -advance-every 500
	feedStepSec     = 600  // virtual seconds one contact batch reports: dtnload -advance-by 600
	latencyLimitMs  = 20.0 // query p99 limit of the max_qps ladder
	// minMixedSeconds is the shortest mixed load of a run, split evenly
	// over the rounds: 2.5 s a round holds one cycle (2.1 s at
	// mixedRate), its advance and the requests queued behind it, and the
	// run issues more than 4,000 queries and 3,000 writes, so both p99s
	// have ten samples beyond them. Many short rounds average the
	// round-to-round spread of the server's CPU time and peak RSS.
	minMixedSeconds = 20
)

// paperGenProb is p_G, the per-period data generation probability of
// the paper's workload (Sec. VI-A); engine.Config leaves GenProb at 0 to
// mean this default.
const paperGenProb = 0.2

// ladderRates is the fixed ascending max_qps ladder, queries per second.
// It runs past the 10-15k q/s that unpaced dtnload runs have recorded,
// so a climb that reaches the top is not held down by the ladder.
var ladderRates = []float64{500, 1000, 1500, 2000, 2500, 3000, 4000, 5000, 6000, 8000, 10000, 12000, 16000, 20000}

// ladderStepSeconds is each ladder step's length: long enough for 1,100
// queries, so its p99 has ten samples beyond it, and at least 0.5 s.
func ladderStepSeconds(rate float64) float64 { return max(0.5, 1100/rate) }

// mixFor derives one cycle of the mixed phase from the served trace and
// the engine's paper defaults. Each advance spans one knowledge-refresh
// period, so every advance crosses a refresh point. Live contacts arrive
// at the trace's own contact rate over the span advanced, in batches of
// what the trace holds in feedStepSec (about three contacts), drawn
// from the trace's contacts. Publishes arrive at the paper's generation
// rate, p_G per node per T_L, over the same span.
func mixFor() (loadPlan, error) {
	t, err := trace.GeneratePreset(trace.MITReality, traceSeed)
	if err != nil {
		return loadPlan{}, err
	}
	cfg, err := servedConfig(t, nil)
	if err != nil {
		return loadPlan{}, err
	}
	perSec := float64(len(t.Contacts)) / t.Duration
	span := scheme.DefaultConfig(t.Duration).RefreshSec
	batch := max(1, int(math.Round(perSec*feedStepSec)))
	return loadPlan{
		rate:      mixedRate,
		queries:   queriesPerCycle,
		batches:   int(math.Round(perSec * span / float64(batch))),
		publishes: int(math.Round(float64(t.Nodes) * paperGenProb * span / cfg.AvgLifetime)),
		nodes:     t.Nodes,
		dataItems: setupItems,
		zipfS:     cfg.ZipfExponent,
		advanceBy: span,
		pool:      t.Contacts,
		batchSize: batch,
	}, nil
}

// server is one running dtnserved process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	debug   string
	walPath string
	logPath string
	c       *client
	waitErr chan error
	nodes   int     // trace nodes, from /v1/status
	midSec  float64 // mid-trace virtual time the set-up advances to
}

// startServer launches dtnserved with a WAL and brings it to the
// benchmark's ready state: listening, advanced to mid-trace, set-up
// items published. It returns the server and the set-up time.
func startServer(o options, tr *tracer, parent int64, i int, seed int64) (*server, float64, error) {
	dir := filepath.Join(o.workDir, fmt.Sprintf("server%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	s := &server{
		walPath: filepath.Join(dir, "ops.wal"),
		logPath: filepath.Join(dir, "stderr.log"),
		waitErr: make(chan error, 1),
	}
	addrFile := filepath.Join(dir, "addr")
	logf, err := os.Create(s.logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	sp := tr.begin("setup", parent)
	s.cmd = exec.Command(o.dtnserved,
		"-trace", string(trace.MITReality), "-seed", strconv.Itoa(traceSeed), "-live",
		"-listen", "127.0.0.1:0", "-addr-file", addrFile, "-debug-addr", "127.0.0.1:0",
		"-wal", s.walPath, "-wal-sync", "checkpoint")
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs()))
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	s.cmd.Stderr = logf
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { s.waitErr <- s.cmd.Wait() }()
	if err := s.awaitReady(addrFile); err != nil {
		s.kill()
		return nil, 0, err
	}
	// One connection: the server applies the set-up and mixed requests
	// in schedule order, so the served log, and the engine work its
	// replay repeats, follows from the seed.
	s.c = newClient(s.addr, 1, tr)
	s.c.drain = s.drainContacts
	var st struct {
		Nodes       int     `json:"nodes"`
		DurationSec float64 `json:"duration_sec"`
	}
	if err := s.c.getJSON("/v1/status", &st); err != nil {
		s.kill()
		return nil, 0, err
	}
	s.nodes, s.midSec = st.Nodes, st.DurationSec/2
	if err := s.c.post("/v1/advance", mustJSON(map[string]float64{"to_sec": s.midSec}), 200); err != nil {
		s.kill()
		return nil, 0, err
	}
	rng := mathx.NewRand(seed).Derive("publish")
	for k := 0; k < setupItems; k++ {
		body := mustJSON(map[string]int{"source": rng.Intn(s.nodes)})
		if err := s.c.post("/v1/publish", body, 200); err != nil {
			s.kill()
			return nil, 0, err
		}
	}
	return s, sp.end(), nil
}

// awaitReady waits for the address file, a green /healthz and the
// debug listener's address in the log.
func (s *server) awaitReady(addrFile string) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.waitErr:
			s.waitErr <- err
			return fmt.Errorf("dtnserved exited during start-up: %v (log %s)", err, s.logPath)
		default:
		}
		if s.addr == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				s.addr = strings.TrimSpace(string(b))
			}
		}
		if s.addr != "" && s.debug == "" {
			s.debug = debugAddr(s.logPath)
		}
		if s.addr != "" && s.debug != "" {
			c := newClient(s.addr, 1, nil)
			code, _, err := c.get("/healthz")
			c.close()
			if err == nil && code == 200 {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("dtnserved not ready within 60s")
}

// drainContacts waits until the server's contact-ingest queue is empty,
// so every contact batch it accepted has been applied and journaled.
func (s *server) drainContacts() {
	dc := newClient(s.debug, 1, nil)
	defer dc.close()
	for i := 0; i < 10000; i++ {
		_, b, err := dc.get("/debug/metrics")
		if err == nil && promValue(b, "dtn_contact_queue_depth") == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// debugAddr finds the -debug-addr listener in the server log.
func debugAddr(logPath string) string {
	b, err := os.ReadFile(logPath)
	if err != nil {
		return ""
	}
	const marker = "pprof and runtime metrics on "
	for _, line := range strings.Split(string(b), "\n") {
		if i := strings.Index(line, marker); i >= 0 {
			return strings.TrimSuffix(line[i+len(marker):], "/debug/")
		}
	}
	return ""
}

// stop sends SIGTERM and waits for the clean shutdown, returning the
// server's peak RSS in MB.
func (s *server) stop() (float64, error) {
	s.c.close()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case err := <-s.waitErr:
		if err != nil {
			return 0, fmt.Errorf("dtnserved shutdown: %v (log %s)", err, s.logPath)
		}
	case <-time.After(60 * time.Second):
		s.kill()
		return 0, errors.New("dtnserved did not shut down within 60s")
	}
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for dtnserved")
	}
	return float64(ru.Maxrss) / 1024, nil
}

// kill ends the server on an error path and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.waitErr
}

func (c *client) getJSON(path string, into any) error {
	code, b, err := c.get(path)
	if err != nil {
		return err
	}
	if code != 200 {
		return fmt.Errorf("GET %s: status %d", path, code)
	}
	return json.Unmarshal(b, into)
}

// runServe is the serve-reality workload: serveRounds fresh servers,
// each set up, driven through a mixed open-loop phase, checked and shut
// down, then rebuilt from its WAL; a traced run adds one more server,
// checked the same way, that climbs the max_qps ladder. Every round
// draws its own requests from the seed. replay_s is the servers' CPU
// seconds over the mixed phases, the host time it takes to serve a
// fixed request stream; setup_s and peak_rss_mb are medians over the
// mixed rounds.
func runServe(o options) (result, error) {
	if o.dtnserved == "" {
		return result{}, errors.New("serve workloads need -dtnserved")
	}
	mix, err := mixFor()
	if err != nil {
		return result{}, err
	}
	mix.seconds = max(o.seconds, minMixedSeconds) / serveRounds
	var tr *tracer
	if o.traced {
		tr = newTracer(o.runID, 0)
	}
	root := tr.begin("run "+o.workload, 0)
	var c checks
	var rounds []round
	for i := 0; i < serveRounds; i++ {
		r, err := serveRound(o, tr, root.id, i, &c, mix, false)
		if err != nil {
			return result{}, err
		}
		rounds = append(rounds, r)
	}
	var ladder round
	if o.traced {
		if ladder, err = serveRound(o, tr, root.id, serveRounds, &c, mix, true); err != nil {
			return result{}, err
		}
	}
	// The per-layer figures come from the last mixed round, whose log has
	// advances and writes.
	last := rounds[serveRounds-1]

	var setup, rss []float64
	var cpu float64
	var mixed []outcome
	apply := make(map[wal.Kind][]float64)
	for _, r := range rounds {
		setup = append(setup, r.setupS)
		cpu += r.cpuS
		rss = append(rss, r.rssMB)
		mixed = append(mixed, r.outs...)
		for k, us := range r.apply.US {
			apply[k] = append(apply[k], us...)
		}
	}
	all := append(append([]outcome(nil), mixed...), ladder.outs...)
	attempted, failed := 0, 0
	for _, out := range all {
		attempted++
		if !out.ok {
			failed++
		}
	}
	queries := latencies(mixed, func(k opKind) bool { return k == opQuery })
	writes := latencies(mixed, func(k opKind) bool { return k == opPublish || k == opContacts })
	c.require(supports(len(queries), 99), "%d queries do not support p99", len(queries))
	c.require(supports(len(writes), 99), "%d writes do not support p99", len(writes))
	qp, _ := supportedPercentile(len(queries))
	wp, _ := supportedPercentile(len(writes))
	fmt.Fprintf(os.Stderr, "dtnbench: serve: %d queries p50 %.3f ms p99 %.3f ms (p%g %.3f ms), %d writes p99 %.3f ms (p%g %.3f ms), server CPU %.2fs, failed %d/%d\n",
		len(queries), percentile(queries, 50), percentile(queries, 99), qp, percentile(queries, qp),
		len(writes), percentile(writes, 99), wp, percentile(writes, wp), cpu, failed, attempted)

	res := result{
		Correct:   c.ok() && failed == 0,
		Attempted: attempted + c.n,
		Failed:    failed + len(c.failed),
	}
	if !o.traced {
		res.Metrics = e2eMetrics(map[string]float64{
			"replay_s":    cpu,
			"setup_s":     median(setup),
			"peak_rss_mb": median(rss),
		})
		return res, nil
	}

	maxQ := maxQPS(ladder.steps, latencyLimitMs, procs())
	fmt.Fprintf(os.Stderr, "dtnbench: serve: max_qps %g\n", maxQ)
	v := map[string]float64{
		"serve.query_p50_ms":  percentile(queries, 50),
		"serve.query_p99_ms":  percentile(queries, 99),
		"serve.query_samples": float64(len(queries)),
		"serve.write_p99_ms":  percentile(writes, 99),
		"serve.write_samples": float64(len(writes)),
		"serve.max_qps":       maxQ,
		"serve.failed_ratio":  float64(res.Failed) / float64(res.Attempted),
		"trace.contacts":      float64(last.apply.Contacts),
		"engine.new_s":        last.apply.NewS,
		"trace.load_s":        last.apply.LoadS,
		"engine.query_us":     median(apply[wal.KindQuery]),
		"engine.publish_us":   median(apply[wal.KindPublish]),
		"engine.ingest_us":    median(apply[wal.KindContacts]),
		"engine.advance_ms":   median(apply[wal.KindAdvance]) / 1000,
		"wal.bytes_per_op":    float64(last.walBytes) / float64(len(last.recs)),
		"knowledge.build_s":   last.apply.BuildS,
		// Builds run inside advances, under the engine mutex.
		"knowledge.build_share": last.apply.BuildS / last.apply.ReplayS,
	}
	for k, x := range last.apply.Counters {
		v[k] = x
	}
	if late := lateness(all); len(late) > 0 {
		v["loadgen.late_p99_ms"] = percentile(late, 99)
	}
	for k, name := range map[string]string{
		"http.query_p50_ms":    "query:50",
		"http.query_p99_ms":    "query:99",
		"http.publish_p99_ms":  "publish:99",
		"http.advance_p99_ms":  "advance:99",
		"http.contacts_p99_ms": "contacts:99",
	} {
		ep, p, _ := strings.Cut(name, ":")
		q, _ := strconv.ParseFloat(p, 64)
		v[k] = histPercentile(last.debug, "dtn_http_"+ep+"_latency_seconds", q) * 1000
	}
	v["http.shed"] = promValue(last.debug, "dtn_http_shed_total")
	v["wal.checkpoints"] = promValue(last.debug, "dtn_wal_checkpoints_total")
	v["wal.errors"] = promValue(last.debug, "dtn_wal_errors_total")
	appendUs, err := timeAppends(tr, root.id, o.workDir, last.recs)
	if err != nil {
		return result{}, err
	}
	v["wal.append_us"] = appendUs
	v["http.overhead_us"] = overheadUs(v["http.query_p50_ms"]*1000, v["engine.query_us"], appendUs)
	traced, err := spawnWALReplay(o, last.walPath, tr, 1_000_000)
	if err != nil {
		return result{}, err
	}
	v["obs.overhead_ratio"] = traced.ReplayS / last.apply.ReplayS
	root.end()
	if err := writeSpans(filepath.Join(o.root, ".bench_build", "spans-"+o.runID+".json"), currentHost(), tr.snapshot()); err != nil {
		fmt.Fprintln(os.Stderr, "dtnbench: write spans:", err)
	}
	res.Metrics = layerMetrics(v)
	return res, nil
}

// overheadUs is the server-side query median left after the engine and
// WAL medians. The server's histogram has decade buckets, so the figure
// is only good to an order of magnitude; a negative remainder means the
// buckets cannot resolve it, and reads 0 with a note on stderr.
func overheadUs(serverP50, engineUs, appendUs float64) float64 {
	d := serverP50 - engineUs - appendUs
	if d < 0 {
		fmt.Fprintf(os.Stderr, "dtnbench: http.overhead_us: server p50 %.1f us < engine %.1f us + WAL %.1f us; below the histogram's resolution, reported as 0\n",
			serverP50, engineUs, appendUs)
		return 0
	}
	return d
}

// round is one served engine's share of a serve run.
type round struct {
	setupS, rssMB float64
	cpuS          float64 // server CPU seconds over the load
	outs          []outcome
	steps         []ladderStep // the ladder round only
	debug         []byte       // /debug/metrics after the load
	recs          []wal.Record
	walBytes      int64
	walPath       string
	apply         applyTimes // the log's wal.Replay
}

// serveRound runs round i: a fresh server, the mixed phase of mix (or,
// with ladder set, the max_qps ladder), the books check, shutdown, and
// the WAL replay whose report must match the served one. The server's
// CPU time is read around the load and the drain of the contacts it
// queued.
func serveRound(o options, tr *tracer, parent int64, i int, c *checks, mix loadPlan, ladder bool) (round, error) {
	seed := o.seed*(serveRounds+1) + int64(i)
	sp := tr.begin(fmt.Sprintf("round %d", i), parent)
	defer sp.end()
	srv, setupS, err := startServer(o, tr, sp.id, i, seed)
	if err != nil {
		return round{}, err
	}
	r := round{setupS: setupS}
	cpu0, err := cpuSeconds(srv.cmd.Process.Pid)
	if err != nil {
		srv.kill()
		return round{}, err
	}
	ld := tr.begin("load", sp.id)
	if ladder {
		lc := newClient(srv.addr, procs(), tr)
		r.steps, r.outs = runLadder(lc, seed, srv.nodes, mix.zipfS, ld.id)
		lc.close()
	} else {
		mix.fromSec = srv.midSec
		r.outs = srv.c.run(mix.build(seed), ld.id)
	}
	srv.drainContacts()
	ld.end()
	cpu1, err := cpuSeconds(srv.cmd.Process.Pid)
	if err != nil {
		srv.kill()
		return round{}, err
	}
	r.cpuS = cpu1 - cpu0
	issued, contacts := 0, 0
	for _, out := range r.outs {
		if out.ok && out.issued {
			issued++
		}
		if out.ok && out.kind == opContacts {
			contacts += mix.batchSize
		}
	}
	served, debug := checkBooks(c, srv, issued, contacts)
	r.debug = debug
	r.rssMB, err = srv.stop()
	c.require(err == nil, "round %d: dtnserved: %v", i, err)

	if r.recs, r.walBytes, err = readWAL(srv.walPath); err != nil {
		return round{}, err
	}
	r.walPath = srv.walPath
	if r.apply, err = spawnWALReplay(o, r.walPath, nil, 0); err != nil {
		return round{}, err
	}
	c.require(bytes.Equal(served, []byte(r.apply.Report)), "round %d: WAL replay /report differs from the served /report", i)
	fmt.Fprintf(os.Stderr, "dtnbench: round %d: setup %.4fs, %d requests, server CPU %.2fs, %d log records, wal.Replay %.3fs, peak %.1f MB\n",
		i, setupS, len(r.outs), r.cpuS, len(r.recs), r.apply.ReplayS, r.rssMB)
	return r, nil
}

// cpuSeconds returns the user plus system CPU time of process pid, all
// threads, from /proc/<pid>/stat (utime and stime, in USER_HZ ticks of
// 1/100 s on Linux).
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks float64
	for _, s := range f[11:13] { // fields 14 (utime) and 15 (stime)
		n, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return ticks / 100, nil
}

// spawnWALReplay replays a served log in a fresh walreplay worker;
// with tr set the worker records spans, which join the run's.
func spawnWALReplay(o options, path string, tr *tracer, firstID int64) (applyTimes, error) {
	var at applyTimes
	_, err := spawn([]string{"walreplay", "-wal", path, "-traced=" + strconv.FormatBool(tr != nil),
		"-run", o.runID, "-first-id", strconv.FormatInt(firstID, 10)}, &at)
	tr.add(at.Spans)
	return at, err
}

// runLadder offers queries at each ladder rate in turn. A step that
// misses the latency limit or builds a backlog is offered once more;
// the climb stops when the repeat misses too.
func runLadder(c *client, seed int64, nodes int, zipfS float64, parent int64) ([]ladderStep, []outcome) {
	rng := mathx.NewRand(seed).Derive("ladder")
	zipf, err := mathx.NewZipf(setupItems, zipfS)
	if err != nil {
		panic(err)
	}
	var steps []ladderStep
	var all []outcome
	for i, misses := 0, 0; i < len(ladderRates) && misses < 2; {
		rate := ladderRates[i]
		secs := ladderStepSeconds(rate)
		sp := c.tr.begin(fmt.Sprintf("ladder %g/s", rate), parent)
		outs := c.run(queryOnly(rng, zipf, nodes, rate, secs), sp.id)
		sp.end()
		all = append(all, outs...)
		lat := latencies(outs, func(opKind) bool { return true })
		st := ladderStep{Rate: rate, Sent: len(outs), Supported: supports(len(lat), 99)}
		for _, o := range outs {
			if !o.ok {
				st.Failed++
			}
		}
		span := time.Duration(secs * float64(time.Second))
		st.MidQueue = backlogAt(outs, span/2)
		st.EndQueue = backlogAt(outs, span)
		st.P99Ms = percentile(lat, 99)
		steps = append(steps, st)
		fmt.Fprintf(os.Stderr, "dtnbench: ladder %6g/s: p99 %8.3f ms, backlog %d -> %d, failed %d\n",
			rate, st.P99Ms, st.MidQueue, st.EndQueue, st.Failed)
		if st.passes(latencyLimitMs, c.conns) {
			i, misses = i+1, 0
		} else {
			misses++
		}
	}
	return steps, all
}

// checkBooks waits for the contact queue to drain, then checks the
// server's books against the generator as dtnload -verify does: the
// issued-query counter and /report agree with the generator's count,
// every sent contact was queued and none rejected, and /healthz is
// green. It returns the /report body and the /debug/metrics text.
func checkBooks(c *checks, s *server, issued, contacts int) (report, debug []byte) {
	s.drainContacts()
	dc := newClient(s.debug, 1, nil)
	defer dc.close()
	_, metricsText, err := s.c.get("/metrics")
	c.require(err == nil, "GET /metrics: %v", err)
	code, report, err := s.c.get("/report")
	c.require(err == nil && code == 200, "GET /report: %v status %d", err, code)
	var rep struct{ QueriesIssued int }
	c.require(json.Unmarshal(report, &rep) == nil, "decode /report")
	code, _, err = s.c.get("/healthz")
	c.require(err == nil && code == 200, "/healthz not green: %v status %d", err, code)
	_, debug, err = dc.get("/debug/metrics")
	c.require(err == nil, "GET /debug/metrics: %v", err)

	got := promValue(metricsText, "dtn_query_issued_total")
	c.require(int(got) == issued, "dtn_query_issued_total: server=%g generator=%d", got, issued)
	c.require(rep.QueriesIssued == issued, "/report QueriesIssued: server=%d generator=%d", rep.QueriesIssued, issued)
	queued := promValue(debug, "dtn_contact_queued_total")
	c.require(int(queued) == contacts, "dtn_contact_queued_total: server=%g generator=%d", queued, contacts)
	rejected := promValue(debug, "dtn_contact_rejected_total")
	c.require(rejected == 0, "dtn_contact_rejected_total: %g", rejected)
	return report, debug
}

// promValue reads one sample of a Prometheus text body (0 if absent).
func promValue(body []byte, name string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}

// histPercentile estimates the q-th percentile of a Prometheus
// histogram from its cumulative buckets, interpolating log-linearly
// inside the bucket that holds it (the first bucket spans a decade
// below its bound). It returns 0 for an empty histogram.
func histPercentile(body []byte, name string, q float64) float64 {
	var bounds, cum []float64
	sc := bufio.NewScanner(bytes.NewReader(body))
	prefix := name + `_bucket{le="`
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		le, count, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		b, err := strconv.ParseFloat(le, 64) // "+Inf" parses as +Inf
		if err != nil {
			continue
		}
		n, _ := strconv.ParseFloat(count, 64)
		bounds = append(bounds, b)
		cum = append(cum, n)
	}
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	target := q / 100 * cum[len(cum)-1]
	for i, n := range cum {
		if n < target {
			continue
		}
		hi := bounds[i]
		if math.IsInf(hi, 1) {
			return bounds[i-1]
		}
		lo, below := hi/10, 0.0
		if i > 0 {
			lo, below = bounds[i-1], cum[i-1]
		}
		frac := (target - below) / (n - below)
		return lo * math.Pow(hi/lo, frac)
	}
	return bounds[len(bounds)-2]
}

// readWAL decodes every record of the served log.
func readWAL(path string) ([]wal.Record, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	rd, err := wal.NewReader(bufio.NewReader(f))
	if err != nil {
		return nil, 0, err
	}
	var recs []wal.Record
	for {
		r, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		recs = append(recs, r)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	return recs, fi.Size(), nil
}

// applyTimes is what replaying a served log measured; a walreplay
// worker sends it to the benchmark as JSON.
type applyTimes struct {
	Report   string                 `json:"report"` // the rebuilt engine's /report encoding
	LoadS    float64                `json:"load_s"`
	NewS     float64                `json:"new_s"`
	ReplayS  float64                `json:"replay_s"`
	BuildS   float64                `json:"knowledge_build_s"` // the knowledge-build phase
	Counters map[string]float64     `json:"counters"`          // obs counters of the rebuilt engine
	Contacts int                    `json:"contacts"`
	US       map[wal.Kind][]float64 `json:"apply_us"` // per-record apply time by kind
	Spans    []span                 `json:"spans,omitempty"`
}

// walWorkerMain replays a served log in a fresh process, so every
// replay starts from the same process state, and prints applyTimes.
func walWorkerMain(args []string) error {
	fs := flag.NewFlagSet("walreplay", flag.ContinueOnError)
	path := fs.String("wal", "", "served write-ahead log")
	traced := fs.Bool("traced", false, "record a span per applied record")
	run := fs.String("run", "", "run ID shared by the spans")
	firstID := fs.Int64("first-id", 0, "first span ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	recs, _, err := readWAL(*path)
	if err != nil {
		return err
	}
	var tr *tracer
	if *traced {
		tr = newTracer(*run, *firstID)
	}
	at, err := replayWAL(tr, 0, recs)
	if err != nil {
		return err
	}
	at.Spans = tr.snapshot()
	return json.NewEncoder(os.Stdout).Encode(at)
}

// replayWAL rebuilds the served engine from its log: the same flags as
// dtnserved, then wal.Replay, timing each record between the replay's
// callbacks (and recording a span per record when tr is set).
func replayWAL(tr *tracer, parent int64, recs []wal.Record) (applyTimes, error) {
	at := applyTimes{US: make(map[wal.Kind][]float64)}
	t0 := time.Now()
	t, err := trace.GeneratePreset(trace.MITReality, traceSeed)
	if err != nil {
		return at, err
	}
	at.LoadS = time.Since(t0).Seconds()
	at.Contacts = len(t.Contacts)
	rec := obs.NewRecorder(nil, obs.WithPhases(obs.NewPhases(wallClock)))
	cfg, err := servedConfig(t, rec)
	if err != nil {
		return at, err
	}
	t1 := time.Now()
	eng, err := engine.New(cfg)
	if err != nil {
		return at, err
	}
	defer eng.Close()
	at.NewS = time.Since(t1).Seconds()
	rp := tr.begin("wal.Replay", parent)
	last := time.Now()
	_, err = wal.Replay(eng, recs, func(r wal.Record, _ wal.ApplyResult, _ error) {
		now := time.Now()
		at.US[r.Kind] = append(at.US[r.Kind], float64(now.Sub(last).Nanoseconds())/1e3)
		tr.record("apply "+r.Kind.String(), rp.id, last, now)
		last = now
	})
	at.ReplayS = rp.end()
	if err != nil {
		return at, err
	}
	at.Counters = counters(rec)
	names, tot, _ := rec.Phases().Totals()
	for i, n := range names {
		if n == "knowledge-build" {
			at.BuildS = float64(tot[i]) / 1e9
		}
	}
	var b bytes.Buffer
	if err := cli.WriteReportJSON(&b, eng.Report()); err != nil {
		return at, err
	}
	at.Report = b.String()
	return at, nil
}

// servedConfig is the engine configuration dtnserved -live builds from
// its default flags on trace t.
func servedConfig(t *trace.Trace, rec *obs.Recorder) (engine.Config, error) {
	fs := flag.NewFlagSet("dtnserved", flag.ContinueOnError)
	ef := cli.AddEngineFlags(fs)
	ff := cli.AddFaultFlags(fs)
	if err := fs.Parse([]string{"-seed", strconv.Itoa(traceSeed)}); err != nil {
		return engine.Config{}, err
	}
	cfg, err := ef.Config(t, ff.Config(t.Duration), rec)
	if err != nil {
		return engine.Config{}, err
	}
	cfg.Scheme = engine.SchemeIntentional
	cfg.Live = true
	cfg.SpanRetain = 1024
	return cfg, nil
}

// timeAppends appends the served records to a fresh log under the
// server's checkpoint sync policy and returns the median Append time
// in microseconds.
func timeAppends(tr *tracer, parent int64, dir string, recs []wal.Record) (float64, error) {
	w, err := wal.Create(filepath.Join(dir, "append.wal"), "dtnbench", wal.SyncCheckpoint)
	if err != nil {
		return 0, err
	}
	var us []float64
	for _, r := range recs {
		if r.Kind == wal.KindCheckpoint {
			if err := w.Checkpoint(r.Now); err != nil {
				w.Close()
				return 0, err
			}
			continue
		}
		sp := tr.begin("wal.Writer.Append", parent)
		err := w.Append(r)
		us = append(us, sp.end()*1e6)
		if err != nil {
			w.Close()
			return 0, err
		}
	}
	return median(us), w.Close()
}
