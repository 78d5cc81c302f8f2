package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"dtncache/internal/cli"
	"dtncache/internal/engine"
	"dtncache/internal/obs"
	"dtncache/internal/sim"
	"dtncache/internal/trace"
)

// replaySpec describes one replay workload.
type replaySpec struct {
	preset trace.Preset // Table I preset; empty for the city trace
	tlSec  float64      // T_L; 0 keeps the paper default of one week
	// minReplays is the fewest untraced replays a run takes its median
	// over, however short --seconds is. The CPU time of one MIT Reality
	// or Infocom06 replay varies by 5-10% from replay to replay on a
	// shared host, the city replay's by about 2%.
	minReplays int
}

var replaySpecs = map[string]replaySpec{
	"replay-reality":   {preset: trace.MITReality, minReplays: 4},
	"replay-infocom06": {preset: trace.Infocom06, tlSec: 3 * 3600, minReplays: 4},
	"replay-city":      {tlSec: 12 * 3600, minReplays: 2},
}

// The city fixture: 500 nodes over the generator's default 7 days with
// about 50k contacts.
const (
	cityNodes    = 500
	cityContacts = 50000
)

// setupsPerWorker is how often a worker repeats trace load plus
// engine.New; setup_s is the median over every repetition of a run.
const setupsPerWorker = 5

// workerResult is what one replay worker process reports.
type workerResult struct {
	SetupS        []float64          `json:"setup_s"`
	LoadS         []float64          `json:"load_s"`
	NewS          []float64          `json:"new_s"`
	ReplayS       float64            `json:"replay_s"`      // CPU seconds inside engine.Run
	ReplayWallS   float64            `json:"replay_wall_s"` // wall seconds inside engine.Run
	Report        string             `json:"report"`
	ReportsAgree  bool               `json:"reports_agree"`
	QueriesIssued int                `json:"queries_issued"`
	Violations    []string           `json:"violations,omitempty"`
	ReplayErr     string             `json:"replay_err,omitempty"`
	Counters      map[string]float64 `json:"counters,omitempty"`
	BuildS        float64            `json:"knowledge_build_s"`
	DriverS       float64            `json:"driver_s"`
	DriverEvents  uint64             `json:"driver_events"`
	DecodeS       float64            `json:"decode_s"`
	Contacts      int64              `json:"contacts"`
	Spans         []span             `json:"spans,omitempty"`
	PeakRSSMB     float64            `json:"-"`
}

// runReplay runs replay workers, one fresh process each so every
// replay has its own peak RSS, until the run's seconds are spent and
// the workload's minReplays untraced replays are done. A traced run
// alternates untraced and traced workers so the tracing overhead is
// measured against the same run.
func runReplay(o options) (result, error) {
	spec := replaySpecs[o.workload]
	cityPath := filepath.Join(o.workDir, "city.dtnc")
	expected, err := expectedReport(o)
	if err != nil {
		return result{}, err
	}
	var c checks
	var plain, traced []workerResult
	attempted, failed := 0, 0
	start := time.Now()
	for i := 0; ; i++ {
		wantTrace := o.traced && i%2 == 1
		before := len(c.failed)
		r, err := spawnWorker(o, cityPath, wantTrace, int64(i+1)*1_000_000)
		c.require(err == nil, "worker %d: %v", i, err)
		if err == nil {
			fmt.Fprintf(os.Stderr, "dtnbench: worker %d traced=%v: setup %.4fs replay %.3fs CPU (%.3fs wall) peak %.1f MB\n",
				i, wantTrace, median(r.SetupS), r.ReplayS, r.ReplayWallS, r.PeakRSSMB)
			checkReplay(&c, o, r, expected, plain, traced)
			if wantTrace {
				traced = append(traced, r)
			} else {
				plain = append(plain, r)
			}
		}
		attempted++
		if len(c.failed) > before {
			failed++
		}
		enough := len(plain) > 0 && (!o.traced || len(traced) > 0)
		if time.Since(start).Seconds() >= o.seconds && enough && (o.traced || len(plain) >= spec.minReplays) {
			break
		}
		if i >= 1000 || (err != nil && !enough && i >= 2) {
			return result{}, errors.New("replay workers keep failing")
		}
	}
	// A replay is one operation; it fails when any of its checks fails.
	res := result{Correct: c.ok(), Attempted: attempted, Failed: failed}
	if o.traced {
		res.Metrics = replayLayers(o, plain, traced)
		return res, nil
	}
	var replay, setup, rss []float64
	for _, r := range plain {
		replay = append(replay, r.ReplayS)
		setup = append(setup, r.SetupS...)
		rss = append(rss, r.PeakRSSMB)
	}
	res.Metrics = e2eMetrics(map[string]float64{
		"replay_s":    median(replay),
		"setup_s":     median(setup),
		"peak_rss_mb": median(rss),
	})
	return res, nil
}

// expectedReport loads the stored report for the recorded seed, or
// returns nil at any other seed.
func expectedReport(o options) ([]byte, error) {
	if o.seed != recordedSeed {
		return nil, nil
	}
	b, err := os.ReadFile(filepath.Join(o.root, "dtnbench", "expected", o.workload+".json"))
	if err != nil {
		return nil, fmt.Errorf("expected report: %w", err)
	}
	return b, nil
}

// checkReplay applies the output checks to one worker's replay.
func checkReplay(c *checks, o options, r workerResult, expected []byte, prior ...[]workerResult) {
	c.require(reportMatches(expected, []byte(r.Report)), "report differs from expected/%s.json at seed %d", o.workload, o.seed)
	for _, rs := range prior {
		if len(rs) > 0 {
			c.require(rs[0].Report == r.Report, "report differs between replays of one run")
		}
	}
	c.require(r.ReportsAgree, "engine.Run and engine.Report disagree")
	c.require(len(r.Violations) == 0, "invariant violations: %v", r.Violations)
	c.require(r.ReplayErr == "", "replay error: %s", r.ReplayErr)
	c.require(r.QueriesIssued > 0, "replay issued zero queries")
}

// reportMatches compares a report with the stored one; a nil expected
// report (a seed without one) matches anything.
func reportMatches(expected, got []byte) bool {
	return expected == nil || bytes.Equal(expected, got)
}

// spawnWorker runs one replay in a fresh process and reads its result.
func spawnWorker(o options, cityPath string, traced bool, firstID int64) (workerResult, error) {
	var r workerResult
	peak, err := spawn([]string{"worker",
		"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-city", cityPath, "-traced=" + strconv.FormatBool(traced),
		"-run", o.runID, "-first-id", strconv.FormatInt(firstID, 10)}, &r)
	r.PeakRSSMB = peak
	return r, err
}

// spawn runs this binary with args as a child process, decodes its
// JSON result into into, and returns the child's peak RSS in MB, read
// from its rusage once it has exited.
func spawn(args []string, into any) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs()))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s: %w", args[0], err)
	}
	if err := json.Unmarshal(out.Bytes(), into); err != nil {
		return 0, fmt.Errorf("decode %s result: %w", args[0], err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for " + args[0])
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// workerMain is the child side of spawnWorker: set up, replay, check
// and, when traced, measure the layers around the replay.
func workerMain(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	name := fs.String("workload", "", "replay workload")
	seed := fs.Int64("seed", recordedSeed, "workload seed")
	cityPath := fs.String("city", "", "where the city workload writes its chunked trace")
	traced := fs.Bool("traced", false, "record spans, obs counters and phases")
	run := fs.String("run", "", "run ID shared by the spans")
	firstID := fs.Int64("first-id", 0, "first span ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, ok := replaySpecs[*name]
	if !ok {
		return fmt.Errorf("unknown replay workload %q", *name)
	}
	tf, err := traceFlags(spec, *cityPath)
	if err != nil {
		return err
	}
	var tr *tracer
	if *traced {
		tr = newTracer(*run, *firstID)
	}
	root := tr.begin("worker "+*name, 0)
	var (
		res workerResult
		rec *obs.Recorder
		t   *trace.Trace
		eng *engine.Engine
	)
	for i := 0; i < setupsPerWorker; i++ {
		if eng != nil {
			eng.Close()
		}
		if *traced {
			rec = obs.NewRecorder(nil, obs.WithPhases(obs.NewPhases(wallClock)))
		}
		s := tr.begin("setup", root.id)
		l := tr.begin("trace.load", s.id)
		if t, err = loadTrace(spec, tf); err != nil {
			return err
		}
		res.LoadS = append(res.LoadS, l.end())
		n := tr.begin("engine.New", s.id)
		cfg := engine.Config{Trace: t, AvgLifetime: spec.tlSec, Seed: *seed, Obs: rec, Stream: tf.Opener()}
		if eng, err = engine.New(cfg); err != nil {
			return err
		}
		res.NewS = append(res.NewS, n.end())
		res.SetupS = append(res.SetupS, s.end())
	}
	defer eng.Close()

	r := tr.begin("engine.Run", root.id)
	cpu0 := cpuSelf()
	rep, err := eng.Run()
	res.ReplayS = cpuSelf() - cpu0
	res.ReplayWallS = r.end()
	if err != nil {
		return err
	}
	rp := tr.begin("engine.Report", root.id)
	again := eng.Report()
	rp.end()
	var a, b bytes.Buffer
	if err := cli.WriteReportJSON(&a, rep); err != nil {
		return err
	}
	if err := cli.WriteReportJSON(&b, again); err != nil {
		return err
	}
	res.Report = a.String()
	res.ReportsAgree = bytes.Equal(a.Bytes(), b.Bytes())
	res.QueriesIssued = rep.QueriesIssued
	for _, v := range eng.CheckInvariants() {
		res.Violations = append(res.Violations, v.String())
	}
	if err := eng.ReplayErr(); err != nil {
		res.ReplayErr = err.Error()
	}

	if *traced {
		res.Counters = counters(rec)
		names, tot, _ := rec.Phases().Totals()
		for i, n := range names {
			if n == "knowledge-build" {
				res.BuildS = float64(tot[i]) / 1e9
			}
		}
		if err := measureDriver(tr, root.id, t, tf, &res); err != nil {
			return err
		}
		if err := measureDecode(tr, root.id, spec, t, *cityPath, &res); err != nil {
			return err
		}
	}
	root.end()
	res.Spans = tr.snapshot()
	return json.NewEncoder(os.Stdout).Encode(res)
}

func wallClock() int64 { return time.Now().UnixNano() }

// cpuSelf returns the user plus system CPU seconds of this process,
// all threads. Unlike wall time it leaves out the time the host gives
// to other tenants, including hypervisor steal, so replay_s reads the
// replay's own cost on a shared box.
func cpuSelf() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on Linux
	}
	sec := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// traceFlags selects the workload's trace the way the CLIs do: the
// preset, or the city file replayed as a stream.
func traceFlags(spec replaySpec, cityPath string) (*cli.TraceFlags, error) {
	args := []string{"-trace", string(spec.preset)}
	if spec.preset == "" {
		args = []string{"-tracefile", cityPath, "-format", "chunked", "-stream"}
	}
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	tf := cli.AddTraceFlags(fs)
	return tf, fs.Parse(args)
}

// loadTrace generates the preset trace, or generates the city trace
// into a chunked file and opens it as a stream, returning its
// metadata-only trace.
func loadTrace(spec replaySpec, tf *cli.TraceFlags) (*trace.Trace, error) {
	if spec.preset == "" {
		if err := writeCity(*tf.File); err != nil {
			return nil, fmt.Errorf("generate city trace: %w", err)
		}
	}
	return tf.Load(traceSeed)
}

// writeCity streams the city fixture into a chunked trace file.
func writeCity(path string) error {
	cfg := trace.CityDefaults(cityNodes, cityContacts)
	cfg.Seed = traceSeed
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sw, err := trace.NewStreamWriter(f, trace.StreamMeta{
		Name: cfg.Name, Nodes: cfg.Nodes, Duration: cfg.DurationSec, Granularity: cfg.GranularitySec,
	})
	if err != nil {
		f.Close()
		return err
	}
	if err := trace.StreamCity(cfg, sw.Add); err != nil {
		f.Close()
		return err
	}
	if err := sw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counterNames maps per-layer metric names to obs (subsystem, name).
var counterNames = map[string][2]string{
	"sim.events":                 {"sim", "events_dispatched"},
	"sim.transfers_delivered":    {"contact", "transfers_delivered"},
	"sim.transfers_dropped":      {"contact", "transfers_dropped"},
	"knowledge.builds":           {"knowledge", "builds"},
	"knowledge.cache_hits":       {"knowledge", "cache_hits"},
	"core.pushes":                {"core", "pushes"},
	"core.replacement_drops":     {"core", "replacement_drops"},
	"buffer.inserts":             {"buffer", "inserts"},
	"buffer.evictions":           {"buffer", "evictions"},
	"query.issued":               {"query", "issued"},
	"query.answered":             {"query", "answered"},
	"knowledge.snapshots_cached": {"knowledge", "cached_snapshots"},
}

func counters(rec *obs.Recorder) map[string]float64 {
	out := make(map[string]float64, len(counterNames))
	for name, k := range counterNames {
		if name == "knowledge.snapshots_cached" {
			out[name] = float64(rec.Gauge(k[0], k[1]).Value())
			continue
		}
		out[name] = float64(rec.Counter(k[0], k[1]).Value())
	}
	return out
}

// noopHandler lets sim.Driver replay contacts with no scheme attached.
type noopHandler struct{}

func (noopHandler) ContactStart(*sim.Session) {}
func (noopHandler) ContactEnd(*sim.Session)   {}

// measureDriver replays the same contacts through sim.Driver with a
// no-op handler: the cost of contact dispatch alone.
func measureDriver(tr *tracer, parent int64, t *trace.Trace, tf *cli.TraceFlags, res *workerResult) error {
	sp := tr.begin("sim.Driver", parent)
	s := sim.New()
	d := sim.NewDriver(s, noopHandler{})
	var err error
	if open := tf.Opener(); open == nil {
		err = d.Load(t)
	} else {
		var src trace.ContactSource
		if src, err = open(); err == nil {
			err = d.LoadStream(src)
		}
	}
	if err != nil {
		return err
	}
	s.RunUntil(t.Duration)
	res.DriverS = sp.end()
	res.DriverEvents = s.Processed()
	return d.FeedErr()
}

// measureDecode times one full trace.StreamReader pass: over the city
// file, or over the preset encoded in memory.
func measureDecode(tr *tracer, parent int64, spec replaySpec, t *trace.Trace, cityPath string, res *workerResult) error {
	var r io.Reader
	if spec.preset != "" {
		var buf bytes.Buffer
		if err := trace.WriteChunked(&buf, t); err != nil {
			return err
		}
		r = &buf
	} else {
		f, err := os.Open(cityPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	sp := tr.begin("trace.StreamReader", parent)
	sr, err := trace.NewStreamReader(r)
	if err != nil {
		return err
	}
	for {
		if _, err := sr.NextContact(); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
	}
	res.DecodeS = sp.end()
	res.Contacts = sr.Records()
	return nil
}

// replayLayers assembles the per-layer metrics of a traced replay run.
func replayLayers(o options, plain, traced []workerResult) map[string]metric {
	var all []span
	for _, r := range append(append([]workerResult(nil), plain...), traced...) {
		all = append(all, r.Spans...)
	}
	v := make(map[string]float64)
	med := func(f func(workerResult) float64) float64 {
		xs := make([]float64, len(traced))
		for i, r := range traced {
			xs[i] = f(r)
		}
		return median(xs)
	}
	replay := med(func(r workerResult) float64 { return r.ReplayS })
	v["trace.load_s"] = med(func(r workerResult) float64 { return median(r.LoadS) })
	v["trace.decode_s"] = med(func(r workerResult) float64 { return r.DecodeS })
	v["trace.contacts"] = med(func(r workerResult) float64 { return float64(r.Contacts) })
	v["engine.new_s"] = med(func(r workerResult) float64 { return median(r.NewS) })
	v["sim.driver_s"] = med(func(r workerResult) float64 { return r.DriverS })
	v["sim.ns_per_event"] = med(func(r workerResult) float64 { return r.DriverS * 1e9 / float64(r.DriverEvents) })
	v["knowledge.build_s"] = med(func(r workerResult) float64 { return r.BuildS })
	// The phase and span timings are wall time, so the shares and the
	// remainder are taken against the replay's wall time.
	v["knowledge.build_share"] = med(func(r workerResult) float64 { return r.BuildS / r.ReplayWallS })
	v["scheme.self_s"] = med(func(r workerResult) float64 { return r.ReplayWallS - r.BuildS - r.DriverS })
	for name := range counterNames {
		v[name] = med(func(r workerResult) float64 { return r.Counters[name] })
	}
	var base []float64
	for _, r := range plain {
		base = append(base, r.ReplayS)
	}
	v["obs.overhead_ratio"] = replay / median(base)
	if err := writeSpans(filepath.Join(o.root, ".bench_build", "spans-"+o.runID+".json"), currentHost(), all); err != nil {
		fmt.Fprintln(os.Stderr, "dtnbench: write spans:", err)
	}
	return layerMetrics(v)
}
