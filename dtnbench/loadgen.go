package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dtncache/internal/mathx"
	"dtncache/internal/trace"
)

// opKind is the kind of one service request.
type opKind int

const (
	opQuery opKind = iota
	opPublish
	opContacts
	opAdvance
)

var opPaths = [...]string{"/v1/query", "/v1/publish", "/v1/contacts", "/v1/advance"}

// wantStatus is the success status of each kind (contacts are queued).
var wantStatus = [...]int{200, 200, 202, 200}

// plannedOp is one request of an open-loop schedule, due at its offset
// from the start of the schedule.
type plannedOp struct {
	kind opKind
	body []byte
	due  time.Duration
}

// outcome is what happened to one planned op. Times are offsets from
// the start of the schedule.
type outcome struct {
	kind   opKind
	due    time.Duration
	start  time.Duration
	end    time.Duration
	ok     bool
	issued bool // a query the server reported as issued into the network
	slept  bool // the connection was idle and waited for the due time
}

// latencyMs is the request latency from its due time; failures read
// +Inf so they miss every limit.
func (o outcome) latencyMs() float64 {
	if !o.ok {
		return math.Inf(1)
	}
	return float64(o.end-o.due) / 1e6
}

// loadPlan shapes the mixed phase of serve-reality as repeated cycles.
// Each cycle offers queries, contact batches and publishes in a seeded
// order at rate, then advances the virtual clock by advanceBy.
type loadPlan struct {
	rate      float64 // offered requests per second (advances excluded)
	seconds   float64
	queries   int // queries per cycle
	batches   int // contact batches per cycle
	publishes int // publishes per cycle
	nodes     int
	dataItems int     // items published during set-up; queries pick among them
	zipfS     float64 // query skew over the set-up items (Eq. 8)
	fromSec   float64 // virtual time when the phase starts
	advanceBy float64 // virtual seconds per advance
	// pool holds the contacts a batch draws from; each drawn contact
	// keeps its pair and duration and is re-timed into the cycle's
	// virtual window.
	pool      []trace.Contact
	batchSize int
}

// build generates the schedule from seed. Cycle k runs while the clock
// stands at fromSec + k*advanceBy; its contacts start inside the window
// the following advance crosses, so they are still ahead of the clock
// when the ingester applies them.
func (p loadPlan) build(seed int64) []plannedOp {
	rng := mathx.NewRand(seed)
	zipf, err := mathx.NewZipf(p.dataItems, p.zipfS)
	if err != nil {
		panic(err)
	}
	var cycle []opKind
	for kind, n := range [...]int{opQuery: p.queries, opPublish: p.publishes, opContacts: p.batches} {
		for ; n > 0; n-- {
			cycle = append(cycle, opKind(kind))
		}
	}
	n := int(p.rate * p.seconds)
	ops := make([]plannedOp, 0, n+n/len(cycle))
	var order []int
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / p.rate * float64(time.Second))
		k, j := i/len(cycle), i%len(cycle)
		if j == 0 {
			order = rng.Perm(len(cycle))
			if k > 0 {
				ops = append(ops, plannedOp{opAdvance, mustJSON(map[string]float64{"to_sec": p.fromSec + float64(k)*p.advanceBy}), due})
			}
		}
		switch cycle[order[j]] {
		case opPublish:
			ops = append(ops, plannedOp{opPublish, mustJSON(map[string]int{"source": rng.Intn(p.nodes)}), due})
		case opContacts:
			base := p.fromSec + float64(k)*p.advanceBy
			cs := make([]map[string]any, p.batchSize)
			for m := range cs {
				c := p.pool[rng.Intn(len(p.pool))]
				start := base + (1-rng.Float64())*p.advanceBy // in (base, base+advanceBy]
				cs[m] = map[string]any{"a": c.A, "b": c.B, "start_sec": start, "end_sec": start + c.Duration()}
			}
			ops = append(ops, plannedOp{opContacts, mustJSON(map[string]any{"contacts": cs}), due})
		default:
			ops = append(ops, queryOp(rng, zipf, p.nodes, due))
		}
	}
	return ops
}

func queryOp(rng *mathx.Rand, zipf *mathx.Zipf, nodes int, due time.Duration) plannedOp {
	return plannedOp{opQuery, mustJSON(map[string]int{
		"requester": rng.Intn(nodes), "data": zipf.Sample(rng) - 1,
	}), due}
}

// queryOnly builds a query schedule at a fixed rate, for the ladder.
func queryOnly(rng *mathx.Rand, zipf *mathx.Zipf, nodes int, rate, seconds float64) []plannedOp {
	n := int(rate * seconds)
	ops := make([]plannedOp, n)
	for i := range ops {
		ops[i] = queryOp(rng, zipf, nodes, time.Duration(float64(i)/rate*float64(time.Second)))
	}
	return ops
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// client sends requests over at most conns keep-alive connections.
type client struct {
	base  string
	http  *http.Client
	conns int
	tr    *tracer
	// drain, when set, blocks until the server has applied every
	// queued write; an advance runs only after it returns.
	drain func()
}

func newClient(addr string, conns int, tr *tracer) *client {
	return &client{
		base: "http://" + addr,
		http: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		conns: conns,
		tr:    tr,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// run executes the schedule open loop: each connection takes the next
// op, waits until it is due if it is early, and sends it. A slow
// response delays later ops, and their latency, timed from the due
// time, counts that wait. Before an advance it calls drain, so writes
// the server queued are applied first.
func (c *client) run(ops []plannedOp, parent int64) []outcome {
	out := make([]outcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				op := &ops[i]
				o := outcome{kind: op.kind, due: op.due}
				if op.kind == opAdvance && c.drain != nil {
					c.drain()
				}
				if wait := op.due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
					o.slept = true
				}
				o.start = time.Since(t0)
				sp := c.tr.begin("http "+opPaths[op.kind], parent)
				o.ok, o.issued = c.send(op)
				sp.end()
				o.end = time.Since(t0)
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out
}

// send posts one op and reports success and, for queries, whether the
// server issued it into the network.
func (c *client) send(op *plannedOp) (ok, issued bool) {
	resp, err := c.http.Post(c.base+opPaths[op.kind], "application/json", bytes.NewReader(op.body))
	if err != nil {
		return false, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != wantStatus[op.kind] {
		return false, false
	}
	if op.kind == opQuery {
		var q struct {
			Issued bool `json:"issued"`
		}
		if json.Unmarshal(body, &q) != nil {
			return false, false
		}
		return true, q.Issued
	}
	return true, false
}

// get fetches a path and returns the status and body.
func (c *client) get(path string) (int, []byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// post sends one JSON request outside a schedule.
func (c *client) post(path string, body []byte, want int) error {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return nil
}

// backlogAt counts requests due by t that had not completed by t.
func backlogAt(outs []outcome, t time.Duration) int {
	n := 0
	for _, o := range outs {
		if o.due <= t && o.end > t {
			n++
		}
	}
	return n
}

// latencies collects the latencies, in ms, of the outcomes whose kind
// passes keep.
func latencies(outs []outcome, keep func(opKind) bool) []float64 {
	var xs []float64
	for _, o := range outs {
		if keep(o.kind) {
			xs = append(xs, o.latencyMs())
		}
	}
	return xs
}

// lateness collects how late, in ms, idle connections sent their op
// after its due time: the generator's own lag, apart from backlog.
func lateness(outs []outcome) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.slept {
			xs = append(xs, float64(o.start-o.due)/1e6)
		}
	}
	sort.Float64s(xs)
	return xs
}
