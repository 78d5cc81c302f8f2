// Package obs is the simulation-wide observability layer: typed
// counters/gauges/histograms registered per subsystem, phase timers
// around the coarse stages of a run (trace load, knowledge build,
// replay, report), and a structured NDJSON run-trace of simulation
// events with pluggable sinks (full stream, bounded flight-recorder
// ring, sampling).
//
// Everything routes through a nil-safe *Recorder: a nil recorder (the
// default everywhere) makes every instrumentation site a single
// pointer test, so the disabled path costs no allocation and no work —
// the replay hot path stays at 0 allocs/op (asserted in
// internal/sim). Determinism contract: events carry only virtual-time
// and seed-derived values, so a recorded trace is byte-identical
// across runs at a fixed seed; wall-clock readings are confined to the
// phase timers, whose clock is injected by the CLI layer and whose
// output never enters the trace.
//
//dtn:determinism
package obs

import "io"

// Kind identifies one simulation event type in the run-trace.
type Kind uint8

// Event kinds. The manifest pseudo-kind tags the header line written
// once at the start of a trace.
const (
	KindManifest Kind = iota
	// KindContactBegin: a contact opened (a, b = endpoints).
	KindContactBegin
	// KindContactEnd: a contact closed (a, b = endpoints, v = bits
	// delivered on it).
	KindContactEnd
	// KindQueryIssued: a requester sent a query into the network
	// (a = requester, id = query ID, aux = data ID).
	KindQueryIssued
	// KindQueryAnswered: the first on-time data copy reached the
	// requester (a = requester, id = query ID, v = access delay in
	// seconds).
	KindQueryAnswered
	// KindQueryExpired: a query's deadline passed unanswered
	// (a = requester, id = query ID).
	KindQueryExpired
	// KindCacheInsert: a node cached a data copy (a = node, id = data
	// ID, v = utility or size).
	KindCacheInsert
	// KindCacheEvict: a node dropped a cached copy (a = node, id = data
	// ID, v = utility at eviction).
	KindCacheEvict
	// KindPush: a push transfer of a data copy toward its NCL was
	// enqueued (a = holder, b = next relay, id = data ID, aux = NCL
	// index).
	KindPush
	// KindPull: a caching or source node decided to return data for a
	// query (a = responder, b = requester, id = query ID).
	KindPull
	// KindKnowledge: a knowledge snapshot refresh was applied
	// (aux = snapshot version).
	KindKnowledge
	// KindCell: one sweep cell of an experiment run completed
	// (aux = completion index, v = wall seconds; cmd/experiments only,
	// not byte-stable under parallel sweeps).
	KindCell
	// KindNodeDown: fault injection crashed a node (a = node).
	KindNodeDown
	// KindNodeUp: a crashed node recovered (a = node).
	KindNodeUp
	// KindContactTruncated: fault injection shortened a contact
	// (a, b = endpoints, v = the new, earlier end time).
	KindContactTruncated
	// KindTransferKilled: fault injection killed an in-flight transfer
	// (a = sender, b = receiver, v = bits lost).
	KindTransferKilled
	// KindQueryRetry: a query was re-issued after its retry timeout
	// (a = requester, id = query ID, aux = attempt number).
	KindQueryRetry
	// KindFailover: an NCL's traffic was re-targeted to a stand-in
	// because the configured central is down (a = configured center,
	// b = stand-in, aux = NCL index).
	KindFailover
	// KindReplicate: a cached item lost in a crash was queued for
	// re-replication from its source (a = source, id = data ID,
	// aux = NCL index).
	KindReplicate
	// KindSpan: one causal span of a query's provenance tree (see
	// internal/provenance); carries its own field set, encoded by
	// appendSpan rather than appendEvent.
	KindSpan

	kindCount
)

var kindNames = [kindCount]string{
	"manifest",
	"contact-begin", "contact-end",
	"query-issued", "query-answered", "query-expired",
	"cache-insert", "cache-evict",
	"push", "pull",
	"knowledge", "cell",
	"node-down", "node-up",
	"contact-truncated", "transfer-killed",
	"query-retry", "ncl-failover", "re-replicate",
	"span",
}

// String returns the stable NDJSON name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindByName resolves a trace kind name back to its Kind; ok is false
// for unknown names.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Option configures a Recorder.
type Option func(*Recorder)

// WithPhases attaches a phase-timer set (its clock is injected by the
// caller; see NewPhases).
func WithPhases(p *Phases) Option {
	return func(r *Recorder) { r.phases = p }
}

// Recorder is the instrumentation hub handed to the simulation layers.
// All methods are safe on a nil receiver: the nil path is a single
// branch, which is what keeps disabled instrumentation free. Metric
// updates are atomic, but Event/Manifest reuse one encode buffer and
// must be serialized by the caller when producers span goroutines
// (cmd/experiments guards its cell hook with a mutex; single-run
// simulations are single-goroutine by construction).
type Recorder struct {
	sink   Sink
	reg    *Registry
	phases *Phases
	buf    []byte // encode scratch, reused across events
}

// NewRecorder creates a recorder writing trace events to sink (nil for
// metrics/phases only) with a fresh metric registry.
func NewRecorder(sink Sink, opts ...Option) *Recorder {
	r := &Recorder{sink: sink, reg: NewRegistry()}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Registry returns the metric registry (nil on a nil recorder).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Counter registers (or fetches) the named counter. It returns nil on
// a nil recorder, and Counter methods are nil-safe, so call sites may
// cache the result unconditionally.
func (r *Recorder) Counter(subsystem, name string) *Counter {
	if r == nil {
		return nil
	}
	return r.reg.Counter(subsystem, name)
}

// Gauge registers (or fetches) the named gauge; nil on a nil recorder.
func (r *Recorder) Gauge(subsystem, name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.reg.Gauge(subsystem, name)
}

// Histogram registers (or fetches) the named fixed-bucket histogram;
// nil on a nil recorder. Bounds are only consulted on first
// registration.
func (r *Recorder) Histogram(subsystem, name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.reg.Histogram(subsystem, name, bounds)
}

// Phase opens a named wall-clock span and returns its closer. On a nil
// recorder (or one without phase timers) it returns a no-op closer.
// Phase timings never enter the trace sink: they are wall-clock and
// would break byte-identity.
func (r *Recorder) Phase(name string) func() {
	if r == nil || r.phases == nil {
		return func() {}
	}
	return r.phases.Start(name)
}

// Phases returns the attached phase-timer set, nil when absent.
func (r *Recorder) Phases() *Phases {
	if r == nil {
		return nil
	}
	return r.phases
}

// Event records one simulation event into the trace sink. Negative a/b
// and id mean "not applicable" and are omitted from the encoding, as
// are zero aux/v; label (omitted when empty) must be a static string
// such as a scheme name. No-op without a sink.
func (r *Recorder) Event(k Kind, t float64, a, b int32, id, aux int64, v float64, label string) {
	if r == nil || r.sink == nil {
		return
	}
	r.buf = appendEvent(r.buf[:0], k, t, a, b, id, aux, v, label)
	r.sink.WriteLine(r.buf)
}

// SpanEvent is one causal span of a query's provenance tree (built by
// internal/provenance): a virtual-time interval [Start, End] with a
// cause edge to its parent span inside the same trace. Spans are their
// own trace line family (k == "span") so existing consumers keep
// working and span-bearing traces stay byte-deterministic.
type SpanEvent struct {
	// Trace is the query's trace ID, derived from (seed, query ID);
	// encoded as 16 lowercase hex digits.
	Trace uint64
	// ID is the span's sequence number inside its trace (root = 0)
	// and Parent its cause edge (-1 on the root, omitted then).
	ID, Parent int64
	// Op names the span kind; must be a static string (e.g. "q-seg").
	Op string
	// Start and End delimit the span in virtual seconds. Enq is the
	// transfer-enqueue instant of custody segments; it equals Start
	// (and is omitted) for spans without a link transfer.
	Start, End, Enq float64
	// A is the acting node and B the receiving peer; negative values
	// mean "not applicable" and are omitted.
	A, B int32
	// Query is the query ID the span belongs to (always encoded).
	Query int64
	// Aux and V carry op-specific payload (data ID, NCL index, Eq. 6
	// utility, link service time...); zero values are omitted.
	Aux int64
	V   float64
}

// Span records one provenance span into the trace sink. No-op without
// a sink; like Event it reuses the recorder's encode scratch, so
// producers must be serialized by the caller.
func (r *Recorder) Span(ev SpanEvent) {
	if r == nil || r.sink == nil {
		return
	}
	r.buf = appendSpan(r.buf[:0], ev)
	r.sink.WriteLine(r.buf)
}

// TraceEnabled reports whether trace events actually reach a sink —
// the gate layers use to decide whether building span state is worth
// anything at all.
func (r *Recorder) TraceEnabled() bool {
	return r != nil && r.sink != nil
}

// Manifest writes the run-manifest header line into the trace sink.
func (r *Recorder) Manifest(m Manifest) {
	if r == nil || r.sink == nil {
		return
	}
	r.buf = appendManifest(r.buf[:0], m)
	r.sink.WriteLine(r.buf)
}

// Close flushes and closes the trace sink (nil-safe).
func (r *Recorder) Close() error {
	if r == nil || r.sink == nil {
		return nil
	}
	return r.sink.Close()
}

// WriteSummary renders the phase timers and the metric registry as an
// aligned text block (the -obs-summary output).
func (r *Recorder) WriteSummary(w io.Writer) error {
	if r == nil {
		return nil
	}
	if r.phases != nil {
		if err := r.phases.WriteSummary(w); err != nil {
			return err
		}
	}
	return r.reg.WriteSummary(w)
}

// --- typed event helpers (all nil-safe via Event) ---

// ContactBegin records a contact opening.
func (r *Recorder) ContactBegin(t float64, a, b int32) {
	r.Event(KindContactBegin, t, a, b, -1, 0, 0, "")
}

// ContactEnd records a contact closing with the bits it delivered.
func (r *Recorder) ContactEnd(t float64, a, b int32, sentBits float64) {
	r.Event(KindContactEnd, t, a, b, -1, 0, sentBits, "")
}

// QueryIssued records a query entering the network.
func (r *Recorder) QueryIssued(t float64, requester int32, queryID, dataID int64) {
	r.Event(KindQueryIssued, t, requester, -1, queryID, dataID, 0, "")
}

// QueryAnswered records the first on-time delivery satisfying a query.
func (r *Recorder) QueryAnswered(t float64, requester int32, queryID int64, delaySec float64) {
	r.Event(KindQueryAnswered, t, requester, -1, queryID, 0, delaySec, "")
}

// QueryExpired records a query whose deadline passed unanswered.
func (r *Recorder) QueryExpired(t float64, requester int32, queryID int64) {
	r.Event(KindQueryExpired, t, requester, -1, queryID, 0, 0, "")
}

// CacheInsert records a node caching a data copy with its utility (or
// size, where no utility applies yet).
func (r *Recorder) CacheInsert(t float64, node int32, dataID int64, utility float64) {
	r.Event(KindCacheInsert, t, node, -1, dataID, 0, utility, "")
}

// CacheEvict records a node dropping a cached copy with the utility it
// had at eviction.
func (r *Recorder) CacheEvict(t float64, node int32, dataID int64, utility float64) {
	r.Event(KindCacheEvict, t, node, -1, dataID, 0, utility, "")
}

// Push records a push transfer of a data copy being enqueued toward
// its NCL.
func (r *Recorder) Push(t float64, from, to int32, dataID int64, ncl int64) {
	r.Event(KindPush, t, from, to, dataID, ncl, 0, "")
}

// Pull records a node's decision to return data for a query.
func (r *Recorder) Pull(t float64, responder, requester int32, queryID int64) {
	r.Event(KindPull, t, responder, requester, queryID, 0, 0, "")
}

// Knowledge records a knowledge snapshot refresh being applied.
func (r *Recorder) Knowledge(t float64, version int64) {
	r.Event(KindKnowledge, t, -1, -1, -1, version, 0, "")
}

// Cell records one experiment sweep cell completing after wallSec
// seconds (cmd/experiments only; wall-clock, so not byte-stable).
func (r *Recorder) Cell(index int64, wallSec float64, label string) {
	r.Event(KindCell, 0, -1, -1, -1, index, wallSec, label)
}

// NodeDown records fault injection crashing a node.
func (r *Recorder) NodeDown(t float64, node int32) {
	r.Event(KindNodeDown, t, node, -1, -1, 0, 0, "")
}

// NodeUp records a crashed node recovering.
func (r *Recorder) NodeUp(t float64, node int32) {
	r.Event(KindNodeUp, t, node, -1, -1, 0, 0, "")
}

// ContactTruncated records fault injection shortening a contact to end
// at newEnd instead of its traced end.
func (r *Recorder) ContactTruncated(t float64, a, b int32, newEnd float64) {
	r.Event(KindContactTruncated, t, a, b, -1, 0, newEnd, "")
}

// TransferKilled records fault injection killing an in-flight transfer.
func (r *Recorder) TransferKilled(t float64, from, to int32, bits float64) {
	r.Event(KindTransferKilled, t, from, to, -1, 0, bits, "")
}

// QueryRetry records a query being re-issued on its attempt'th try.
func (r *Recorder) QueryRetry(t float64, requester int32, queryID int64, attempt int64) {
	r.Event(KindQueryRetry, t, requester, -1, queryID, attempt, 0, "")
}

// Failover records NCL traffic re-targeting from a down center to a
// stand-in node.
func (r *Recorder) Failover(t float64, center, standIn int32, ncl int64) {
	r.Event(KindFailover, t, center, standIn, -1, ncl, 0, "")
}

// Replicate records a crash-lost cached item being queued for
// re-replication from its source toward its NCL.
func (r *Recorder) Replicate(t float64, source int32, dataID int64, ncl int64) {
	r.Event(KindReplicate, t, source, -1, dataID, ncl, 0, "")
}
