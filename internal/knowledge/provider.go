package knowledge

import (
	"sort"
	"sync"

	"dtncache/internal/obs"
	"dtncache/internal/trace"
)

// maxCached bounds how many snapshots a Provider retains. It must
// cover a whole default refresh grid (duration/100 from the mid-trace
// warmup, ~51 points): consumers of a comparison walk the same grid but
// not in lockstep — on few cores they run one after another — so a
// bound smaller than the grid makes each later consumer miss every
// time (a sequential scan over an undersized cache evicts entries just
// before their reuse). Evicting the oldest beyond the bound merely
// costs a rebuild if a very late consumer asks again; a rebuild is
// bit-identical, so eviction never changes results.
const maxCached = 128

// Provider builds and caches snapshots for one (contact list, Params)
// pipeline. It is safe for concurrent use: schemes in a comparison
// share a provider, and whichever requests a refresh time first builds
// it while the rest reuse the cached value. A snapshot depends only on
// its build time, so results never depend on which consumer built what
// or on eviction timing.
//
//dtn:shared the mutex-guarded snapshot cache crosses sweep cells
type Provider struct {
	builder *Builder

	mu      sync.Mutex
	byTime  map[float64]*Snapshot
	times   []float64 // sorted build times of cached snapshots
	version int
	empty   *Snapshot

	// Streaming mode (NewStreamProvider): counts come from an online
	// fold over a contact source instead of a materialized list. A
	// source failure is sticky in streamErr.
	feed      *contactFeed
	streamErr error

	rec      *obs.Recorder
	cBuilds  *obs.Counter
	cHits    *obs.Counter
	gaCached *obs.Gauge
}

// NewProvider creates a provider over the given sorted contact list
// (see Builder for the raw-vs-merged contract).
func NewProvider(p Params, contacts []trace.Contact) *Provider {
	return &Provider{
		builder: NewBuilder(p, contacts),
		byTime:  make(map[float64]*Snapshot),
	}
}

// Params returns the normalized pipeline configuration, for
// compatibility checks when a provider is shared.
func (pr *Provider) Params() Params { return pr.builder.Params() }

// StreamErr returns the sticky error, if any, a streaming provider's
// contact source reported. Always nil for a materialized provider.
func (pr *Provider) StreamErr() error {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.streamErr
}

// SetRecorder attaches observability: knowledge/builds and
// knowledge/cache_hits counters, a knowledge/cached_snapshots gauge and
// a "knowledge-build" phase span per build. Only attach to a privately
// owned provider — a provider shared across parallel sweep cells must
// stay recorder-free so one cell's metrics do not absorb another's
// builds.
func (pr *Provider) SetRecorder(r *obs.Recorder) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.rec = r
	if r == nil {
		pr.cBuilds, pr.cHits, pr.gaCached = nil, nil, nil
		return
	}
	pr.cBuilds = r.Counter("knowledge", "builds")
	pr.cHits = r.Counter("knowledge", "cache_hits")
	pr.gaCached = r.Gauge("knowledge", "cached_snapshots")
}

// Empty returns the version-0 snapshot of an empty graph: the knowledge
// an Env holds before its first refresh.
func (pr *Provider) Empty() *Snapshot {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.empty == nil {
		pr.empty = pr.builder.Build(0, 0)
	}
	return pr.empty
}

// At returns the snapshot of the contact prefix up to time t, building
// it on first request.
func (pr *Provider) At(t float64) *Snapshot {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if s, ok := pr.byTime[t]; ok {
		pr.cHits.Inc()
		return s
	}
	pr.version++
	done := pr.rec.Phase("knowledge-build")
	var s *Snapshot
	if pr.feed != nil {
		counts, err := pr.feed.countsAt(t)
		if err != nil && pr.streamErr == nil {
			pr.streamErr = err
		}
		s = pr.builder.buildFromCounts(counts, t, pr.version)
	} else {
		s = pr.builder.Build(t, pr.version)
	}
	done()
	pr.cBuilds.Inc()
	pr.byTime[t] = s
	i := sort.SearchFloat64s(pr.times, t)
	pr.times = append(pr.times, 0)
	copy(pr.times[i+1:], pr.times[i:])
	pr.times[i] = t
	if len(pr.times) > maxCached {
		delete(pr.byTime, pr.times[0])
		pr.times = pr.times[1:]
	}
	pr.gaCached.Set(int64(len(pr.times)))
	return s
}
