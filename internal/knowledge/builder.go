package knowledge

import (
	"sort"
	"sync"

	"dtncache/internal/graph"
	"dtncache/internal/trace"
)

// Builder turns contact-trace prefixes into Snapshots. It holds no
// mutable state of its own — Build is a pure function of (contact
// prefix, build time) — so one Builder may serve concurrent Build calls
// for different times.
//
// The contact list must be sorted by start time (trace.Validate
// guarantees this for raw traces; sim.MergeOverlaps preserves it).
// Whether the list is raw or merged is the caller's choice: scheme.Env
// counts merged contacts (one Handler.ContactStart per merged session),
// while the offline Fig. 4 analysis counts raw contacts, exactly as the
// seed code did.
//
//dtn:shared one Builder serves every scheme and sweep cell
type Builder struct {
	params   Params
	contacts []trace.Contact
}

// NewBuilder creates a builder over the given contact list.
func NewBuilder(p Params, contacts []trace.Contact) *Builder {
	return &Builder{params: p.Normalized(), contacts: contacts}
}

// Params returns the normalized pipeline configuration.
func (b *Builder) Params() Params { return b.params }

// counts accumulates the symmetric pairwise contact counts of every
// contact with Start <= t — the same prefix graph.RateEstimator has
// observed by the refresh event at time t (contact-start events at
// equal virtual time carry lower sequence numbers than maintenance
// ticks, so they fire first).
func (b *Builder) counts(t float64) []int {
	n := b.params.Nodes
	counts := make([]int, n*n)
	// Contacts are sorted by start, so the observed prefix is contiguous.
	end := sort.Search(len(b.contacts), func(i int) bool {
		return b.contacts[i].Start > t
	})
	for _, c := range b.contacts[:end] {
		if c.A == c.B || c.A < 0 || c.B < 0 || int(c.A) >= n || int(c.B) >= n {
			continue
		}
		counts[int(c.A)*n+int(c.B)]++
		counts[int(c.B)*n+int(c.A)]++
	}
	return counts
}

// Build produces the snapshot at time t, computing every source from
// scratch. version is recorded on the snapshot; the Provider passes its
// own monotone counter.
func (b *Builder) Build(t float64, version int) *Snapshot {
	var counts []int
	if t > 0 {
		counts = b.counts(t)
	}
	return b.buildFromCounts(counts, t, version)
}

// scratchPool recycles the layered-DP working arrays across path
// computations. Scratch identity never affects results (PathsInto's
// contract), so pooling is invisible to determinism.
var scratchPool = sync.Pool{New: func() any { return new(graph.PathScratch) }}

// buildFromCounts is Build with the contact counting already done —
// the streaming Provider supplies counts from its online fold instead
// of a materialized contact list. counts may be nil when t <= 0.
//
// The weight matrix is built in two passes so its CSR slabs can be
// sized exactly: pass 1 computes each source's paths, its Eq. (3)
// metric (summing every off-diagonal weight, zeros included, in the
// same order as the dense build — bit-identical by construction), and
// its non-zero count; after a prefix sum sizes the slabs, pass 2 fills
// each row's index-owned range. The second weight evaluation per entry
// is a pure read of the materialized hypoexponentials.
func (b *Builder) buildFromCounts(counts []int, t float64, version int) *Snapshot {
	n := b.params.Nodes
	s := &Snapshot{
		params:   b.params,
		version:  version,
		builtAt:  t,
		contacts: make([]int, n),
		paths:    make([]*graph.Paths, n),
		metrics:  make([]float64, n),
	}
	// The rate arithmetic must match RateEstimator.Snapshot bit-for-bit:
	// count/elapsed with the observation window starting at 0. The
	// contact totals are RateEstimator.NodeContacts over the same counts.
	s.g = graph.NewGraph(n)
	if t > 0 && counts != nil {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if c := counts[i*n+j]; c > 0 {
					s.g.SetRate(trace.NodeID(i), trace.NodeID(j), float64(c)/t)
					s.contacts[i] += c
					s.contacts[j] += c
				}
			}
		}
	}

	rowLen := make([]int32, n)

	// Pass 1: recompute paths, the Eq. (3) metric, and the row's
	// non-zero count, in parallel across index-owned slots. Evaluating
	// the full weight row also materializes every reachable
	// hypoexponential, so the published snapshot is never mutated again.
	forEachSource(n, func(i int) {
		scratch := scratchPool.Get().(*graph.PathScratch)
		p := s.g.PathsInto(trace.NodeID(i), b.params.MaxHops, scratch)
		scratchPool.Put(scratch)
		p.Materialize()
		s.paths[i] = p
		var sum float64
		var nnz int32
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			w := p.Weight(trace.NodeID(j), b.params.MetricT)
			sum += w
			if w != 0 {
				nnz++
			}
		}
		rowLen[i] = nnz
		if n > 1 {
			s.metrics[i] = sum / float64(n-1)
		}
	})

	// Size and fill the CSR slabs.
	s.rowPtr = make([]int32, n+1)
	for i := 0; i < n; i++ {
		s.rowPtr[i+1] = s.rowPtr[i] + rowLen[i]
	}
	nnz := s.rowPtr[n]
	s.cols = make([]int32, nnz)
	s.vals = make([]float64, nnz)

	// Pass 2 — every row fills its own slab range from its materialized
	// paths.
	forEachSource(n, func(i int) {
		lo, hi := s.rowPtr[i], s.rowPtr[i+1]
		if lo == hi {
			return
		}
		p := s.paths[i]
		k := lo
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if w := p.Weight(trace.NodeID(j), b.params.MetricT); w != 0 {
				s.cols[k] = int32(j)
				s.vals[k] = w
				k++
			}
		}
	})
	return s
}
