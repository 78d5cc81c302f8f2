package knowledge_test

import (
	"errors"
	"io"
	"testing"

	"dtncache/internal/knowledge"
	"dtncache/internal/sim"
	"dtncache/internal/trace"
)

// compareSnapshots asserts bitwise equality of everything schemes read.
func compareSnapshots(t *testing.T, want, got *knowledge.Snapshot, n int, label string) {
	t.Helper()
	wm, gm := want.Metrics(), got.Metrics()
	for i := range wm {
		if wm[i] != gm[i] {
			t.Fatalf("%s: metric %d = %g, want %g", label, i, gm[i], wm[i])
		}
	}
	for i := 0; i < n; i++ {
		if w, g := want.NodeContacts(trace.NodeID(i)), got.NodeContacts(trace.NodeID(i)); w != g {
			t.Fatalf("%s: NodeContacts(%d) = %d, want %d", label, i, g, w)
		}
	}
	if want.WeightNNZ() != got.WeightNNZ() {
		t.Fatalf("%s: nnz %d, want %d", label, got.WeightNNZ(), want.WeightNNZ())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w := want.MetricWeight(trace.NodeID(i), trace.NodeID(j))
			g := got.MetricWeight(trace.NodeID(i), trace.NodeID(j))
			if w != g {
				t.Fatalf("%s: MetricWeight(%d,%d) = %g, want %g", label, i, j, g, w)
			}
		}
	}
}

// TestStreamProviderMatchesMaterialized: a streaming provider fed the
// raw contact source must produce snapshots bit-identical to a
// materialized provider over the merged contact list, including when a
// rewind forces the source to reopen.
func TestStreamProviderMatchesMaterialized(t *testing.T) {
	tr, err := trace.GeneratePreset(trace.Infocom05, 1)
	if err != nil {
		t.Fatal(err)
	}
	params := knowledge.Params{Nodes: tr.Nodes, MetricT: 86400}

	mat := knowledge.NewProvider(params, sim.MergeOverlaps(tr.Contacts))
	str := knowledge.NewStreamProvider(params, func() (trace.ContactSource, error) {
		return trace.NewSliceSource(tr.Contacts), nil
	})

	// Forward walk, then a rewind to an earlier (uncached on the stream
	// side only via reopen) time, then forward again.
	times := []float64{tr.Duration / 4, tr.Duration / 2, tr.Duration / 3, tr.Duration * 0.9}
	for _, at := range times {
		compareSnapshots(t, mat.At(at), str.At(at), tr.Nodes, "at")
	}
	compareSnapshots(t, mat.Empty(), str.Empty(), tr.Nodes, "empty")
	if err := str.StreamErr(); err != nil {
		t.Fatal(err)
	}
}

// failingSource yields nothing but an error.
type failingSource struct{ err error }

func (f *failingSource) NextContact() (trace.Contact, error) { return trace.Contact{}, f.err }

// TestStreamProviderStickyError: a source error must surface through
// StreamErr and stay sticky.
func TestStreamProviderStickyError(t *testing.T) {
	boom := errors.New("bad stream")
	pr := knowledge.NewStreamProvider(knowledge.Params{Nodes: 4, MetricT: 100},
		func() (trace.ContactSource, error) { return &failingSource{err: boom}, nil })
	_ = pr.At(10)
	if !errors.Is(pr.StreamErr(), boom) {
		t.Fatalf("StreamErr = %v, want %v", pr.StreamErr(), boom)
	}
	_ = pr.At(20)
	if !errors.Is(pr.StreamErr(), boom) {
		t.Fatal("StreamErr not sticky")
	}
}

// TestStreamProviderOpenError: a failing opener is also sticky.
func TestStreamProviderOpenError(t *testing.T) {
	boom := errors.New("cannot open")
	pr := knowledge.NewStreamProvider(knowledge.Params{Nodes: 4, MetricT: 100},
		func() (trace.ContactSource, error) { return nil, boom })
	_ = pr.At(10)
	if !errors.Is(pr.StreamErr(), boom) {
		t.Fatalf("StreamErr = %v, want %v", pr.StreamErr(), boom)
	}
}

// eofSource is an empty source.
type eofSource struct{}

func (eofSource) NextContact() (trace.Contact, error) { return trace.Contact{}, io.EOF }

// TestStreamProviderEmptySource: an empty stream is a valid (edgeless)
// knowledge pipeline, not an error.
func TestStreamProviderEmptySource(t *testing.T) {
	pr := knowledge.NewStreamProvider(knowledge.Params{Nodes: 4, MetricT: 100},
		func() (trace.ContactSource, error) { return eofSource{}, nil })
	s := pr.At(10)
	if err := pr.StreamErr(); err != nil {
		t.Fatal(err)
	}
	if s.WeightNNZ() != 0 {
		t.Fatalf("nnz = %d, want 0", s.WeightNNZ())
	}
}
