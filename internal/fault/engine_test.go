package fault

import (
	"reflect"
	"testing"

	"dtncache/internal/mathx"
	"dtncache/internal/sim"
	"dtncache/internal/trace"
)

// nopHandler ignores contact lifecycle callbacks.
type nopHandler struct{}

func (nopHandler) ContactStart(*sim.Session) {}
func (nopHandler) ContactEnd(*sim.Session)   {}

// buildFaulted wires a simulator + driver + engine over a small
// three-node trace.
func buildFaulted(t *testing.T, cfg Config, seed int64) (*sim.Simulator, *sim.Driver, *Engine) {
	t.Helper()
	s := sim.New()
	root := mathx.NewRand(seed)
	eng, err := NewEngine(s, 3, cfg, root.Derive)
	if err != nil {
		t.Fatal(err)
	}
	d := sim.NewDriver(s, nopHandler{}, sim.WithFaults(eng))
	eng.Bind(d, nil)
	tr := &trace.Trace{Nodes: 3, Duration: 10000, Contacts: []trace.Contact{
		{A: 0, B: 1, Start: 100, End: 500},
		{A: 1, B: 2, Start: 600, End: 900},
		{A: 0, B: 2, Start: 2000, End: 9000},
	}}
	if err := d.Load(tr); err != nil {
		t.Fatal(err)
	}
	return s, d, eng
}

// churnTimeline runs a churn-only config on a bare simulator and
// returns the (time, node, down) transition sequence.
func churnTimeline(t *testing.T, seed int64) []struct {
	at   float64
	n    trace.NodeID
	down bool
} {
	t.Helper()
	s := sim.New()
	root := mathx.NewRand(seed)
	eng, err := NewEngine(s, 5, Config{
		ChurnMeanUpSec: 300, ChurnMeanDownSec: 100,
	}, root.Derive)
	if err != nil {
		t.Fatal(err)
	}
	var out []struct {
		at   float64
		n    trace.NodeID
		down bool
	}
	eng.OnDown = func(n trace.NodeID, at float64) {
		out = append(out, struct {
			at   float64
			n    trace.NodeID
			down bool
		}{at, n, true})
	}
	eng.OnUp = func(n trace.NodeID, at float64) {
		out = append(out, struct {
			at   float64
			n    trace.NodeID
			down bool
		}{at, n, false})
	}
	s.RunUntil(5000)
	return out
}

func TestChurnDeterministic(t *testing.T) {
	a := churnTimeline(t, 7)
	b := churnTimeline(t, 7)
	if len(a) == 0 {
		t.Fatal("churn produced no transitions in 5000s with mean up 300s")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different churn timelines:\n%v\n%v", a, b)
	}
	if c := churnTimeline(t, 8); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical churn timelines")
	}
}

func TestFailRecoverIdempotentAndVersioned(t *testing.T) {
	s := sim.New()
	root := mathx.NewRand(1)
	eng, err := NewEngine(s, 3, Config{KillProb: 0.5}, root.Derive)
	if err != nil {
		t.Fatal(err)
	}
	v0 := eng.Version()
	eng.Fail(1, 10)
	eng.Fail(1, 11) // no-op
	if !eng.NodeDown(1) || eng.DownCount() != 1 {
		t.Fatalf("down=%v count=%d after Fail", eng.NodeDown(1), eng.DownCount())
	}
	if eng.Version() != v0+1 {
		t.Errorf("version %d after one transition, want %d", eng.Version(), v0+1)
	}
	eng.Recover(1, 20)
	eng.Recover(1, 21) // no-op
	if eng.NodeDown(1) || eng.DownCount() != 0 || eng.Version() != v0+2 {
		t.Errorf("down=%v count=%d version=%d after Recover",
			eng.NodeDown(1), eng.DownCount(), eng.Version())
	}
	crashes, recoveries, _, _ := eng.Stats()
	if crashes != 1 || recoveries != 1 {
		t.Errorf("stats crashes=%d recoveries=%d, want 1, 1", crashes, recoveries)
	}
}

func TestDownNodeContactsSkipped(t *testing.T) {
	s, d, eng := buildFaulted(t, Config{KillProb: 0}, 1)
	// Crash node 2 before its contacts open; recover before the last one.
	_ = s.Schedule(50, func() { eng.Fail(2, s.Now()) })
	_ = s.Schedule(1000, func() { eng.Recover(2, s.Now()) })
	s.Run()
	// Contact (1,2) at 600 is skipped; (0,1) at 100 and (0,2) at 2000 open.
	if got := d.SkippedContacts(); got != 1 {
		t.Errorf("skipped %d contacts, want 1", got)
	}
}

func TestCrashForceClosesSessions(t *testing.T) {
	s, d, eng := buildFaulted(t, Config{}, 1)
	closed := -1
	_ = s.Schedule(200, func() { closed = d.CloseNode(99) }) // no sessions touch 99
	dropped := 0
	_ = s.Schedule(150, func() {
		sess := d.Session(0, 1)
		if sess == nil {
			t.Error("session (0,1) not active at t=150")
			return
		}
		sess.Enqueue(sim.Transfer{From: 0, To: 1, Bits: sim.DefaultBandwidth * 1000, // cannot finish
			OnDropped: func(sim.Time) { dropped++ }})
		eng.Fail(0, s.Now())
	})
	s.Run()
	if dropped != 1 {
		t.Errorf("crash dropped %d queued transfers, want 1", dropped)
	}
	if closed != 0 {
		t.Errorf("CloseNode on uninvolved node closed %d sessions, want 0", closed)
	}
}

func TestTruncationShortensContacts(t *testing.T) {
	s, d, eng := buildFaulted(t, Config{TruncateProb: 1}, 1)
	s.Run()
	_, _, truncated, _ := eng.Stats()
	if truncated != 3 {
		t.Errorf("truncated %d contacts with prob 1, want all 3", truncated)
	}
	if d.SkippedContacts() != 0 {
		t.Errorf("truncation must shorten, not skip: %d skipped", d.SkippedContacts())
	}
}

func TestKillTransfer(t *testing.T) {
	s, d, eng := buildFaulted(t, Config{KillProb: 1}, 1)
	deliveredCb, droppedCb := 0, 0
	_ = s.Schedule(150, func() {
		d.Session(0, 1).Enqueue(sim.Transfer{From: 0, To: 1, Bits: 1000,
			OnDelivered: func(sim.Time) { deliveredCb++ },
			OnDropped:   func(sim.Time) { droppedCb++ }})
	})
	s.Run()
	if deliveredCb != 0 || droppedCb != 1 {
		t.Errorf("KillProb=1: delivered=%d dropped=%d, want 0, 1", deliveredCb, droppedCb)
	}
	_, _, _, killed := eng.Stats()
	if killed != 1 {
		t.Errorf("killed stat %d, want 1", killed)
	}
	if _, dropped, _ := d.Stats(); dropped != 1 {
		t.Errorf("driver dropped stat %d, want 1", dropped)
	}
}

func TestBlackoutWindow(t *testing.T) {
	s := sim.New()
	root := mathx.NewRand(1)
	eng, err := NewEngine(s, 6, Config{
		BlackoutNCLs: 2, BlackoutStartSec: 100, BlackoutEndSec: 200,
	}, root.Derive)
	if err != nil {
		t.Fatal(err)
	}
	eng.RankedNodes = func(k int) []trace.NodeID {
		return []trace.NodeID{3, 1, 4, 0, 2, 5}[:k]
	}
	_ = s.Schedule(150, func() {
		if !eng.NodeDown(3) || !eng.NodeDown(1) {
			t.Errorf("top-2 ranked nodes not down mid-window: 3=%v 1=%v",
				eng.NodeDown(3), eng.NodeDown(1))
		}
		if eng.NodeDown(4) {
			t.Error("rank-3 node down during a 2-NCL blackout")
		}
	})
	s.RunUntil(300)
	if eng.DownCount() != 0 {
		t.Errorf("%d nodes still down after the window", eng.DownCount())
	}
}

func TestBlackoutWithoutRankingIsNoop(t *testing.T) {
	s := sim.New()
	root := mathx.NewRand(1)
	eng, err := NewEngine(s, 4, Config{
		BlackoutNCLs: 2, BlackoutStartSec: 10, BlackoutEndSec: 20,
	}, root.Derive)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(30)
	if eng.DownCount() != 0 {
		t.Error("blackout fired without a RankedNodes source")
	}
}

func TestNewEngineRejectsBadConfig(t *testing.T) {
	s := sim.New()
	root := mathx.NewRand(1)
	if _, err := NewEngine(s, 3, Config{KillProb: 2}, root.Derive); err == nil {
		t.Error("NewEngine accepted an invalid config")
	}
}

// TestProbeArmedIdleZeroAlloc pins the hot-path contract: with an
// engine installed but its probabilistic models disabled (KillProb 0,
// TruncateProb 0, no churn due), the driver's transfer path must stay
// at 0 allocs/op — the probe adds nil-checks and branches, never
// allocation.
//
//dtn:allocfree the measured closure may not allocate
func TestProbeArmedIdleZeroAlloc(t *testing.T) {
	s := sim.New()
	root := mathx.NewRand(1)
	// Churn armed but first event far beyond the measured horizon.
	eng, err := NewEngine(s, 2, Config{
		ChurnMeanUpSec: 1e12, ChurnMeanDownSec: 1, ChurnStartSec: 1e12,
	}, root.Derive)
	if err != nil {
		t.Fatal(err)
	}
	d := sim.NewDriver(s, nopHandler{}, sim.WithFaults(eng))
	eng.Bind(d, nil)
	tr := &trace.Trace{Nodes: 2, Duration: 1e9, Contacts: []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 1e9},
	}}
	if err := d.Load(tr); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(1)
	sess := d.Session(0, 1)
	if sess == nil {
		t.Fatal("session not active")
	}
	tf := sim.Transfer{From: 0, To: 1, Bits: 1000}
	next := 1.0
	// Warm the session queue's backing array.
	sess.Enqueue(tf)
	next += 1
	s.RunUntil(next)
	allocs := testing.AllocsPerRun(200, func() {
		sess.Enqueue(tf)
		next += 1
		s.RunUntil(next)
	})
	if allocs != 0 {
		t.Errorf("transfer with armed-idle fault probe: %.1f allocs/op, want 0", allocs)
	}
}
