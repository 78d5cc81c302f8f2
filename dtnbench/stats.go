package main

import (
	"fmt"
	"math"
	"sort"
)

// reportable lists the percentiles the benchmark may report, highest
// first. A percentile is supported by n samples only when at least
// minTail samples lie beyond it.
var reportable = []float64{99.9, 99, 95, 90, 50}

const minTail = 10

// supportedPercentile returns the highest reportable percentile that n
// samples support, and false when not even the median is supported.
func supportedPercentile(n int) (float64, bool) {
	for _, p := range reportable {
		if tailCount(n, p) >= minTail {
			return p, true
		}
	}
	return 0, false
}

// tailCount is the number of samples strictly beyond the p-th
// percentile of n samples.
func tailCount(n int, p float64) int { return n - rank(n, p) }

// rank is the 1-based nearest-rank position of the p-th percentile of
// n samples; the epsilon keeps 99.9% of 10000 at 9990 despite rounding.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// supports reports whether n samples support the p-th percentile.
func supports(n int, p float64) bool { return tailCount(n, p) >= minTail }

// percentile returns the nearest-rank p-th percentile of the samples
// (sorted in place). Failed operations are recorded as +Inf so they
// count as missing any latency limit.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// median returns the middle value (mean of the two middle values for
// even counts) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// validName reports whether a metric name fits the charset
// [A-Za-z0-9_.-], starts with a letter or digit and is at most 64 long.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case i > 0 && (c == '_' || c == '.' || c == '-'):
		default:
			return false
		}
	}
	return true
}

// ladderStep is the outcome of one offered rate of the max_qps ladder.
type ladderStep struct {
	Rate      float64 // offered queries per second
	Sent      int     // requests scheduled in the step
	Failed    int     // requests that errored (counted as +Inf latency)
	P99Ms     float64 // query p99 latency from the due time
	MidQueue  int     // requests due but not completed at the step midpoint
	EndQueue  int     // requests due but not completed at the end of the schedule
	Supported bool    // the step had enough samples for p99
}

// backlogGrowing is the backlog rule: a step's queue is growing when
// the requests still outstanding at the end of its schedule exceed
// both the midpoint backlog and a small allowance (1% of the step's
// requests, at least two per connection) for requests in flight.
func backlogGrowing(mid, end, sent, conns int) bool {
	allow := sent / 100
	if allow < 2*conns {
		allow = 2 * conns
	}
	return end > allow && end > mid
}

// passes reports whether a step meets the latency limit with no
// failures and no growing backlog.
func (s ladderStep) passes(limitMs float64, conns int) bool {
	return s.Supported && s.Failed == 0 && s.P99Ms <= limitMs &&
		!backlogGrowing(s.MidQueue, s.EndQueue, s.Sent, conns)
}

// maxQPS returns the highest offered rate that passed on a ladder
// climb. A step that misses is offered once more at the same rate, and
// the climb stops at the second miss in a row, so later steps never
// count. It returns 0 when the first rate misses twice.
func maxQPS(steps []ladderStep, limitMs float64, conns int) float64 {
	best, misses := 0.0, 0
	for i, s := range steps {
		if i > 0 && (s.Rate < steps[i-1].Rate || s.Rate == steps[i-1].Rate && misses != 1) {
			panic(fmt.Sprintf("ladder step %d is neither a higher rate nor the repeat of a miss", i))
		}
		if s.passes(limitMs, conns) {
			best, misses = s.Rate, 0
			continue
		}
		if misses++; misses == 2 {
			break
		}
	}
	return best
}
