package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free duration histogram with powers-of-√2
// buckets: bucket 0 holds everything below histMin (1 µs), bucket i
// holds [histMin·√2^(i-1), histMin·√2^i), and the last bucket absorbs
// overflow. 88 buckets span 1 µs to ~2.4 hours, so every bucket upper
// bound stays finite and JSON-safe. The zero value is ready to use.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	total  atomic.Int64
	nanos  atomic.Int64
}

const (
	histMin    = 1e-6 // seconds; floor of bucket 1
	numBuckets = 88
)

// bounds[i] is the exclusive upper bound of bucket i, in seconds.
// BucketIndex binary-searches this same table, so index and bound can
// never disagree through floating-point rounding.
var bounds = func() []float64 {
	b := make([]float64, numBuckets)
	for i := range b {
		b[i] = histMin * math.Pow(2, float64(i)/2)
	}
	return b
}()

// BucketIndex returns the bucket a duration (in seconds) lands in.
// Negative and NaN inputs land in bucket 0 and the overflow bucket
// respectively — both are recorded rather than dropped.
func BucketIndex(seconds float64) int {
	if seconds < bounds[0] {
		return 0
	}
	idx := sort.SearchFloat64s(bounds, seconds)
	if idx < numBuckets && bounds[idx] == seconds {
		idx++ // lower bound is inclusive: exact boundary opens the next bucket
	}
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// Observe records one duration in seconds.
func (h *Histogram) Observe(seconds float64) {
	h.counts[BucketIndex(seconds)].Add(1)
	h.total.Add(1)
	h.nanos.Add(int64(seconds * 1e9))
}

// ObserveSince records the elapsed time since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	return h.total.Load()
}

// Quantile returns the q-quantile as the upper bound (seconds) of the
// bucket holding the nearest-rank sample: for n observations, the
// ⌈q·n⌉-th smallest. It is exact with respect to the bucketing — a
// sort-the-samples reference mapped through the bucket's upper bound
// gives the identical answer. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.total.Load()
	if n <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen int64
	for i := 0; i < numBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			return bounds[i]
		}
	}
	return bounds[numBuckets-1]
}

// HistSnapshot is the JSON form of a histogram: count, mean, and the
// standard latency quantiles, all in milliseconds.
type HistSnapshot struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// Snapshot derives the exported view. Concurrent Observe calls may
// land between field reads; each field is individually consistent.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.total.Load()}
	if s.Count > 0 {
		s.MeanMs = float64(h.nanos.Load()) / float64(s.Count) / 1e6
		s.P50Ms = h.Quantile(0.50) * 1e3
		s.P95Ms = h.Quantile(0.95) * 1e3
		s.P99Ms = h.Quantile(0.99) * 1e3
	}
	return s
}
