package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		seconds float64
		want    int
	}{
		{-1, 0},
		{0, 0},
		{histMin / 2, 0},
		{math.Nextafter(histMin, 0), 0},
		{histMin, 1},          // lower bound is inclusive
		{bounds[1], 2},        // exact √2 boundary opens bucket 2
		{histMin * 2, 3},      // 2^1 = √2^2
		{histMin * 1024, 21},  // 2^10 = √2^20
		{1e9, numBuckets - 1}, // overflow clamps to the last bucket
		{math.NaN(), numBuckets - 1},
	}
	for _, c := range cases {
		if got := BucketIndex(c.seconds); got != c.want {
			t.Errorf("BucketIndex(%v) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

// bucketUpper returns the exclusive upper bound of bucket i in seconds,
// the oracle of BucketIndex. The overflow bucket reports the table's last
// bound.
func bucketUpper(i int) float64 {
	if i < 0 {
		i = 0
	}
	if i >= numBuckets {
		i = numBuckets - 1
	}
	return bounds[i]
}

func TestBucketIndexUpperConsistency(t *testing.T) {
	// Every finite positive sample must satisfy
	// bucketUpper(i-1) <= s < bucketUpper(i): the two functions share
	// one bound table, so no floating-point disagreement is possible.
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 20000; n++ {
		s := math.Pow(10, -7+8*rng.Float64()) // 1e-7 .. 1e1 seconds
		i := BucketIndex(s)
		if i < numBuckets-1 && s >= bucketUpper(i) {
			t.Fatalf("sample %v >= upper bound %v of its bucket %d", s, bucketUpper(i), i)
		}
		if i > 0 && s < bucketUpper(i-1) {
			t.Fatalf("sample %v < lower bound %v of its bucket %d", s, bucketUpper(i-1), i)
		}
	}
	if got := bucketUpper(-5); got != bounds[0] {
		t.Errorf("bucketUpper(-5) = %v, want clamp to %v", got, bounds[0])
	}
	if got := bucketUpper(numBuckets + 5); got != bounds[numBuckets-1] {
		t.Errorf("bucketUpper(out of range) = %v, want clamp to %v", got, bounds[numBuckets-1])
	}
}

func TestBucketBoundsMonotone(t *testing.T) {
	for i := 1; i < numBuckets; i++ {
		if !(bounds[i] > bounds[i-1]) {
			t.Fatalf("bounds not strictly increasing at %d: %v, %v", i, bounds[i-1], bounds[i])
		}
		ratio := bounds[i] / bounds[i-1]
		if math.Abs(ratio-math.Sqrt2) > 1e-9 {
			t.Fatalf("bucket ratio at %d = %v, want √2", i, ratio)
		}
	}
}

// TestQuantilePropertyVsSort checks the histogram quantile against a
// sort-the-samples reference: Quantile(q) must equal the upper bound
// of the bucket containing the nearest-rank (⌈q·n⌉-th) sample.
func TestQuantilePropertyVsSort(t *testing.T) {
	for _, seed := range []int64{1, 7, 99, 1234} {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		samples := make([]float64, n)
		var h Histogram
		for i := range samples {
			// Mix magnitudes, including sub-histMin and boundary-exact values.
			switch rng.Intn(4) {
			case 0:
				samples[i] = rng.Float64() * histMin
			case 1:
				samples[i] = bounds[rng.Intn(numBuckets)]
			default:
				samples[i] = math.Pow(10, -7+7*rng.Float64())
			}
			h.Observe(samples[i])
		}
		sort.Float64s(samples)
		for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1.0, rng.Float64()} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			if rank > n {
				rank = n
			}
			want := bucketUpper(BucketIndex(samples[rank-1]))
			if got := h.Quantile(q); got != want {
				t.Fatalf("seed %d n %d q %v: Quantile = %v, want %v (rank sample %v)",
					seed, n, q, got, want, samples[rank-1])
			}
		}
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	if s := h.Snapshot(); s.Count != 0 || s.MeanMs != 0 || s.P99Ms != 0 {
		t.Errorf("empty Snapshot = %+v, want zeros", s)
	}
	h.Observe(3e-3)
	want := bucketUpper(BucketIndex(3e-3))
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != want {
			t.Errorf("single-sample Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestSnapshotMean(t *testing.T) {
	var h Histogram
	h.Observe(1e-3)
	h.Observe(3e-3)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("Count = %d", s.Count)
	}
	if math.Abs(s.MeanMs-2.0) > 1e-6 {
		t.Errorf("MeanMs = %v, want 2.0", s.MeanMs)
	}
	if s.P50Ms <= 0 || s.P95Ms < s.P50Ms || s.P99Ms < s.P95Ms {
		t.Errorf("quantiles not ordered: %+v", s)
	}
}

func TestObserveSince(t *testing.T) {
	var h Histogram
	h.ObserveSince(time.Now().Add(-2 * time.Millisecond))
	s := h.Snapshot()
	if s.Count != 1 || s.MeanMs < 1 || s.MeanMs > 50 {
		t.Errorf("ObserveSince snapshot = %+v, want ~2ms", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(math.Pow(10, -6+4*rng.Float64()))
				if i%50 == 0 {
					_ = h.Snapshot()
					_ = h.Quantile(0.95)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("Count = %d, want %d", got, workers*per)
	}
}
