package wave

import (
	"math/bits"
	"sync"
)

// Sample-slice pool. Characterization runs millions of short-lived
// waveforms through measurement code; recycling their T/V backing arrays
// removes the dominant remaining allocation source once the SPICE solver
// itself is allocation-free.
//
// The pool is a set of power-of-two size-class free lists guarded by one
// mutex. A plain LIFO slice of buffers is used instead of sync.Pool: the
// hot path is single-goroutine bursts (one engine, thousands of
// get/release pairs), where sync.Pool's per-P indirection and
// interface-boxing allocation would cost more than the lock, and buffers
// must survive GC cycles mid-characterization.
//
// Ownership is explicit: GetSamples hands the caller a buffer, Release
// (or PutSamples) hands it back. Releasing a waveform whose slices are
// still referenced elsewhere is a use-after-free bug — callers must only
// release waveforms they created from pooled samples and no longer touch.

const (
	poolMinBits = 4  // smallest class: 16 samples
	poolMaxBits = 20 // largest class: 1,048,576 samples; bigger slices are not pooled
)

var samplePool struct {
	mu      sync.Mutex
	classes [poolMaxBits - poolMinBits + 1][][]float64
}

// classFor returns the free-list index for capacity c, or -1 when c is
// outside the pooled range.
func classFor(c int) int {
	if c <= 0 || c > 1<<poolMaxBits {
		return -1
	}
	b := bits.Len(uint(c - 1)) // ceil(log2(c))
	if b < poolMinBits {
		b = poolMinBits
	}
	return b - poolMinBits
}

// GetSamples returns a float64 slice of length n, drawn from the free list
// when one is available. Contents are zeroed. Slices longer than the
// largest size class are allocated fresh.
func GetSamples(n int) []float64 {
	cls := classFor(n)
	if cls < 0 {
		return make([]float64, n)
	}
	samplePool.mu.Lock()
	list := samplePool.classes[cls]
	if len(list) == 0 {
		samplePool.mu.Unlock()
		return make([]float64, n, 1<<(cls+poolMinBits))
	}
	buf := list[len(list)-1]
	samplePool.classes[cls] = list[:len(list)-1]
	samplePool.mu.Unlock()
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// PutSamples returns a slice obtained from GetSamples to the pool. Passing
// a slice the caller still uses elsewhere causes aliasing corruption; nil
// and odd-capacity (non-pooled) slices are dropped silently.
func PutSamples(s []float64) {
	c := cap(s)
	if c < 1<<poolMinBits || c > 1<<poolMaxBits || c&(c-1) != 0 {
		return // not one of ours
	}
	cls := classFor(c)
	samplePool.mu.Lock()
	if len(samplePool.classes[cls]) < 64 { // bound idle memory per class
		samplePool.classes[cls] = append(samplePool.classes[cls], s[:0])
	}
	samplePool.mu.Unlock()
}

// Release returns both sample arrays of a pooled waveform to the free list
// and clears the waveform so a stale re-release is a no-op. Only call it
// on waveforms built from GetSamples buffers; releasing a waveform that
// shares storage with a live one corrupts the live one.
func Release(w *Waveform) {
	if w == nil {
		return
	}
	PutSamples(w.T)
	PutSamples(w.V)
	w.T, w.V = nil, nil
}
