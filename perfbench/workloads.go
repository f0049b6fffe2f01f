package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// workload is one closed-loop traffic mix. Its request sequence is a pure
// function of the seed and the request index, so every run with a seed
// sends the same requests in the same order.
type workload interface {
	clients() int
	// period is the length of the sequence's repeating unit; a window
	// ends on a multiple of it.
	period() int
	// classes names the request classes request() tags requests with.
	classes() []string
	// models lists what set-up characterizes.
	models() modelSet
	// warmup sends the set-up requests to a freshly started server.
	warmup(ctx context.Context, e *env) error
	// prepare computes reference data after set-up, outside every timed
	// region, and checks the set-up replies against it (an error wrapping
	// errMismatch). With a tracer it also times the backend planning of
	// the set-up's analyses (engine.plan spans of the set-up).
	prepare(ctx context.Context, e *env, tr *tracer) error
	// request returns request i of the sequence. Safe for concurrent use.
	request(i int) request
	// record checks or keeps reply i as it arrives. Safe for concurrent use.
	record(i int, body []byte) error
	// verify checks the replies to requests [0, n) that record could not
	// check on arrival, and returns the indices that mismatched. It runs
	// after the untraced window; tr is the traced mode's tracer, or nil.
	verify(ctx context.Context, e *env, n int, tr *tracer) (checked int, mismatched []int, err error)
	// replay recomputes request i, just answered in the traced window,
	// through the layers' public functions with a span around each call,
	// and reports whether the result matches the reply.
	replay(ctx context.Context, e *env, i int, tr *tracer) (bool, error)
	// hygiene checks the server counters of a timed window.
	hygiene(w *window) error
}

// errMismatch marks a set-up reply that differs from the direct-engine
// bytes. The run goes on, and is reported incorrect.
var errMismatch = errors.New("reply differs from the direct-engine bytes")

// newWorkload builds a named workload for a seed.
func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "cold-mis":
		return &coldMIS{seed: seed}, nil
	case "warm-mix":
		return newWarmMix(seed)
	case "eco-crit":
		return newEcoCrit(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-mis, warm-mix or eco-crit)", name)
}

// replyHashes keeps a digest of every reply, for verification after the
// window without holding the bodies on the heap.
type replyHashes struct {
	mu sync.Mutex
	h  map[int][sha256.Size]byte
}

func (r *replyHashes) record(i int, body []byte) error {
	sum := sha256.Sum256(body)
	r.mu.Lock()
	if r.h == nil {
		r.h = map[int][sha256.Size]byte{}
	}
	r.h[i] = sum
	r.mu.Unlock()
	return nil
}

func (r *replyHashes) matches(i int, want []byte) bool {
	r.mu.Lock()
	got, ok := r.h[i]
	r.mu.Unlock()
	return ok && got == sha256.Sum256(want)
}

// covered checks that set-up characterized every cell type a sequence can
// reach, as both a CSM model and an NLDM table where the set has tables:
// a type missing here would be characterized inside the timed window.
func covered(types []string, ms modelSet) error {
	for _, t := range types {
		if !slices.Contains(ms.csm, t) || (ms.nldm != nil && !slices.Contains(ms.nldm, t)) {
			return fmt.Errorf("cell type %s is reachable but not characterized in set-up", t)
		}
	}
	return nil
}
