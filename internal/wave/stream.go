package wave

import "sync"

// A Stream is a waveform that a fixed-step solve is still recording. The
// solve publishes each longer prefix of its samples and closes the stream
// with the final waveform (or its error); a reader holds the live view
// Waveform returns and reads it only through At or a Cursor.
//
// A live read is exact. A query at t is answered from a published prefix
// of m samples only when t < T[m−1] strictly, or once the stream is
// closed. The prefix then picks the segment the final waveform would
// pick (the samples before T[m−1] never change) and never the end clamp,
// which may differ in its last bits from interpolating segment m−1 at
// T[m−1]. A reader that catches up blocks until the next publication.
type Stream struct {
	mu      sync.Mutex
	changed sync.Cond // broadcast on every publication and on close
	pub     Waveform  // the last published prefix
	fin     Waveform  // the final waveform once closed
	done    bool
	err     error
	watch   func(Waveform)
}

// NewStream returns an open stream. watch, when not nil, sees every
// published prefix on the publishing goroutine, after readers can.
func NewStream(watch func(prefix Waveform)) *Stream {
	s := &Stream{watch: watch}
	s.changed.L = &s.mu
	return s
}

// Waveform returns the live view of the stream.
func (s *Stream) Waveform() Waveform { return Waveform{live: s} }

// Publish makes prefix, a longer prefix of the final waveform than any
// published before, visible to readers. The samples it covers must not
// change afterwards.
func (s *Stream) Publish(prefix Waveform) {
	s.mu.Lock()
	s.pub = Waveform{T: prefix.T, V: prefix.V}
	s.mu.Unlock()
	s.changed.Broadcast()
	if s.watch != nil {
		s.watch(prefix)
	}
}

// Close ends the stream with the final waveform, or with err when the
// solve failed; readers waiting on it wake. After a failure, reads
// return the last published prefix, clamped, and Final returns err.
func (s *Stream) Close(final Waveform, err error) {
	s.mu.Lock()
	s.fin, s.err, s.done = Waveform{T: final.T, V: final.V}, err, true
	if err != nil {
		s.fin = s.pub
	}
	s.mu.Unlock()
	s.changed.Broadcast()
}

// await blocks until a published prefix covers t or the stream is
// closed, and returns a waveform that answers At(t) as the final one
// would: the covering prefix, still live, or the final waveform.
func (s *Stream) await(t float64) Waveform {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.done && !s.pub.covers(t) {
		s.changed.Wait()
	}
	if s.done {
		return s.fin
	}
	return Waveform{T: s.pub.T, V: s.pub.V, live: s}
}

// covers reports whether a live prefix answers a query at t: t lies
// strictly before its last sample.
func (w Waveform) covers(t float64) bool {
	return len(w.T) > 0 && t < w.T[len(w.T)-1]
}

// Stream returns the stream behind a live view, or nil for an ordinary
// waveform.
func (w Waveform) Stream() *Stream { return w.live }

// Final returns the waveform itself, or for a live view the final
// waveform of its stream, waiting until the stream is closed. The error
// is the stream's.
func (w Waveform) Final() (Waveform, error) {
	s := w.live
	if s == nil {
		return w, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.done {
		s.changed.Wait()
	}
	return s.fin, s.err
}
