package wave

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// liveQueries are the times a live read is checked at: every sample time,
// every midpoint, a time before the first sample and one past the last.
func liveQueries(w Waveform) []float64 {
	n := len(w.T)
	q := []float64{w.T[0] - 1e-12, w.T[n-1] + 1e-12}
	for i, t := range w.T {
		q = append(q, t)
		if i > 0 {
			q = append(q, (w.T[i-1]+t)/2)
		}
	}
	sort.Float64s(q)
	return q
}

// lattice returns a random waveform whose values sit on a coarse grid,
// so interpolating a segment at its end often differs in its last bits
// from the end sample itself.
func lattice(rng *rand.Rand, n int) Waveform {
	ts, vs := make([]float64, n), make([]float64, n)
	x := 1e-10 * rng.Float64()
	for i := range ts {
		ts[i], vs[i] = x, float64(rng.Intn(13))*0.1
		x += 4e-12 * (0.5 + rng.Float64())
	}
	return MustNew(ts, vs)
}

// TestLiveReadMatchesFinal: while a producer publishes a waveform in
// chunks, At and a Cursor on the live view return, bit for bit, what At
// returns on the final waveform, at every sample time, every midpoint,
// before the first sample and at and after the last one.
func TestLiveReadMatchesFinal(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		final := lattice(rng, 2+rng.Intn(80))
		n, chunk := final.Len(), 1+rng.Intn(17)
		s := NewStream(nil)
		go func() {
			for m := chunk; m < n; m += chunk {
				s.Publish(Waveform{T: final.T[:m:m], V: final.V[:m:m]})
			}
			s.Close(final, nil)
		}()
		live := s.Waveform()
		c := &Cursor{W: live}
		for _, q := range liveQueries(final) {
			want := math.Float64bits(final.At(q))
			if got := math.Float64bits(c.At(q)); got != want {
				t.Fatalf("trial %d: Cursor.At(%g) on the live view = %x, final %x", trial, q, got, want)
			}
			if got := math.Float64bits(live.At(q)); got != want {
				t.Fatalf("trial %d: At(%g) on the live view = %x, final %x", trial, q, got, want)
			}
		}
		got, err := live.Final()
		if err != nil || !sameBits(got, final) {
			t.Fatalf("trial %d: Final = %v, %v", trial, got, err)
		}
	}
}

// TestLivePrefixIsStrict pins the strict prefix rule: a prefix of m
// samples answers only times before T[m−1]. At T[m−1] itself the prefix
// would clamp to V[m−1], while the final waveform interpolates segment
// m−1 there, V[m−2] + 1·(V[m−1]−V[m−2]), which the lattice makes differ.
func TestLivePrefixIsStrict(t *testing.T) {
	final := MustNew([]float64{0, 1e-12, 2e-12, 3e-12}, []float64{0.4, 0.1, 0.5, 0.5})
	if a, b := final.At(1e-12), final.V[1]; a == b {
		t.Fatalf("fixture: interpolation at T[1] equals V[1] (%v); pick other values", a)
	}
	prefix := Waveform{T: final.T[:2:2], V: final.V[:2:2]}
	if prefix.covers(final.T[1]) {
		t.Errorf("a 2-sample prefix answers a query at its last sample")
	}
	if !prefix.covers(final.T[1] - 1e-16) {
		t.Errorf("a 2-sample prefix does not answer a query before its last sample")
	}
	s := NewStream(nil)
	s.Publish(prefix)
	go s.Close(final, nil)
	if got, want := s.Waveform().At(final.T[1]), final.At(final.T[1]); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("live At(T[1]) = %v, final %v", got, want)
	}
}

// TestStreamFailure: a stream closed with an error wakes a blocked
// reader, which reads the published prefix clamped; Final returns the
// error; the watch hook sees every publication.
func TestStreamFailure(t *testing.T) {
	final := lattice(rand.New(rand.NewSource(5)), 40)
	var seen []int
	s := NewStream(func(p Waveform) { seen = append(seen, p.Len()) })
	s.Publish(Waveform{T: final.T[:10], V: final.V[:10]})
	boom := errors.New("producer failed")
	done := make(chan float64)
	go func() { done <- s.Waveform().At(final.T[30]) }()
	s.Close(Waveform{}, boom)
	if got := <-done; got != final.V[9] {
		t.Errorf("read after failure = %v, want the last published sample %v", got, final.V[9])
	}
	if _, err := s.Waveform().Final(); !errors.Is(err, boom) {
		t.Errorf("Final error = %v, want %v", err, boom)
	}
	if w, _ := s.Waveform().Final(); w.Len() != 10 {
		t.Errorf("the failed stream holds %d samples, want the 10 published", w.Len())
	}
	if len(seen) != 1 || seen[0] != 10 {
		t.Errorf("watch saw %v, want one 10-sample prefix", seen)
	}
	if (Waveform{}).Stream() != nil || s.Waveform().Stream() != s {
		t.Errorf("Stream does not return the live view's stream")
	}
}

// TestAtNaN: Waveform.At and Cursor.At read NaN at a NaN time — on an
// ordinary waveform, where the search used to index past the end, and on
// the live view of a stream that is still open, without waiting for it.
func TestAtNaN(t *testing.T) {
	w := MustNew([]float64{0, 1e-12, 2e-12, 3e-12}, []float64{0, 1, 1, 0})
	s := NewStream(nil)
	s.Publish(Waveform{T: w.T[:2:2], V: w.V[:2:2]})
	defer s.Close(w, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, v := range []Waveform{w, s.Waveform()} {
			c := Cursor{W: v}
			if got := v.At(math.NaN()); !math.IsNaN(got) {
				t.Errorf("At(NaN) = %v, want NaN", got)
			}
			if got := c.At(math.NaN()); !math.IsNaN(got) {
				t.Errorf("Cursor.At(NaN) = %v, want NaN", got)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("At(NaN) on a live view waited for its open stream")
	}
}

// TestLiveWholeReadPanics: every method that reads a waveform as a whole
// panics on a live view, whose samples are only a published prefix,
// instead of answering for the prefix; on the view's final waveform each
// answers as usual.
func TestLiveWholeReadPanics(t *testing.T) {
	final := MustNew([]float64{0, 1e-12, 2e-12}, []float64{0, 1, 1})
	s := NewStream(nil)
	s.Publish(Waveform{T: final.T[:2:2], V: final.V[:2:2]})
	s.Close(final, nil)
	reads := map[string]func(w Waveform){
		"Len":        func(w Waveform) { w.Len() },
		"Empty":      func(w Waveform) { w.Empty() },
		"Start":      func(w Waveform) { w.Start() },
		"End":        func(w Waveform) { w.End() },
		"First":      func(w Waveform) { w.First() },
		"Last":       func(w Waveform) { w.Last() },
		"Crossings":  func(w Waveform) { w.Crossings(0.5) },
		"FirstCross": func(w Waveform) { w.FirstCross(0.5) },
		"LastCross":  func(w Waveform) { w.LastCross(0.5) },
		"CrossTime":  func(w Waveform) { w.CrossTime(0.5, true, 0) },
		"Clone":      func(w Waveform) { w.Clone() },
		"Extremum":   func(w Waveform) { w.Extremum(0, 2e-12) },
		"PeakValue":  func(w Waveform) { w.PeakValue(0, 2e-12) },
		"Glitch":     func(w Waveform) { MeasureGlitch(w, 1, 0, 2e-12) },
		"Merge":      func(w Waveform) { Add(final, w) },
		"WriteCSV":   func(w Waveform) { WriteCSV(io.Discard, []string{"w"}, []Waveform{w}) },
	}
	panics := func(read func(Waveform), w Waveform) (p bool) {
		defer func() { p = recover() != nil }()
		read(w)
		return false
	}
	done, err := s.Waveform().Final()
	if err != nil {
		t.Fatal(err)
	}
	for name, read := range reads {
		if !panics(read, s.Waveform()) {
			t.Errorf("%s on a live view did not panic", name)
		}
		if panics(read, done) {
			t.Errorf("%s on the final waveform panicked", name)
		}
	}
	if got := s.Waveform().String(); got != "wave{live}" {
		t.Errorf("String on a live view = %q", got)
	}
}

func sameBits(a, b Waveform) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.T {
		if math.Float64bits(a.T[i]) != math.Float64bits(b.T[i]) || math.Float64bits(a.V[i]) != math.Float64bits(b.V[i]) {
			return false
		}
	}
	return true
}
