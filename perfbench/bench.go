package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"mcsm/internal/cells"
	"mcsm/internal/cliutil"
	"mcsm/internal/csm"
	"mcsm/internal/engine"
	"mcsm/internal/nldm"
	"mcsm/internal/service"
	"mcsm/internal/sta"
)

// env is one benchmark server: an in-process service.Server with default
// settings behind a real loopback listener, and the HTTP client that
// drives it.
type env struct {
	tech   cells.Tech
	srv    *service.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// startEnv serves h (the server's handler, possibly wrapped in spans) on
// a fresh loopback listener with a client of at most clients connections.
func startEnv(srv *service.Server, h http.Handler, clients int) (*env, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &env{
		tech:   cells.Default130(),
		srv:    srv,
		hs:     &http.Server{Handler: h},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close shuts the listener down and waits for the serve loop to exit; the
// server itself stays up.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.client.CloseIdleConnections()
	return err
}

// closeAll closes the listener and cancels whatever the server still
// computes.
func (e *env) closeAll() {
	_ = e.close() // teardown: the run's result no longer depends on it
	e.srv.Close()
}

// post sends one request and reads the whole reply into buf.
func (e *env) post(ctx context.Context, path string, body []byte, req int, buf *bytes.Buffer) (int, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(reqHeader, strconv.Itoa(req))
	resp, err := e.client.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// postOK is post for set-up requests: anything but 200 is an error.
func (e *env) postOK(ctx context.Context, path string, body []byte) ([]byte, error) {
	var buf bytes.Buffer
	status, err := e.post(ctx, path, body, setupReq, &buf)
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", path, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), nil
}

// modelSet is what a workload's set-up characterizes: every CSM model and
// NLDM table its request sequence can reach.
type modelSet struct {
	config string   // CSM characterization profile (cliutil.CharConfig)
	csm    []string // cell types characterized as CSM models
	nldm   []string // cell types characterized as NLDM tables
}

// characterize fills the server's caches with a model set, one cell per
// task on the engine's worker count, each inside a span.
func (e *env) characterize(ctx context.Context, ms modelSet, tr *tracer) error {
	eng := e.srv.Engine()
	cfg, err := cliutil.CharConfig(ms.config)
	if err != nil {
		return err
	}
	type task struct{ kind, cell string }
	var tasks []task
	for _, c := range ms.csm {
		tasks = append(tasks, task{"engine.characterize", c})
	}
	for _, c := range ms.nldm {
		tasks = append(tasks, task{"nldm.characterize", c})
	}
	errs := make([]error, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < eng.Workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(tasks) || ctx.Err() != nil {
					return
				}
				t := tasks[i]
				sp := tr.begin(t.kind, setupReq, 0)
				if t.kind == "engine.characterize" {
					errs[i] = characterizeCSM(eng, e.tech, t.cell, cfg)
				} else {
					_, errs[i] = eng.NLDMFor(e.tech, &sta.Netlist{Instances: []sta.Instance{{Type: t.cell}}}, nldm.DefaultConfig(e.tech), nil)
				}
				sp.endCell(t.cell)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return errors.Join(errs...)
}

func characterizeCSM(eng *engine.Engine, tech cells.Tech, cell string, cfg csm.Config) error {
	spec, err := cells.Get(cell)
	if err != nil {
		return err
	}
	_, outcome, err := eng.Cache().GetOutcome(tech, spec, engine.KindFor(spec), cfg)
	if err == nil && outcome != engine.OutcomeCharacterized {
		err = fmt.Errorf("characterize %s: served as %s from a cache that should be empty", cell, outcome)
	}
	return err
}

// request is one entry of a workload's request sequence.
type request struct {
	path  string
	body  []byte
	class int // index into the workload's request classes
}

// sample is the client-side record of one request.
type sample struct {
	req        int
	class      int
	start, end time.Time
	failed     bool
}

func (s sample) ms() float64 { return float64(s.end.Sub(s.start)) / 1e6 }

// window is what one timed window measured.
type window struct {
	samples []sample // in sequence order
	elapsed time.Duration
	cpu     time.Duration
	alloc   uint64 // heap bytes allocated
	gcs     uint32
	gcPause time.Duration
	live    uint64 // heap bytes live after a forced GC at the end
	before  service.Metrics
	after   service.Metrics
}

// latencies returns the client latencies of the window in milliseconds.
func (w *window) latencies() []float64 {
	out := make([]float64, len(w.samples))
	for i, s := range w.samples {
		out[i] = s.ms()
	}
	return out
}

// sequencer hands the clients of a window their sequence indices. Once
// the deadline has passed it stops at the next multiple of the workload's
// period, so a window covers whole periods of the sequence (whole blocks
// of the warm mix, whole cycles over the ECO targets): every run weighs
// each request class exactly the same, whatever the seed.
type sequencer struct {
	mu       sync.Mutex
	next     int
	end      int // first index not to send under a request limit, or -1
	period   int
	deadline time.Time
	stopped  bool
}

func (s *sequencer) take() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == s.end || (s.next%s.period == 0 && !time.Now().Before(s.deadline)) {
		s.stopped = true
	}
	if s.stopped {
		return 0, false
	}
	s.next++
	return s.next - 1, true
}

// run drives a closed loop for dur: each of the workload's clients sends
// the next request of the sequence as soon as its previous reply has
// arrived in full. Requests start at sequence index first; limit, when
// positive, caps the number sent. Every reply is checked by the workload
// as it arrives; a non-200 status or a mismatch marks the request failed.
// With a tracer (the traced window), each client also records the round
// trip as a client span and replays the request through the layers
// before sending its next one, so handler and layer spans of a request
// are taken moments apart, under the same host conditions.
func (e *env) run(ctx context.Context, wl workload, first int, dur time.Duration, limit int, tr *tracer) (*window, error) {
	var ms runtime.MemStats
	w := &window{before: e.srv.Snapshot()}
	runtime.ReadMemStats(&ms)
	alloc0, gc0, pause0 := ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	cpu0 := cpuTime()
	start := time.Now()
	seq := &sequencer{next: first, end: -1, period: wl.period(), deadline: start.Add(dur)}
	if limit > 0 {
		seq.end = first + limit
	}
	per := make([][]sample, wl.clients())
	errs := make([]error, wl.clients())
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				i, ok := seq.take()
				if !ok {
					return
				}
				r := wl.request(i)
				s := sample{req: i, class: r.class, start: time.Now()}
				status, err := e.post(ctx, r.path, r.body, i, &buf)
				s.end = time.Now()
				if err != nil {
					errs[c] = fmt.Errorf("request %d: %w", i, err)
					return
				}
				s.failed = status != http.StatusOK || wl.record(i, buf.Bytes()) != nil
				if tr != nil {
					tr.record(span{Req: i, Name: "client"}, s.start, s.end)
					ok, err := wl.replay(ctx, e, i, tr)
					if err != nil {
						errs[c] = fmt.Errorf("replay of request %d: %w", i, err)
						return
					}
					s.failed = s.failed || !ok
				}
				per[c] = append(per[c], s)
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	w.alloc, w.gcs, w.gcPause = ms.TotalAlloc-alloc0, ms.NumGC-gc0, time.Duration(ms.PauseTotalNs-pause0)
	w.after = e.srv.Snapshot()
	// The second collection frees what sync.Pools kept through the first,
	// so the live heap does not depend on what the pools happened to hold.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	// The clients' sample logs grow with the request count, in steps of
	// append's growth factor; they are the benchmark's, not the service's.
	w.live = ms.HeapAlloc
	for _, s := range per {
		w.live -= uint64(cap(s)) * uint64(unsafe.Sizeof(sample{}))
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, s := range per {
		w.samples = append(w.samples, s...)
	}
	slices.SortFunc(w.samples, func(a, b sample) int { return a.req - b.req })
	if len(w.samples) == 0 {
		return nil, fmt.Errorf("no request completed in the window")
	}
	return w, nil
}
