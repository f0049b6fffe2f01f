package service

import (
	"bytes"
	"encoding/json"

	"mcsm/internal/engine"
	"mcsm/internal/sta"
)

// The warm-reply layer: the fourth work-sharing tier, above the model
// cache, the netlist LRU, and request coalescing. Where coalescing shares
// a computation between requests that overlap in time, the warm LRU
// shares it across time. A warm hit is a pure function of the analysis
// and the display name, so the LRU retains each completed analysis's
// canonical reply bytes, keyed by the full analysis identity (display
// name excluded), and nothing else: no graph, netlist, plan or waveform.
// A same-name repeat answers the retained bytes; a renamed one splices
// the new name's JSON encoding in where the old one sat — byte-identical
// to the cold run under that name (TestWarmReplyExactness).

// warmReply is one retained analysis: the reply body the cold path
// encoded, the display name it was encoded under, the byte offsets of
// that name's JSON encoding in body, and the workload's default name for
// requests that carry none. body is immutable and shared by every hit.
type warmReply struct {
	body   []byte
	name   string
	enc    int   // length of the name's JSON encoding in body
	sites  []int // offsets of that encoding
	wlName string
}

// marshalReply renders an analysis's canonical reply under name: the
// historical golden report for the csm backend, the attribution-bearing
// backend report for nldm and hybrid.
func marshalReply(name string, nl *sta.Netlist, res *engine.BackendResult) ([]byte, error) {
	if res.Plan.Kind == engine.BackendCSM {
		return sta.MarshalGoldenReport(name, res.Report)
	}
	return engine.MarshalBackendReport(name, nl, res)
}

// The name sites follow from the encoders' field order. Both canonical
// forms open with their "circuit" field (sta.GoldenReport,
// engine.BackendGolden), and a backend report's last field is the golden
// report, whose own "circuit" opens it. Inside a JSON string a newline is
// always escaped, so a newline followed by exactly two spaces of indent
// starts a top-level key: the nested site's prefix occurs nowhere else.
const (
	circuitPrefix = "{\n  \"circuit\": "
	nestedPrefix  = "\n  \"report\": {\n    \"circuit\": "
)

// newWarmReply indexes a canonical reply body encoded under name. It
// reports false when name's encoding does not sit at every derived site,
// and such an entry is not retained.
func newWarmReply(body []byte, name, wlName string, kind engine.BackendKind) (*warmReply, bool) {
	enc, _ := json.Marshal(name) // a string always encodes
	if !bytes.HasPrefix(body, []byte(circuitPrefix)) {
		return nil, false
	}
	sites := []int{len(circuitPrefix)}
	if kind != engine.BackendCSM {
		from := sites[0] + len(enc)
		at := bytes.Index(body[from:], []byte(nestedPrefix))
		if at < 0 {
			return nil, false
		}
		sites = append(sites, from+at+len(nestedPrefix))
	}
	for _, at := range sites {
		if !bytes.HasPrefix(body[at:], enc) {
			return nil, false
		}
	}
	return &warmReply{body: body, name: name, enc: len(enc), sites: sites, wlName: wlName}, true
}

// reply answers the retained analysis under the request's name (the
// workload default when it carries none). The same name returns the
// shared body; another name is spliced into a fresh buffer. json.Marshal
// writes exactly the string encoding MarshalIndent does, HTML escaping
// included.
func (w *warmReply) reply(name string) []byte {
	if name == "" {
		name = w.wlName
	}
	if name == w.name {
		return w.body
	}
	enc, _ := json.Marshal(name) // a string always encodes
	out := make([]byte, 0, len(w.body)+len(w.sites)*(len(enc)-w.enc))
	prev := 0
	for _, at := range w.sites {
		out = append(append(out, w.body[prev:at]...), enc...)
		prev = at + w.enc
	}
	return append(out, w.body[prev:]...)
}

// graphStats snapshots the warm LRU for /metrics (zeros when the layer is
// disabled).
func (s *Server) graphStats() lruStats {
	if s.replies == nil {
		return lruStats{}
	}
	return s.replies.stats()
}

// warmReplyFor looks up the retained reply for a job, when the layer is
// enabled and the job is eligible (untraced).
func (s *Server) warmReplyFor(job *staJob) (*warmReply, bool) {
	if s.replies == nil || job.trace {
		return nil, false
	}
	return s.replies.get(job.graphKey())
}

// retainReply offers a completed analysis's reply, encoded under name, to
// the warm LRU. Raced inserts keep the resident entry.
func (s *Server) retainReply(job *staJob, body []byte, name, wlName string, kind engine.BackendKind) {
	if s.replies == nil || job.trace {
		return
	}
	if wr, ok := newWarmReply(body, name, wlName, kind); ok {
		s.replies.putIfAbsent(job.graphKey(), wr)
	}
}
