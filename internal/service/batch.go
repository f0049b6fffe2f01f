package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
)

// POST /v1/sta:batch — many STA analyses per request. The batch path is
// an amortization layer over the single-request machinery, not a second
// implementation of it:
//
//   - Items are resolved individually; a bad item becomes a per-item
//     error entry, never a whole-request failure.
//   - Items with identical resolved jobs (same coalescing key) share one
//     computation inside the batch, and every computation goes through
//     the server's flight group, so sub-jobs also coalesce with
//     concurrent single requests and other batches.
//   - Each computation is exactly computeSTA — warm-reply fast path,
//     netlist LRU, worker-pool slot and all — so every embedded report
//     is byte-identical to what POST /v1/sta answers for the same item,
//     at any worker count (pinned by TestBatchMatchesSingle and the
//     golden fixtures).
//
// The buffered reply is one JSON object with an "items" array whose
// entries embed the canonical report bytes verbatim (sans the trailing
// newline), so clients — and tests — can slice the exact single-request
// body back out of a json.RawMessage. With "stream": true the reply is
// NDJSON in item order, one line per item as its result lands (mirroring
// /v1/mc streaming); a line's report is the same bytes compacted onto
// the line, and because the canonical encoders are MarshalIndent(2-space)
// + newline, json.Indent + '\n' recovers the single-request body exactly
// (pinned by TestBatchStreaming).

// BatchSTARequest is the POST /v1/sta:batch body.
type BatchSTARequest struct {
	// Items are the analyses to run; at most MaxBatchItems of them.
	Items []STARequest `json:"items"`
	// Stream switches the reply to NDJSON: one item entry per line, in
	// item order, flushed as results complete.
	Stream bool `json:"stream,omitempty"`
}

// BatchSTAItem is one entry of the reply: index into the request's items,
// the status the single-request path would have answered, and either the
// verbatim canonical report or the error envelope's message.
type BatchSTAItem struct {
	Index  int             `json:"index"`
	Status int             `json:"status"`
	Report json.RawMessage `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// BatchSTAReply is the buffered reply framing.
type BatchSTAReply struct {
	Items []BatchSTAItem `json:"items"`
}

// MaxBatchItems bounds a single batch request.
const MaxBatchItems = 1024

// batchSlot carries one distinct computation (or one already-final
// per-item resolve error). Duplicate items share a slot; resp is only
// read after done closes.
type batchSlot struct {
	job  *staJob
	resp response
	done chan struct{} // nil: resp is already final (resolve error)
}

// handleSTABatch serves POST /v1/sta:batch.
func (s *Server) handleSTABatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.staBatchRequests.Add(1)
	var req BatchSTARequest
	if err := decodeJSON(r, &req); err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Items) == 0 {
		s.error(w, http.StatusBadRequest, fmt.Errorf("items is required"))
		return
	}
	if len(req.Items) > MaxBatchItems {
		s.error(w, http.StatusBadRequest, fmt.Errorf("batch has %d items (max %d)", len(req.Items), MaxBatchItems))
		return
	}
	s.metrics.staBatchItems.Add(int64(len(req.Items)))

	// Resolve every item up front and group duplicates onto one slot.
	slots := make([]*batchSlot, len(req.Items))
	groups := make(map[string]*batchSlot)
	var distinct []*batchSlot
	for i, item := range req.Items {
		job, err := s.resolveSTA(item)
		if err == nil && job.trace {
			// A trace measures one computation; batch items share them.
			err = fmt.Errorf("trace is not supported in batch items")
		}
		if err != nil {
			slots[i] = &batchSlot{resp: response{err: err}}
			continue
		}
		key := job.key()
		if sl, ok := groups[key]; ok {
			slots[i] = sl
			s.metrics.staBatchDeduped.Add(1)
			continue
		}
		sl := &batchSlot{job: job, done: make(chan struct{})}
		groups[key] = sl
		distinct = append(distinct, sl)
		slots[i] = sl
	}

	// Launch every distinct sub-job; concurrency is bounded by the shared
	// worker pool (computeSTA acquires a slot), so a wide batch queues
	// exactly like a burst of single requests would.
	ctx := r.Context()
	for _, sl := range distinct {
		go func(sl *batchSlot) {
			defer close(sl.done)
			resp, joined := s.flights.do(ctx, sl.job.key(), func() response {
				s.metrics.staComputed.Add(1)
				if s.computeGate != nil {
					s.computeGate(sl.job.key())
				}
				return s.computeSTA(sl.job)
			})
			if joined {
				s.metrics.staCoalesced.Add(1)
			}
			sl.resp = resp
		}(sl)
	}

	if req.Stream {
		s.metrics.staBatchStreamed.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		for i, sl := range slots {
			if sl.done != nil {
				<-sl.done
			}
			if sl.resp.err != nil {
				s.metrics.errors.Add(1)
			}
			// Encode compacts the RawMessage report onto the line, which
			// is what keeps every entry a single NDJSON line.
			enc.Encode(batchItem(i, sl.resp))
			if flusher != nil {
				flusher.Flush()
			}
		}
		return
	}

	for _, sl := range distinct {
		<-sl.done
	}
	var buf bytes.Buffer
	buf.WriteString("{\"items\":[\n")
	for i, sl := range slots {
		if sl.resp.err != nil {
			s.metrics.errors.Add(1)
		}
		if i > 0 {
			buf.WriteString(",\n")
		}
		buf.Write(batchItemEntry(i, sl.resp))
	}
	buf.WriteString("\n]}\n")
	s.reply(w, response{status: http.StatusOK, contentType: "application/json", body: buf.Bytes()})
}

// batchItem assembles one reply entry from a materialized response.
func batchItem(index int, resp response) BatchSTAItem {
	if resp.err != nil {
		return BatchSTAItem{Index: index, Status: statusFor(resp.err), Error: resp.err.Error()}
	}
	return BatchSTAItem{
		Index:  index,
		Status: resp.status,
		Report: json.RawMessage(bytes.TrimSuffix(resp.body, []byte{'\n'})),
	}
}

// batchItemEntry renders one buffered item entry (no trailing newline).
// Success entries embed the single-request body verbatim minus its
// trailing newline — raw bytes, not re-marshaled, so embedded reports
// stay byte-identical to the single-request path.
func batchItemEntry(index int, resp response) []byte {
	var buf bytes.Buffer
	if resp.err != nil {
		msg, _ := json.Marshal(resp.err.Error())
		fmt.Fprintf(&buf, `{"index":%d,"status":%d,"error":%s}`, index, statusFor(resp.err), msg)
		return buf.Bytes()
	}
	fmt.Fprintf(&buf, `{"index":%d,"status":%d,"report":`, index, resp.status)
	buf.Write(bytes.TrimSuffix(resp.body, []byte{'\n'}))
	buf.WriteByte('}')
	return buf.Bytes()
}
