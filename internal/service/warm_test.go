package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"

	"mcsm/internal/engine"
)

// TestWarmGraphBitIdentity: the warm-graph fast path must answer exactly
// the bytes of the cold computation it replaces — for the default csm
// path, for a differently-named request sharing the same analysis, and
// for the plan-bearing hybrid backend report.
func TestWarmGraphBitIdentity(t *testing.T) {
	t.Run("csm", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		_, cold := postJSON(t, ts.URL+"/v1/sta", invRequest())
		m0 := getMetrics(t, ts.URL)
		if m0.GraphCache.Entries != 1 || m0.GraphCache.Hits != 0 {
			t.Fatalf("after cold run: %+v", m0.GraphCache)
		}
		resp, warm := postJSON(t, ts.URL+"/v1/sta", invRequest())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm status %d: %s", resp.StatusCode, warm)
		}
		if !bytes.Equal(cold, warm) {
			t.Errorf("warm reply differs from cold:\ncold: %s\nwarm: %s", cold, warm)
		}
		m1 := getMetrics(t, ts.URL)
		if m1.GraphCache.Hits != 1 {
			t.Errorf("graph cache after warm run: %+v", m1.GraphCache)
		}
		if m1.Backends.CSM != m0.Backends.CSM {
			t.Error("warm hit ran a backend")
		}
	})

	t.Run("renamed request shares the graph", func(t *testing.T) {
		_, warmTS := newTestServer(t, Config{})
		postJSON(t, warmTS.URL+"/v1/sta", invRequest())

		renamed := invRequest()
		renamed.Name = "other-name"
		resp, warm := postJSON(t, warmTS.URL+"/v1/sta", renamed)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm status %d: %s", resp.StatusCode, warm)
		}
		if m := getMetrics(t, warmTS.URL); m.GraphCache.Hits != 1 {
			t.Errorf("renamed request did not warm-hit: %+v", m.GraphCache)
		}

		// The reply must match a cold computation under the new name.
		_, coldTS := newTestServer(t, Config{GraphCap: -1})
		_, cold := postJSON(t, coldTS.URL+"/v1/sta", renamed)
		if !bytes.Equal(cold, warm) {
			t.Errorf("renamed warm reply differs from cold:\ncold: %s\nwarm: %s", cold, warm)
		}
	})

	t.Run("hybrid backend", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		_, cold := postJSON(t, ts.URL+"/v1/sta", c17Request("hybrid"))
		resp, warm := postJSON(t, ts.URL+"/v1/sta", c17Request("hybrid"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm status %d: %s", resp.StatusCode, warm)
		}
		if !bytes.Equal(cold, warm) {
			t.Error("warm hybrid reply differs from cold")
		}
		m := getMetrics(t, ts.URL)
		if m.GraphCache.Hits != 1 {
			t.Errorf("graph cache: %+v", m.GraphCache)
		}
		if m.Backends.Hybrid != 1 {
			t.Errorf("hybrid counter = %d, want 1 (warm hit runs no backend)", m.Backends.Hybrid)
		}
	})

	t.Run("trace bypasses the cache", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		postJSON(t, ts.URL+"/v1/sta", invRequest())
		traced := invRequest()
		traced.Trace = true
		resp, body := postJSON(t, ts.URL+"/v1/sta", traced)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traced status %d: %s", resp.StatusCode, body)
		}
		if m := getMetrics(t, ts.URL); m.GraphCache.Hits != 0 {
			t.Errorf("traced request hit the graph cache: %+v", m.GraphCache)
		}
	})
}

// TestWarmReplyExactness: every warm hit answers exactly the bytes a cold
// server (warm layer disabled) computes for the same request — renamed
// hits on both canonical forms (the backend form carries the name twice),
// names that JSON escaping changes, nameless requests after a named cold
// run and the reverse, and batch items, buffered and streamed.
func TestWarmReplyExactness(t *testing.T) {
	_, coldTS := newTestServer(t, Config{GraphCap: -1})
	cold := func(t *testing.T, req STARequest) []byte {
		t.Helper()
		resp, body := postJSON(t, coldTS.URL+"/v1/sta", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold %q: status %d: %s", req.Name, resp.StatusCode, body)
		}
		return body
	}
	names := []string{"c17", "other-name", "<a&b>", `say "hi"`, `back\slash`, "é", "line\u2028sep", ""}

	for _, backend := range []string{"csm", "nldm", "hybrid"} {
		t.Run(backend, func(t *testing.T) {
			for _, first := range []string{"c17", ""} {
				_, ts := newTestServer(t, Config{})
				base := c17Request(backend)
				base.Name = first
				postJSON(t, ts.URL+"/v1/sta", base)
				for _, name := range names {
					req := base
					req.Name = name
					resp, warm := postJSON(t, ts.URL+"/v1/sta", req)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("warm %q: status %d: %s", name, resp.StatusCode, warm)
					}
					if want := cold(t, req); !bytes.Equal(warm, want) {
						t.Errorf("cold run named %q, warm hit named %q: reply differs\nwarm: %.300s\ncold: %.300s", first, name, warm, want)
					}
				}
				if m := getMetrics(t, ts.URL); m.GraphCache.Hits != int64(len(names)) || m.GraphCache.Entries != 1 {
					t.Errorf("cold run named %q: graph cache %+v, want %d hits on 1 entry", first, m.GraphCache, len(names))
				}
			}
		})
	}

	t.Run("batch", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		postJSON(t, ts.URL+"/v1/sta", c17Request("hybrid"))
		var items []STARequest
		for _, name := range []string{"c17", "<a&b>", ""} {
			req := c17Request("hybrid")
			req.Name = name
			items = append(items, req)
		}
		resp, body := postJSON(t, ts.URL+"/v1/sta:batch", BatchSTARequest{Items: items})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d: %s", resp.StatusCode, body)
		}
		reply := decodeBatchReply(t, body)
		resp, streamed := postJSON(t, ts.URL+"/v1/sta:batch", BatchSTARequest{Items: items, Stream: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("streamed batch status %d: %s", resp.StatusCode, streamed)
		}
		lines := bytes.Split(bytes.TrimSuffix(streamed, []byte{'\n'}), []byte{'\n'})
		if len(reply.Items) != len(items) || len(lines) != len(items) {
			t.Fatalf("%d buffered items and %d stream lines, want %d", len(reply.Items), len(lines), len(items))
		}
		for i, req := range items {
			want := cold(t, req)
			if !bytes.Equal(reportBytes(reply.Items[i]), want) {
				t.Errorf("buffered item %d (%q) differs from the cold reply", i, req.Name)
			}
			var line BatchSTAItem
			if err := json.Unmarshal(lines[i], &line); err != nil {
				t.Fatalf("stream line %d: %v", i, err)
			}
			var pretty bytes.Buffer
			if err := json.Indent(&pretty, line.Report, "", "  "); err != nil {
				t.Fatalf("stream line %d report: %v", i, err)
			}
			if !bytes.Equal(append(pretty.Bytes(), '\n'), want) {
				t.Errorf("streamed item %d (%q) differs from the cold reply", i, req.Name)
			}
		}
		if m := getMetrics(t, ts.URL); m.GraphCache.Hits != int64(2*len(items)) || m.Backends.Hybrid != 1 {
			t.Errorf("batch items were not all warm hits: graph cache %+v, hybrid runs %d", m.GraphCache, m.Backends.Hybrid)
		}
	})
}

// TestWarmReplyConcurrentHits: concurrent same-name and renamed hits on
// one entry (one rename encodes to the retained name's length) each
// answer the cold bytes, and none of them writes into the shared retained
// body.
func TestWarmReplyConcurrentHits(t *testing.T) {
	_, coldTS := newTestServer(t, Config{GraphCap: -1})
	s, ts := newTestServer(t, Config{})
	var reqs []STARequest
	for _, name := range []string{"c17", "c18", "renamed", "<a&b>"} {
		req := c17Request("nldm")
		req.Name = name
		reqs = append(reqs, req)
	}
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		_, want[i] = postJSON(t, coldTS.URL+"/v1/sta", req)
	}
	postJSON(t, ts.URL+"/v1/sta", reqs[0])
	job, err := s.resolveSTA(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	wr, ok := s.warmReplyFor(job)
	if !ok {
		t.Fatal("cold run was not retained")
	}
	retained := bytes.Clone(wr.body)

	var wg sync.WaitGroup
	for c := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 6 {
				i := (c + k) % len(reqs)
				data, _ := json.Marshal(reqs[i])
				resp, err := http.Post(ts.URL+"/v1/sta", "application/json", bytes.NewReader(data))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || !bytes.Equal(body, want[i]) {
					t.Errorf("client %d request %q: reply differs from cold (%v)", c, reqs[i].Name, err)
				}
			}
		}()
	}
	wg.Wait()
	if !bytes.Equal(wr.body, retained) {
		t.Error("concurrent hits changed the retained body")
	}
	// A post that joins an identical in-flight one is answered by the
	// flight group and never reaches the warm lookup.
	if m := getMetrics(t, ts.URL); m.GraphCache.Entries != 1 || m.GraphCache.Hits+m.STACoalesced < 48 {
		t.Errorf("graph cache %+v, %d coalesced, want 1 entry and >= 48 hits plus joins", m.GraphCache, m.STACoalesced)
	}
}

// TestWarmReplyRetainCheck: a body whose name sites do not hold the name
// it claims is not retained.
func TestWarmReplyRetainCheck(t *testing.T) {
	body := []byte("{\n  \"circuit\": \"c17\",\n  \"report\": {\n    \"circuit\": \"c17\"\n  }\n}\n")
	if _, ok := newWarmReply(body, "c17", "circuit", engine.BackendNLDM); !ok {
		t.Fatal("well-formed backend body rejected")
	}
	for _, tc := range []struct {
		name string
		kind engine.BackendKind
		body string
	}{
		{"other name", engine.BackendCSM, "{\n  \"circuit\": \"c18\",\n  \"vdd\": \"1.2\"\n}\n"},
		{"no circuit field", engine.BackendCSM, "{\n  \"vdd\": \"1.2\"\n}\n"},
		{"no nested report", engine.BackendHybrid, "{\n  \"circuit\": \"c17\",\n  \"backend\": \"hybrid\"\n}\n"},
		{"nested name differs", engine.BackendNLDM, "{\n  \"circuit\": \"c17\",\n  \"report\": {\n    \"circuit\": \"c18\"\n  }\n}\n"},
	} {
		if _, ok := newWarmReply([]byte(tc.body), "c17", "circuit", tc.kind); ok {
			t.Errorf("%s: retained", tc.name)
		}
	}
}

// BenchmarkWarmReply times a same-name warm hit through computeSTA: one
// LRU lookup answering the retained body. CI gates it at 0 allocs/op.
func BenchmarkWarmReply(b *testing.B) {
	s := NewWithEngine(Config{}, testEngine())
	defer s.Close()
	job, err := s.resolveSTA(invRequest())
	if err != nil {
		b.Fatal(err)
	}
	cold := s.computeSTA(job)
	if cold.err != nil {
		b.Fatal(cold.err)
	}
	if _, ok := s.warmReplyFor(job); !ok {
		b.Fatal("cold run was not retained")
	}
	b.ReportAllocs()
	for b.Loop() {
		if resp := s.computeSTA(job); len(resp.body) != len(cold.body) {
			b.Fatalf("warm reply is %d bytes, cold %d", len(resp.body), len(cold.body))
		}
	}
}
