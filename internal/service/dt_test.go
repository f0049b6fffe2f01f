package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mcsm/internal/engine"
)

// TestDtValidation: a step that is not positive is a 400 on every
// analysis endpoint and per batch item, and a step too small for the
// window (more than spice.MaxSteps fixed steps) is a 400 before any model
// is characterized — the server below starts with an empty model cache
// and must still have characterized nothing afterwards.
func TestDtValidation(t *testing.T) {
	s := NewWithEngine(Config{}, engine.New(1, nil))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	cases := []struct{ dt, want string }{
		{"-1p", "dt must be positive"},
		{"0", "dt must be positive"},
		{"1e-18", "more than 1048576"},
		{"1e-30", "more than 1048576"},
	}
	for _, tc := range cases {
		bad := invRequest()
		bad.Dt = tc.dt
		mc := mcRequest()
		mc.STARequest = bad
		for path, req := range map[string]any{
			"/v1/sta":     bad,
			"/v1/session": SessionRequest{STARequest: bad},
			"/v1/mc":      mc,
			"/v1/sweep":   SweepRequest{Grid: "skew=0p;slew=80p;load=2f", Cells: []string{"NAND2"}, Config: "coarse", Dt: tc.dt},
		} {
			resp, body := postJSON(t, ts.URL+path, req)
			var eb errorBody
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &eb) != nil || !strings.Contains(eb.Error, tc.want) {
				t.Errorf("%s with dt %q: status %d: %s", path, tc.dt, resp.StatusCode, body)
			}
		}
		resp, body := postJSON(t, ts.URL+"/v1/sta:batch", BatchSTARequest{Items: []STARequest{bad}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch with dt %q: status %d: %s", tc.dt, resp.StatusCode, body)
		}
		if it := decodeBatchReply(t, body).Items[0]; it.Status != http.StatusBadRequest || !strings.Contains(it.Error, tc.want) {
			t.Errorf("batch item with dt %q: status %d, error %q", tc.dt, it.Status, it.Error)
		}
	}
	if mc := getMetrics(t, ts.URL).ModelCache; mc.Misses != 0 || mc.Characterized != 0 {
		t.Errorf("rejected requests touched the model cache: %d misses, %d characterized", mc.Misses, mc.Characterized)
	}
}
