package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestCounterMetricsBackendLabels checks the node accounting and the
// dimension-gate decline counter behind passivityd_counter_nodes_total
// and passivityd_counter_declines_total. The node total carries no label:
// the counter has a single kernel.
func TestCounterMetricsBackendLabels(t *testing.T) {
	m := newMetrics()
	m.stage("certificate-stage/contour-counter", time.Millisecond, 3, 120, 0)
	m.stage("certificate-stage/contour-counter", time.Millisecond, 0, 0, 2)
	m.stage("certificate-stage/contour-counter", time.Millisecond, 0, 7, 0)
	if m.nodesTotal != 127 {
		t.Errorf("nodes = %d, want 127", m.nodesTotal)
	}
	if m.declinesTotal != 2 {
		t.Errorf("declines = %d, want 2", m.declinesTotal)
	}
}

// TestWriteJSONEncodeFailure pins the header-ordering contract of
// WriteJSON: a value the encoder rejects (here a bare IEEE infinity) must
// come back as a clean 500 with a decodable error body, not a 200 whose
// body truncated mid-stream.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("error body not decodable: %v (%q)", err, rec.Body.String())
	}
	if resp.Error == "" {
		t.Fatalf("error body carries no message: %q", rec.Body.String())
	}
}
