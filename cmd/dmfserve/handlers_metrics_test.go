package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dmfsgd"
	"dmfsgd/internal/metrics"
)

// Allocation pins for the instrumented hot handlers: per-endpoint
// latency/size histograms and request counters must ride the request
// path for free. The ResponseWriter here is a reusable discard sink —
// httptest.ResponseRecorder allocates a body buffer per request, which
// would drown the signal.

type discardRW struct {
	h http.Header
}

func (d *discardRW) Header() http.Header         { return d.h }
func (d *discardRW) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardRW) WriteHeader(int)             {}

func testSnapshot(t *testing.T) *dmfsgd.Snapshot {
	t.Helper()
	ds := dmfsgd.NewMeridianDataset(60, 7)
	sess, err := dmfsgd.NewSession(ds, dmfsgd.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(context.Background(), 2000); err != nil {
		t.Fatal(err)
	}
	return sess.Snapshot()
}

func TestInstrumentedHandlersZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector; the plain test run pins 0 allocs/op")
	}
	snap := testSnapshot(t)
	load := func(w http.ResponseWriter) (*dmfsgd.Snapshot, bool) { return snap, true }
	w := &discardRW{h: make(http.Header)}

	get := instrument(epPredictGet, handlePredictGet(load))
	rGet := httptest.NewRequest("GET", "/predict?i=1&j=2", nil)
	get(w, rGet) // warm the scratch pool and the Content-Type slot
	if avg := testing.AllocsPerRun(300, func() { get(w, rGet) }); avg != 0 {
		t.Errorf("instrumented GET /predict: %v allocs/op, want 0", avg)
	}

	rank := instrument(epRank, handleRank(load))
	rRank := httptest.NewRequest("GET", "/rank?i=0&candidates=1,2,3,4,5", nil)
	rank(w, rRank)
	if avg := testing.AllocsPerRun(300, func() { rank(w, rRank) }); avg != 0 {
		t.Errorf("instrumented GET /rank: %v allocs/op, want 0", avg)
	}
}

// TestEndpointSeriesExposed: the pre-registered endpoint children show
// up in the exposition with their observations after a request flows
// through the instrumented handlers.
func TestEndpointSeriesExposed(t *testing.T) {
	snap := testSnapshot(t)
	load := func(w http.ResponseWriter) (*dmfsgd.Snapshot, bool) { return snap, true }
	get := instrument(epPredictGet, handlePredictGet(load))
	get(httptest.NewRecorder(), httptest.NewRequest("GET", "/predict?i=3&j=4", nil))

	rec := httptest.NewRecorder()
	metrics.Default().Handler()(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, series := range []string{
		`dmf_http_requests_total{endpoint="GET /predict"}`,
		`dmf_http_request_seconds_count{endpoint="GET /predict"}`,
		`dmf_http_response_bytes_count{endpoint="GET /predict"}`,
		`dmf_http_requests_total{endpoint="GET /rank"}`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("exposition Content-Type = %q", ct)
	}
}
