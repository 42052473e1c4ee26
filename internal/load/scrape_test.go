package load

import (
	"strings"
	"testing"
)

const sampleExposition = `# HELP dmf_http_requests_total Hot-endpoint requests handled.
# TYPE dmf_http_requests_total counter
dmf_http_requests_total{endpoint="GET /predict"} 120
dmf_http_requests_total{endpoint="GET /rank"} 30
# HELP dmf_http_request_seconds Request latency.
# TYPE dmf_http_request_seconds histogram
dmf_http_request_seconds_bucket{endpoint="GET /predict",le="0.00005"} 10
dmf_http_request_seconds_bucket{endpoint="GET /predict",le="+Inf"} 120
dmf_http_request_seconds_sum{endpoint="GET /predict"} 0.25
dmf_http_request_seconds_count{endpoint="GET /predict"} 120
# HELP dmf_serving_ready 1 once serving.
# TYPE dmf_serving_ready gauge
dmf_serving_ready 1
dmf_engine_steps_total 5000
`

func TestParsePrometheus(t *testing.T) {
	m, err := ParsePrometheus(strings.NewReader(sampleExposition))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		`dmf_http_requests_total{endpoint="GET /predict"}`:                   120,
		`dmf_http_request_seconds_sum{endpoint="GET /predict"}`:              0.25,
		`dmf_http_request_seconds_bucket{endpoint="GET /predict",le="+Inf"}`: 120,
		`dmf_serving_ready`:      1,
		`dmf_engine_steps_total`: 5000,
	}
	for id, v := range want {
		if m[id] != v {
			t.Errorf("%s = %v, want %v", id, m[id], v)
		}
	}
	if len(m) != 8 {
		t.Errorf("parsed %d series, want 8: %v", len(m), m)
	}
	if _, err := ParsePrometheus(strings.NewReader("dmf_x notanumber\n")); err == nil {
		t.Error("bad value accepted")
	}
}
