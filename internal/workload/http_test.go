package workload

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestParsePrometheus(t *testing.T) {
	text := `# HELP blueprint_asks_total asks
# TYPE blueprint_asks_total counter
blueprint_asks_total 42
blueprint_ask_seconds_bucket{le="+Inf"} 7
blueprint_slo_burn_rate{kind="tenant",name="free tier",window="fast"} 2.5
with_timestamp 1.5 1712000000
`
	got, err := ParsePrometheus(text)
	if err != nil {
		t.Fatal(err)
	}
	if got["blueprint_asks_total"] != 42 {
		t.Fatalf("asks_total = %v", got["blueprint_asks_total"])
	}
	if got[`blueprint_ask_seconds_bucket{le="+Inf"}`] != 7 {
		t.Fatalf("+Inf bucket = %v", got[`blueprint_ask_seconds_bucket{le="+Inf"}`])
	}
	// A label value containing a space must not split the sample.
	if got[`blueprint_slo_burn_rate{kind="tenant",name="free tier",window="fast"}`] != 2.5 {
		t.Fatalf("burn series = %v (keys %v)", got[`blueprint_slo_burn_rate{kind="tenant",name="free tier",window="fast"}`], got)
	}
	// Trailing timestamps are dropped.
	if got["with_timestamp"] != 1.5 {
		t.Fatalf("timestamped sample = %v", got["with_timestamp"])
	}

	if _, err := ParsePrometheus("no_value_here\n"); err == nil {
		t.Fatal("sample line without a value must error")
	}
	if _, err := ParsePrometheus("bad_value abc\n"); err == nil {
		t.Fatal("non-numeric value must error")
	}
	if v, err := ParsePrometheus(`nan_series NaN` + "\n"); err != nil {
		t.Fatal(err)
	} else if !math.IsNaN(v["nan_series"]) {
		t.Fatalf("NaN sample = %v", v["nan_series"])
	}
}

// TestHTTPDriverAgainstStub exercises the driver against a stubbed daemon:
// session creation, a fresh answer, a shed with Retry-After, and a
// degraded answer, all through real request/response cycles.
func TestHTTPDriverAgainstStub(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(map[string]string{"id": "session:abc"})
	})
	mux.HandleFunc("POST /sessions/abc/ask", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Tenant") != "pro" {
			t.Errorf("X-Tenant = %q, want pro", r.Header.Get("X-Tenant"))
		}
		var body struct {
			Text      string `json:"text"`
			TimeoutMS int    `json:"timeout_ms"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			t.Errorf("ask body: %v", err)
		}
		w.Header().Set("X-Trace-Id", "session:abc-1")
		switch body.Text {
		case "shed me":
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]any{
				"error": "overloaded", "retry_after_ms": 2000,
			})
		case "stale ok":
			json.NewEncoder(w).Encode(map[string]any{
				"answer": "old news", "degraded": true, "stale_for_ms": 1500,
			})
		default:
			json.NewEncoder(w).Encode(map[string]any{"answer": "42 jobs"})
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	d := NewHTTPDriver(srv.URL + "/")
	id, err := d.CreateSession()
	if err != nil {
		t.Fatal(err)
	}
	if id != "session:abc" {
		t.Fatalf("session id = %q", id)
	}

	res, err := d.Ask(id, "pro", "how many jobs?", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusOK || res.Degraded || res.Answer != "42 jobs" || res.TraceID != "session:abc-1" {
		t.Fatalf("fresh ask = %+v", res)
	}

	res, err = d.Ask(id, "pro", "shed me", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Shed() || res.RetryAfter != 2*time.Second || res.Err != "overloaded" {
		t.Fatalf("shed ask = %+v", res)
	}

	res, err = d.Ask(id, "pro", "stale ok", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.StaleFor != 1500*time.Millisecond || res.Status != http.StatusOK {
		t.Fatalf("degraded ask = %+v", res)
	}
}
