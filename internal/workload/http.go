package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// HTTPDriver replays workload against a live blueprintd over actual HTTP —
// TCP, JSON bodies, X-Tenant headers — instead of in-process method calls,
// so experiments measure the deployed surface (connection handling,
// serialization, the admission governor behind the ask endpoint) and can
// scrape /metrics as their dashboard. It is a plain client: the package
// stays below blueprint in the dependency order.
type HTTPDriver struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// Client is the HTTP client (default: 30s timeout).
	Client *http.Client
}

// NewHTTPDriver creates a driver for a daemon at base.
func NewHTTPDriver(base string) *HTTPDriver {
	return &HTTPDriver{
		Base:   strings.TrimRight(base, "/"),
		Client: &http.Client{Timeout: 30 * time.Second},
	}
}

// AskResult is one HTTP ask's outcome as seen on the wire.
type AskResult struct {
	// Status is the HTTP status code (200 OK, 429 shed, ...).
	Status int
	// TraceID is the X-Trace-Id response header (set on every ask
	// response, sheds included).
	TraceID string
	Answer  string
	// Degraded marks a stale memoized answer served during overload.
	Degraded bool
	StaleFor time.Duration
	// RetryAfter is the advisory backoff on a 429.
	RetryAfter time.Duration
	// Err is the error string from a non-200 body.
	Err string
}

// Shed reports whether the ask was load-shed (HTTP 429).
func (r AskResult) Shed() bool { return r.Status == http.StatusTooManyRequests }

// CreateSession opens a session on the daemon and returns its id.
func (d *HTTPDriver) CreateSession() (string, error) {
	resp, err := d.Client.Post(d.Base+"/sessions", "application/json", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("POST /sessions: HTTP %d", resp.StatusCode)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// Ask posts one ask to a session under a tenant and folds the wire-level
// outcome. A shed (429) is a valid result, not an error; err is reserved
// for transport and protocol failures.
func (d *HTTPDriver) Ask(sessionID, tenant, text string, timeout time.Duration) (AskResult, error) {
	body, _ := json.Marshal(map[string]any{
		"text": text, "timeout_ms": int(timeout / time.Millisecond),
	})
	sid := strings.TrimPrefix(sessionID, "session:")
	req, err := http.NewRequest("POST", d.Base+"/sessions/"+sid+"/ask", bytes.NewReader(body))
	if err != nil {
		return AskResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := d.Client.Do(req)
	if err != nil {
		return AskResult{}, err
	}
	defer resp.Body.Close()
	res := AskResult{Status: resp.StatusCode, TraceID: resp.Header.Get("X-Trace-Id")}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		res.RetryAfter = time.Duration(secs) * time.Second
	}
	var payload struct {
		Answer     string `json:"answer"`
		Degraded   bool   `json:"degraded"`
		StaleForMS int64  `json:"stale_for_ms"`
		Error      string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return res, fmt.Errorf("ask response body: %w", err)
	}
	res.Answer = payload.Answer
	res.Degraded = payload.Degraded
	res.StaleFor = time.Duration(payload.StaleForMS) * time.Millisecond
	res.Err = payload.Error
	return res, nil
}

// ScrapeMetrics fetches GET /metrics and parses the Prometheus text
// exposition into a flat series->value map keyed by the full sample name,
// labels included (`blueprint_slo_burn_rate{kind="tenant",...}`) — the
// experiment's dashboard view of the daemon.
func (d *HTTPDriver) ScrapeMetrics() (map[string]float64, error) {
	resp, err := d.Client.Get(d.Base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return ParsePrometheus(string(raw))
}

// ParsePrometheus parses text exposition format 0.0.4 into series->value.
// Comment lines are skipped; sample lines are `name[{labels}] value` with
// an optional timestamp (dropped).
func ParsePrometheus(text string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The series name may contain spaces inside label values; the value
		// starts after the last space not inside braces — scan from the end.
		sp := -1
		depth := 0
		for i := len(line) - 1; i >= 0; i-- {
			switch line[i] {
			case '}':
				depth++
			case '{':
				depth--
			case ' ':
				if depth == 0 {
					sp = i
				}
			}
			if depth < 0 {
				break
			}
		}
		if sp <= 0 {
			return nil, fmt.Errorf("unparseable sample line %q", line)
		}
		fields := strings.Fields(line[sp+1:])
		if len(fields) < 1 {
			return nil, fmt.Errorf("sample line %q has no value", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("sample line %q: %w", line, err)
		}
		out[line[:sp]] = v
	}
	return out, nil
}
