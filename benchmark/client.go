package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// askTimeoutMS bounds one ask on the server side; a timed-out ask comes back
// as a 504 and counts as failed.
const askTimeoutMS = 10000

// client is one closed-loop chat client: one kept-alive connection, the next
// request only after the previous response's last byte.
//
// It does not reuse workload.HTTPDriver on purpose: the client is part of the
// instrument, and a later change measured by this benchmark may edit anything
// outside benchmark/ but not this directory. A driver that lives with the
// program could gain a retry, a pool or a decoder under the benchmark and
// move ask_p50_us with no change to the program. It also times to the last
// body byte and treats a degraded answer as an error, which the driver does
// not.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
			DisableCompression: true,
		},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// roundTrip sends one request and reads the whole response, returning the
// body and the time from send to last body byte.
func (c *client) roundTrip(method, path, tenant string, body []byte) ([]byte, http.Header, time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	took := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return nil, nil, 0, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return nil, nil, 0, fmt.Errorf("%s %s: HTTP %d: %.120s", method, path, resp.StatusCode, raw)
	}
	return raw, resp.Header, took, nil
}

// create opens a session and returns its id ("session:N").
func (c *client) create() (string, time.Duration, error) {
	raw, _, took, err := c.roundTrip("POST", "/sessions", "", nil)
	if err != nil {
		return "", 0, err
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &out); err != nil || out.ID == "" {
		return "", 0, fmt.Errorf("POST /sessions: bad body %.80q", raw)
	}
	return out.ID, took, nil
}

// ask posts one utterance and returns the answer and the server's trace id.
func (c *client) ask(session, tenant, text string) (answer, trace string, took time.Duration, err error) {
	body, err := json.Marshal(map[string]any{"text": text, "timeout_ms": askTimeoutMS})
	if err != nil {
		return "", "", 0, err
	}
	raw, hdr, took, err := c.roundTrip("POST", "/sessions/"+strings.TrimPrefix(session, "session:")+"/ask", tenant, body)
	if err != nil {
		return "", "", 0, err
	}
	var out struct {
		Answer   string `json:"answer"`
		Degraded bool   `json:"degraded"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return "", "", 0, fmt.Errorf("ask: bad body %.80q", raw)
	}
	if out.Degraded {
		return "", "", 0, fmt.Errorf("ask: degraded (stale) answer served")
	}
	return out.Answer, hdr.Get("X-Trace-Id"), took, nil
}

// noop is the cheapest request the handler serves (GET /memo): the HTTP
// floor under every ask.
func (c *client) noop() (time.Duration, error) {
	_, _, took, err := c.roundTrip("GET", "/memo", "", nil)
	return took, err
}
