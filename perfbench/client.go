package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client is the load generator's HTTP side: one keep-alive transport
// with at most two connections per daemon.
type client struct {
	hc    *http.Client
	trace *tracer
}

func newClient(tr *tracer) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
			Timeout:   2 * time.Minute,
		},
		trace: tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call is one timed request: its interval, status, and body sizes.
type call struct {
	start, end time.Time
	status     int
	reqBytes   int
	body       []byte
}

func (c call) dur() time.Duration { return c.end.Sub(c.start) }

// do sends one request and reads the whole response; the call's
// interval covers sending the body through reading the last response
// byte. With tracing on, the interval is recorded as a root span
// named name.
func (c *client) do(name, method, url string, body []byte, rows int) (call, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return call{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	out := call{start: time.Now(), reqBytes: len(body)}
	resp, err := c.hc.Do(req)
	if err != nil {
		return out, err
	}
	out.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	out.end = time.Now()
	out.status = resp.StatusCode
	if err != nil {
		return out, err
	}
	c.trace.add(span{
		Name: name, Start: out.start, End: out.end,
		ReqBytes: int64(len(body)), RespBytes: int64(len(out.body)), Rows: rows, Status: out.status,
	})
	return out, nil
}

// observeResp covers both the daemon's and the router's observe
// acknowledgements.
type observeResp struct {
	Accepted int `json:"accepted"`
	Shed     int `json:"shed"`
	Queued   int `json:"queued"`
}

// observe posts one pre-encoded batch of rows and checks that every
// row was accepted (for the router: routed to its node, not queued or
// shed).
func (c *client) observe(base string, body []byte, rows int) (call, error) {
	cl, err := c.do("client.observe", "POST", base+"/v1/observe", body, rows)
	if err != nil {
		return cl, err
	}
	if cl.status != http.StatusOK {
		return cl, fmt.Errorf("observe: status %d: %s", cl.status, truncate(cl.body))
	}
	var ack observeResp
	if err := json.Unmarshal(cl.body, &ack); err != nil {
		return cl, fmt.Errorf("observe: decoding ack: %w", err)
	}
	if ack.Accepted != rows || ack.Queued != 0 || ack.Shed != 0 {
		return cl, fmt.Errorf("observe: %d of %d rows accepted (%d queued, %d shed)", ack.Accepted, rows, ack.Queued, ack.Shed)
	}
	return cl, nil
}

// hitJSON, resultJSON and epochJSON are the parts of the daemon's
// /v1/query response the benchmark checks.
type hitJSON struct {
	Pattern  []uint16 `json:"pattern"`
	Estimate float64  `json:"estimate"`
}

type resultJSON struct {
	Value float64   `json:"value"`
	Hits  []hitJSON `json:"hits"`
	Error string    `json:"error"`
}

type epochJSON struct {
	Rows       int64 `json:"rows"`
	MergedRows int64 `json:"merged_rows"`
}

type queryResp struct {
	Results []resultJSON `json:"results"`
	Epoch   *epochJSON   `json:"epoch"`
}

// queryBatch posts one query batch.
func (c *client) queryBatch(base string, qs []query) (call, queryResp, error) {
	body, err := json.Marshal(map[string][]query{"queries": qs})
	if err != nil {
		return call{}, queryResp{}, err
	}
	cl, err := c.do("client.query", "POST", base+"/v1/query", body, 0)
	if err != nil {
		return cl, queryResp{}, err
	}
	if cl.status != http.StatusOK {
		return cl, queryResp{}, fmt.Errorf("query: status %d: %s", cl.status, truncate(cl.body))
	}
	var qr queryResp
	if err := json.Unmarshal(cl.body, &qr); err != nil {
		return cl, qr, fmt.Errorf("query: decoding: %w", err)
	}
	if len(qr.Results) != len(qs) {
		return cl, qr, fmt.Errorf("query: %d results for %d queries", len(qr.Results), len(qs))
	}
	return cl, qr, nil
}

// statsResp is the part of /v1/stats the benchmark reads.
type statsResp struct {
	Rows  int64 `json:"rows"`
	Store *struct {
		Checkpoints int `json:"checkpoints"`
	} `json:"store"`
}

// stats reads /v1/stats. On a daemon with the default strict read
// contract this is also a barrier: the epoch it reports covers every
// row accepted before the call, so the shard workers have finished
// them.
func (c *client) stats(base string) (call, statsResp, error) {
	cl, err := c.do("client.stats", "GET", base+"/v1/stats", nil, 0)
	if err != nil {
		return cl, statsResp{}, err
	}
	var st statsResp
	if cl.status != http.StatusOK {
		return cl, st, fmt.Errorf("stats: status %d", cl.status)
	}
	err = json.Unmarshal(cl.body, &st)
	return cl, st, err
}

// summary fetches the merged summary blob.
func (c *client) summary(base string) ([]byte, error) {
	cl, err := c.do("client.summary", "GET", base+"/v1/summary", nil, 0)
	if err != nil {
		return nil, err
	}
	if cl.status != http.StatusOK {
		return nil, fmt.Errorf("summary: status %d", cl.status)
	}
	return cl.body, nil
}

// registerSubspace provisions one subspace (before any row arrives).
func (c *client) registerSubspace(base string, cols []int, kind string) error {
	body, err := json.Marshal(map[string]interface{}{"cols": cols, "summary": kind})
	if err != nil {
		return err
	}
	cl, err := c.do("client.subspaces", "POST", base+"/v1/subspaces", body, 0)
	if err != nil {
		return err
	}
	if cl.status != http.StatusOK {
		return fmt.Errorf("registering %v (%s): status %d: %s", cols, kind, cl.status, truncate(cl.body))
	}
	return nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
