package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"time"
)

// timingProxy is a reverse proxy the traced run places on one
// process-to-process hop (router → node, router → aggregator,
// aggregator → node). It forwards every request unchanged, records a
// span per request with its body sizes and status, and passes the
// response — status, headers (ETag included), and body — back
// unchanged, so conditional pulls still answer 304.
type timingProxy struct {
	name    string
	backend string
	tr      *http.Transport
	trace   *tracer
	ln      net.Listener
	srv     *http.Server
	done    chan struct{}
}

// startProxy listens on a loopback port and forwards to backend (a
// base URL such as http://127.0.0.1:4000).
func startProxy(name, backend string, tr *tracer) (*timingProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &timingProxy{
		name:    name,
		backend: backend,
		tr:      &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		trace:   tr,
		ln:      ln,
		done:    make(chan struct{}),
	}
	p.srv = &http.Server{Handler: p, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(p.done)
		_ = p.srv.Serve(ln)
	}()
	return p, nil
}

// URL is the address clients use instead of the backend's.
func (p *timingProxy) URL() string { return "http://" + p.ln.Addr().String() }

// close stops the listener and waits for the serve loop to return.
func (p *timingProxy) close() {
	_ = p.srv.Close()
	<-p.done
	p.tr.CloseIdleConnections()
}

func (p *timingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method, p.backend+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	out.Header = r.Header.Clone()
	resp, err := p.tr.RoundTrip(out)
	if err != nil {
		p.trace.add(span{Name: p.name + " " + r.URL.Path, Start: start, End: time.Now(), ReqBytes: int64(len(body)), Status: http.StatusBadGateway})
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, v := range resp.Header {
		w.Header()[k] = v
	}
	w.WriteHeader(resp.StatusCode)
	n, err := io.Copy(w, resp.Body)
	status := resp.StatusCode
	if err != nil && !errors.Is(err, io.EOF) {
		status = http.StatusBadGateway
	}
	p.trace.add(span{
		Name:      p.name + " " + r.URL.Path,
		Start:     start,
		End:       time.Now(),
		ReqBytes:  int64(len(body)),
		RespBytes: n,
		Status:    status,
	})
}
