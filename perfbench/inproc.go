package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"adaptivemm/internal/server"
)

// inproc drives one server's HTTP handler in process: requests go
// straight to ServeHTTP, so the measurement covers routing, decoding,
// the release pipeline and encoding, but no loopback socket.
type inproc struct {
	srv *server.Server
	h   http.Handler
}

func newInproc() (*inproc, error) {
	srv, err := server.Open(server.Options{Logf: func(string, ...any) {}})
	if err != nil {
		return nil, fmt.Errorf("opening server: %w", err)
	}
	return &inproc{srv: srv, h: srv.Handler()}, nil
}

func (c *inproc) close() { _ = c.srv.Close() }

// handlerTally, while on, adds up what the handler calls cost: process
// CPU time, heap allocations and response bytes. The traced run turns it
// on for its whole untraced half and, in its traced half, around each
// handler call only, so the two halves compare handler work alone.
var handlerTally struct {
	on      bool
	cpu     time.Duration
	mallocs uint64
	bytes   int64
}

// do sends one request and returns the status the handler wrote.
func (c *inproc) do(method, path string, body []byte, w responseSink) int {
	r, err := http.NewRequest(method, "http://perfbench"+path, bytes.NewReader(body))
	if err != nil {
		panic(err) // the URL is a constant; only a bug gets here
	}
	w.reset()
	if !handlerTally.on {
		c.h.ServeHTTP(w, r)
		return w.code()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	c0 := cpuTime()
	c.h.ServeHTTP(w, r)
	handlerTally.cpu += cpuTime() - c0
	runtime.ReadMemStats(&ms)
	handlerTally.mallocs += ms.Mallocs - before
	handlerTally.bytes += w.written()
	return w.code()
}

// postJSON sends v as a JSON body and decodes a 200 response into out.
func (c *inproc) postJSON(path string, v, out any) error {
	var w bufSink
	return c.postJSONTo(path, v, out, &w)
}

// postJSONTo is postJSON writing the response into a caller-owned sink.
func (c *inproc) postJSONTo(path string, v, out any, w *bufSink) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if st := c.do(http.MethodPost, path, body, w); st != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, st, bytes.TrimSpace(w.buf))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(w.buf, out); err != nil {
		return fmt.Errorf("POST %s: decoding response: %w", path, err)
	}
	return nil
}

// responseSink is an http.ResponseWriter (and Flusher) the benchmark can
// reuse from request to request.
type responseSink interface {
	http.ResponseWriter
	http.Flusher
	reset()
	code() int
	written() int64
}

// sinkBase holds the header and status half of a responseSink.
type sinkBase struct {
	hdr    http.Header
	status int
	bytes  int64
}

func (s *sinkBase) Header() http.Header {
	if s.hdr == nil {
		s.hdr = http.Header{}
	}
	return s.hdr
}

func (s *sinkBase) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}

func (s *sinkBase) Flush() {}

func (s *sinkBase) code() int { return s.status }

func (s *sinkBase) written() int64 { return s.bytes }

func (s *sinkBase) resetBase() {
	clear(s.hdr)
	s.status = 0
	s.bytes = 0
}

// bufSink keeps the whole body, reusing its buffer across requests.
type bufSink struct {
	sinkBase
	buf []byte
}

func (s *bufSink) Write(p []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	s.buf = append(s.buf, p...)
	s.bytes += int64(len(p))
	return len(p), nil
}

func (s *bufSink) reset() {
	s.resetBase()
	s.buf = s.buf[:0]
}

// lineSink hands each complete NDJSON line to onLine as it arrives and
// keeps nothing else, so a 50 MB stream costs one line buffer.
type lineSink struct {
	sinkBase
	line   []byte
	onLine func(line []byte)
}

func (s *lineSink) Write(p []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	s.bytes += int64(len(p))
	n := len(p)
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			s.line = append(s.line, p...)
			break
		}
		if len(s.line) == 0 {
			s.onLine(p[:i])
		} else {
			s.line = append(s.line, p[:i]...)
			s.onLine(s.line)
			s.line = s.line[:0]
		}
		p = p[i+1:]
	}
	return n, nil
}

func (s *lineSink) reset() {
	s.resetBase()
	s.line = s.line[:0]
}

// countArrays scans body for every JSON array that follows key and
// returns how many arrays it found and whether each held exactly want
// numbers. It counts separators instead of parsing, so a timed request
// can be checked without the check dominating the measurement.
func countArrays(body []byte, key string, want int) (arrays int, ok bool) {
	k := []byte(key)
	ok = true
	for {
		i := bytes.Index(body, k)
		if i < 0 {
			return arrays, ok
		}
		body = body[i+len(k):]
		j := bytes.IndexByte(body, ']')
		if j < 0 {
			return arrays, false
		}
		n := 0
		if j > 0 {
			n = bytes.Count(body[:j], []byte{','}) + 1
		}
		if n != want {
			ok = false
		}
		arrays++
		body = body[j:]
	}
}
