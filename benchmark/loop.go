package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one keep-alive client connection speaking pre-built HTTP/1.1
// messages. It runs no goroutines of its own, so on a 2-core box the
// client costs the server as little CPU as a client can.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// roundTrip writes one request and reads the whole response. The returned
// body is valid until the next call.
func (c *conn) roundTrip(req []byte) (status int, body []byte, err error) {
	if _, err = c.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	buf := bytes.NewBuffer(c.body[:0])
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	c.body = buf.Bytes()
	return resp.StatusCode, c.body, err
}

// sample is one successful request as its client saw it.
type sample struct {
	kind opKind
	lat  time.Duration
	at   time.Duration // completion, since the phase started
}

// phaseResult is what one client did in one phase.
type phaseResult struct {
	samples    []sample // successful requests only: a failed request has no latency
	attempted  int
	failed     int
	firstErr   string
	busy       time.Duration // time inside roundTrip, summed over clients
	clientTime time.Duration // loop time, summed over clients
	wall       time.Duration // the longest client's loop time
}

// checkFunc decides whether a 200 response answers its request correctly.
type checkFunc func(o op, body []byte) error

// stopFunc ends a client's loop: it sees the requests attempted so far and
// the time the last one completed.
type stopFunc func(attempted int, now time.Time) bool

func stopAt(until time.Time) stopFunc {
	return func(_ int, now time.Time) bool { return !now.Before(until) }
}

func stopAfter(limit int) stopFunc {
	return func(attempted int, _ time.Time) bool { return attempted >= limit }
}

// runClient is one closed-loop client: the next request goes out only when
// the previous response has been read and checked.
func runClient(c *conn, s *stream, check checkFunc, stop stopFunc) phaseResult {
	var r phaseResult
	c.c.SetDeadline(time.Now().Add(10 * time.Minute)) // no phase is longer; a hung server must not hang the run
	start := time.Now()
	now := start
	for !stop(r.attempted, now) {
		o := s.next()
		status, body, ioErr := c.roundTrip(s.request(o))
		done := time.Now()
		r.busy += done.Sub(now)
		r.attempted++
		err := ioErr
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
		}
		if err == nil {
			err = check(o, body)
		}
		if err != nil {
			r.failed++
			if r.firstErr == "" {
				line, _, _ := bytes.Cut(s.request(o), []byte("\r"))
				r.firstErr = fmt.Sprintf("%s: %v", line, err)
			}
		} else {
			r.samples = append(r.samples, sample{kind: o.kind, lat: done.Sub(now), at: done.Sub(start)})
		}
		if ioErr != nil {
			break // the connection is gone; every later request would fail the same way
		}
		if o.kind == opMut {
			s.sent++
		}
		now = time.Now()
	}
	r.wall = time.Since(start)
	r.clientTime = r.wall
	return r
}

// runPhase drives every client's stream for d and merges what they saw.
func runPhase(conns []*conn, streams []*stream, check checkFunc, d time.Duration) phaseResult {
	until := time.Now().Add(d)
	results := make([]phaseResult, len(conns))
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = runClient(conns[i], streams[i], check, stopAt(until))
		}()
	}
	wg.Wait()
	return mergePhases(results)
}

// runCoda measures an op the workload's mix lacks with the machine as busy
// as the window kept it: the last client issues the coda's requests back
// to back while every other client loops over company, a stream of short
// reads. Alone, the coda client's latency followed whether the idle
// processor had parked (mutation p50 176-290 us on ca_serve); behind the
// window's own mix it followed whether a 1 ms /path was in the way (351-547
// us on na_kernel). Only the coda client's requests are reported.
func runCoda(conns []*conn, company, coda *stream, check checkFunc) phaseResult {
	last := len(conns) - 1
	var finished atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < last; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := *company // each client walks its own cursor over the shared requests
			runClient(conns[i], &own, check, func(int, time.Time) bool { return finished.Load() })
		}()
	}
	r := runClient(conns[last], coda, check, stopAfter(len(coda.ops)))
	finished.Store(true)
	wg.Wait()
	return r
}

func mergePhases(results []phaseResult) phaseResult {
	var m phaseResult
	for _, r := range results {
		m.samples = append(m.samples, r.samples...)
		m.attempted += r.attempted
		m.failed += r.failed
		m.busy += r.busy
		m.clientTime += r.clientTime
		m.wall = max(m.wall, r.wall)
		if m.firstErr == "" {
			m.firstErr = r.firstErr
		}
	}
	return m
}

// --- in-line response checks ---

var (
	distKey   = []byte(`"dist":`)
	pathKey   = []byte(`"path":[`)
	okKey     = []byte(`"ok":true`)
	objectKey = []byte(`"object":`)
)

// scanDists calls fn with every "dist" value of a JSON body, in order.
// The query responses carry one per result and nothing else under that
// key, so this replaces a full decode on the client's hot path.
func scanDists(body []byte, fn func(float64) error) error {
	for {
		i := bytes.Index(body, distKey)
		if i < 0 {
			return nil
		}
		body = body[i+len(distKey):]
		v, err := leadingFloat(body)
		if err != nil {
			return err
		}
		if err := fn(v); err != nil {
			return err
		}
	}
}

func leadingFloat(b []byte) (float64, error) {
	end := 0
	for end < len(b) && b[end] != ',' && b[end] != '}' && b[end] != ']' {
		end++
	}
	return strconv.ParseFloat(string(b[:end]), 64)
}

// checker returns the in-line check of a workload: at most K results in
// ascending distance for /knn, ascending distances within the radius for
// /within, a route that starts at the query node for /path, an "ok"
// acknowledgement carrying the predicted object ID for mutations.
func checker(w *workload) checkFunc {
	return func(o op, body []byte) error {
		switch o.kind {
		case opKNN, opWithin:
			n, prev := 0, -1.0
			err := scanDists(body, func(d float64) error {
				n++
				if d < prev {
					return fmt.Errorf("distances not ascending: %v after %v", d, prev)
				}
				if o.kind == opWithin && d > w.Radius {
					return fmt.Errorf("distance %v beyond radius %v", d, w.Radius)
				}
				prev = d
				return nil
			})
			if err == nil && o.kind == opKNN && n > w.K {
				err = fmt.Errorf("%d results for k=%d", n, w.K)
			}
			return err
		case opPath:
			i := bytes.Index(body, pathKey)
			if i < 0 {
				return fmt.Errorf("no path in response")
			}
			first, _ := leadingFloat(body[i+len(pathKey):])
			if int32(first) != o.node {
				return fmt.Errorf("path starts at %v, not at query node %d", first, o.node)
			}
			return nil
		default:
			if !bytes.Contains(body, okKey) {
				return fmt.Errorf("mutation not acknowledged: %s", bytes.TrimSpace(body))
			}
			if o.node >= 0 { // insert-object: the store must assign the ID the stream predicted
				i := bytes.Index(body, objectKey)
				if i < 0 {
					return fmt.Errorf("no object ID in acknowledgement")
				}
				if got, _ := leadingFloat(body[i+len(objectKey):]); int32(got) != o.node {
					return fmt.Errorf("inserted object got ID %v, stream predicted %d", got, o.node)
				}
			}
			return nil
		}
	}
}
