package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// client is one closed-loop caller holding one keep-alive connection.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. The returned body
// is valid until the next call.
func (c *client) do(ctx context.Context, base string, r *request) (status int, body []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path(), bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// failure is one request that got a transport error or a non-2xx
// status.
type failure struct {
	path   string
	status int
	detail string
}

func (f failure) String() string {
	if f.status == 0 {
		return fmt.Sprintf("POST %s: %s", f.path, f.detail)
	}
	return fmt.Sprintf("POST %s: HTTP %d: %.200s", f.path, f.status, f.detail)
}

// warmUp sends every warm-up request once, spread over the clients.
func warmUp(ctx context.Context, base string, clients []*client, reqs []*request) error {
	var next atomic.Int64
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				status, body, err := c.do(ctx, base, reqs[i])
				if err != nil || status/100 != 2 {
					errs[ci] = fmt.Errorf("warm-up %s", failure{reqs[i].path(), status, errText(err, body)})
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

func errText(err error, body []byte) string {
	if err != nil {
		return err.Error()
	}
	return string(body)
}

// timed accumulates the closed-loop timed phase over its segments.
type timed struct {
	latMS   []float64     // latencies of the 2xx responses
	elapsed time.Duration // wall time of the segments
	cpuS    float64       // the servers' CPU seconds over the segments
	segP90  []float64     // each segment's own p90, for the report
	// steal and ticks are the machine-wide stolen and total CPU ticks
	// over the segments, for the report.
	steal, ticks uint64
	attempted    int
	failures     []failure
	// kept holds the response bodies of the requests picked for the
	// output check, by client and position.
	kept map[[2]int][]byte
	next []int // each client's next stream position
}

func newTimed(clients int) *timed {
	return &timed{kept: map[[2]int][]byte{}, next: make([]int, clients)}
}

// segment drives every client through its stream for d: each client
// sends its next request only after reading the previous reply, stops
// sending at the end of d, and resumes where it stopped in the next
// segment. A request sent before the end counts in full. The servers'
// CPU time is read before and after.
func (tm *timed) segment(ctx context.Context, t *tier, clients []*client, streams []*stream, d time.Duration, keep map[[2]int]bool) error {
	type local struct {
		lat      []float64
		attempts int
		failures []failure
		kept     map[[2]int][]byte
	}
	locals := make([]local, len(clients))
	cpu0, err := t.cpuSeconds()
	if err != nil {
		return err
	}
	steal0, ticks0 := hostTicks()
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			l := &locals[ci]
			l.kept = map[[2]int][]byte{}
			c, s := clients[ci], streams[ci]
			i := tm.next[ci]
			for ; time.Now().Before(end) && ctx.Err() == nil; i++ {
				r := s.at(i)
				t0 := time.Now()
				status, body, err := c.do(ctx, t.url, r)
				t1 := time.Now()
				l.attempts++
				if err != nil || status/100 != 2 {
					l.failures = append(l.failures, failure{r.path(), status, errText(err, body)})
					continue
				}
				l.lat = append(l.lat, float64(t1.Sub(t0))/float64(time.Millisecond))
				if k := [2]int{ci, i}; keep[k] {
					l.kept[k] = append([]byte(nil), body...)
				}
			}
			tm.next[ci] = i
		}(ci)
	}
	wg.Wait()
	tm.elapsed += time.Since(start)
	steal1, ticks1 := hostTicks()
	tm.steal += steal1 - steal0
	tm.ticks += ticks1 - ticks0
	cpu1, err := t.cpuSeconds()
	if err != nil {
		return err
	}
	tm.cpuS += cpu1 - cpu0
	var seg []float64
	for _, l := range locals {
		seg = append(seg, l.lat...)
		tm.latMS = append(tm.latMS, l.lat...)
		tm.attempted += l.attempts
		tm.failures = append(tm.failures, l.failures...)
		for k, v := range l.kept {
			tm.kept[k] = v
		}
	}
	sort.Float64s(seg)
	tm.segP90 = append(tm.segP90, percentile(seg, 0.90))
	return nil
}

// percentile returns the q-quantile of sorted xs by linear
// interpolation between order statistics.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}
