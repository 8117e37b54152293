package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/serving"
)

// The tracer records spans at every layer boundary of the deployment from
// outside the program: handler wrappers around the API edge (in-flight gate
// and admission), the adsapi server and each shard server; a ReachBackend
// wrapper around the proxy; and a RoundTripper wrapper around the proxy's
// shard RPCs. A request's spans share one record carried in its context, so
// self times subtract exactly the child intervals of the same request.
//
// Only a traced run (--trace 1) installs the probes; an untraced run serves
// through the bare stack.

// shardTimeHeader carries a shard server's handler time, in nanoseconds, back
// to the proxy-side RPC probe (a Server-Timing-style stamp the shard wrapper
// adds before the first response byte).
const shardTimeHeader = "X-Perfbench-Shard-Ns"

type recordKey struct{}

// record collects one API request's layer timings. The backend and RPC
// probes may run concurrently (the proxy scatters RPCs), hence mu.
type record struct {
	mu       sync.Mutex
	api      time.Duration // adsapi.Server handler
	backend  time.Duration // proxy backend calls
	rpcWait  time.Duration // union of RPC intervals inside backend calls
	rpcs     int
	rpcTotal time.Duration // sum of RPC round trips
	shard    time.Duration // sum of shard handler times
	spans    []span        // RPC intervals of the backend call in progress
}

type span struct{ start, end time.Time }

// totals is the sum of committed records.
type totals struct {
	requests int64
	edge     time.Duration
	api      time.Duration
	backend  time.Duration
	rpcWait  time.Duration
	rpcs     int64
	rpcTotal time.Duration
	shard    time.Duration
}

type tracer struct {
	// on gates recording to the measurement window; warm-up traffic and
	// set-up probes are not recorded.
	on atomic.Bool

	mu  sync.Mutex
	sum totals

	shardConns atomic.Int64
}

// edgeHandler wraps the outermost handler (gate, admission, API): it opens
// the request's record and commits it when the response is written.
func (t *tracer) edgeHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		rec := &record{}
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), recordKey{}, rec)))
		edge := time.Since(start)
		rec.mu.Lock()
		t.mu.Lock()
		t.sum.requests++
		t.sum.edge += edge
		t.sum.api += rec.api
		t.sum.backend += rec.backend
		t.sum.rpcWait += rec.rpcWait
		t.sum.rpcs += int64(rec.rpcs)
		t.sum.rpcTotal += rec.rpcTotal
		t.sum.shard += rec.shard
		t.mu.Unlock()
		rec.mu.Unlock()
	})
}

// apiHandler wraps adsapi.Server, inside admission and the gate.
func (t *tracer) apiHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec, _ := r.Context().Value(recordKey{}).(*record)
		if rec == nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		defer func() {
			// adsapi recovers the proxy's typed panics itself; a deferred
			// stamp still records any request that unwinds through here.
			d := time.Since(start)
			rec.mu.Lock()
			rec.api += d
			rec.mu.Unlock()
		}()
		next.ServeHTTP(w, r)
	})
}

// shardHandler wraps a shard server and stamps its handler time on the
// response for the proxy-side RPC probe.
func (t *tracer) shardHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&stampWriter{ResponseWriter: w, start: time.Now()}, r)
	})
}

// stampWriter adds shardTimeHeader just before the status line goes out.
type stampWriter struct {
	http.ResponseWriter
	start   time.Time
	stamped bool
}

func (s *stampWriter) WriteHeader(code int) {
	if !s.stamped {
		s.stamped = true
		s.Header().Set(shardTimeHeader, strconv.FormatInt(int64(time.Since(s.start)), 10))
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *stampWriter) Write(b []byte) (int, error) {
	if !s.stamped {
		s.WriteHeader(http.StatusOK)
	}
	return s.ResponseWriter.Write(b)
}

// tracedBackend is the proxy with its reach queries timed. Embedding keeps
// the proxy's Degraded and HealthStats methods visible to adsapi.
type tracedBackend struct{ *serving.ProxyBackend }

func (b *tracedBackend) DemoShare(ctx context.Context, f population.DemoFilter) float64 {
	return timeCall(ctx, func(ctx context.Context) float64 { return b.ProxyBackend.DemoShare(ctx, f) })
}

func (b *tracedBackend) UnionShare(ctx context.Context, clauses [][]interest.ID) float64 {
	return timeCall(ctx, func(ctx context.Context) float64 { return b.ProxyBackend.UnionShare(ctx, clauses) })
}

func (b *tracedBackend) ConditionalAudience(ctx context.Context, f population.DemoFilter, ids []interest.ID) float64 {
	return timeCall(ctx, func(ctx context.Context) float64 { return b.ProxyBackend.ConditionalAudience(ctx, f, ids) })
}

// timeCall times one backend call and the part of it spent waiting on shard
// RPCs (the union of their intervals: the scatter runs them in parallel).
func timeCall(ctx context.Context, call func(context.Context) float64) float64 {
	rec, _ := ctx.Value(recordKey{}).(*record)
	if rec == nil {
		return call(ctx)
	}
	start := time.Now()
	defer func() {
		d := time.Since(start)
		rec.mu.Lock()
		rec.backend += d
		rec.rpcWait += covered(rec.spans)
		rec.spans = rec.spans[:0]
		rec.mu.Unlock()
	}()
	return call(ctx)
}

// covered is the length of the union of the spans.
func covered(spans []span) time.Duration {
	slices.SortFunc(spans, func(a, b span) int { return a.start.Compare(b.start) })
	var total time.Duration
	var cur span
	for i, s := range spans {
		switch {
		case i == 0:
			cur = s
		case !s.start.After(cur.end):
			if s.end.After(cur.end) {
				cur.end = s.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = s
		}
	}
	if len(spans) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// rpcTransport times the proxy's shard RPCs, from the request going out to
// the response body being closed, and collects the shard's handler stamp.
type rpcTransport struct{ next http.RoundTripper }

func (t rpcTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec, _ := r.Context().Value(recordKey{}).(*record)
	if rec == nil {
		return t.next.RoundTrip(r)
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(r)
	if err != nil {
		rec.addRPC(start, time.Now(), 0)
		return nil, err
	}
	shard, _ := strconv.ParseInt(resp.Header.Get(shardTimeHeader), 10, 64)
	resp.Body = &closeHook{ReadCloser: resp.Body, done: func() {
		rec.addRPC(start, time.Now(), time.Duration(shard))
	}}
	return resp, nil
}

func (r *record) addRPC(start, end time.Time, shard time.Duration) {
	r.mu.Lock()
	r.rpcs++
	r.rpcTotal += end.Sub(start)
	r.shard += shard
	r.spans = append(r.spans, span{start, end})
	r.mu.Unlock()
}

// closeHook runs done once, when the body is closed.
type closeHook struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(c.done)
	return err
}

// installRPCProbe routes http.DefaultTransport — the transport of the proxy's
// default client — through rpcTransport. Health probes carry no request
// record and pass through untimed.
func installRPCProbe() {
	http.DefaultTransport = rpcTransport{next: http.DefaultTransport}
}

// shardListener counts the connections a shard server accepts; on a nil
// tracer it leaves the listener as is.
func (t *tracer) shardListener(ln net.Listener) net.Listener {
	if t == nil {
		return ln
	}
	return &countingListener{Listener: ln, n: &t.shardConns}
}

type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// snapshot returns the committed totals.
func (t *tracer) snapshot() totals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sum
}
