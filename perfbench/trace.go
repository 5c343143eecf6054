package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per boundary the traced run observes. The benchmark
// records them from its own wrappers around each layer's public seams;
// the program itself is not instrumented.
const (
	spanBatch     = "producer.batch"  // first POST attempt to final 200
	spanPost      = "producer.post"   // one client round trip
	spanNodePost  = "node.post"       // single-node server handler, ingest
	spanNodeGet   = "node.get"        // single-node server handler, read
	spanCoordPost = "coord.post"      // coordinator handler, ingest
	spanCoordGet  = "coord.get"       // coordinator handler, read
	spanPeerPost  = "peer.post"       // peer handler, forwarded ingest
	spanPeerGet   = "peer.get"        // peer handler, fan-out view
	spanForward   = "cluster.forward" // coordinator→peer POST
	spanFanout    = "cluster.fanout"  // coordinator→peer GET, body included
	spanRead      = "reader.get"      // dashboard conditional GET
	spanWALWrite  = "wal.write"       // one write(2) on a WAL file
	spanWALSync   = "wal.sync"        // one fsync(2) on a WAL file or dir
	spanBarrier   = "stream.barrier"  // Ingester.Snapshot
	spanAnalysis  = "stream.analysis" // Ingester.AnalysisVersioned
	spanEngine    = "engine.run"      // one Analyzer.Analyze pass
	headerRequest = "X-Perfbench-Request"
	headerParent  = "X-Perfbench-Parent"
)

// spanNames fixes the order of the per-name self-time metrics.
var spanNames = []string{
	spanBatch, spanPost, spanNodePost, spanNodeGet, spanCoordPost, spanCoordGet,
	spanPeerPost, spanPeerGet, spanForward, spanFanout, spanRead,
	spanWALWrite, spanWALSync, spanBarrier, spanAnalysis, spanEngine,
}

// span is one timed interval. Spans caused by one producer batch or one
// read share req; parent is the span that caused this one (0 for a
// root). WAL spans run on shard goroutines the request cannot be
// followed into from outside, so they are roots with req 0.
type span struct {
	id, parent, req uint64
	name            string
	start, end      int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced path pays one nil check.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// record stores a finished span.
func (t *tracer) record(id, parent, req uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{id: id, parent: parent, req: req, name: name, start: t.since(start), end: t.since(end)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanCtx carries the active span into code the benchmark calls, so a
// client transport further down can name its parent.
type spanCtx struct{ id, req uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, s spanCtx) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) spanCtx {
	s, _ := ctx.Value(spanKey{}).(spanCtx)
	return s
}

// propagate stamps the request and parent span on an outgoing request.
func propagate(h http.Header, s spanCtx) {
	h.Set(headerRequest, strconv.FormatUint(s.req, 10))
	h.Set(headerParent, strconv.FormatUint(s.id, 10))
}

func incoming(r *http.Request) (req, parent uint64) {
	req, _ = strconv.ParseUint(r.Header.Get(headerRequest), 10, 64)
	parent, _ = strconv.ParseUint(r.Header.Get(headerParent), 10, 64)
	return req, parent
}

// traceHandler wraps a server: each request becomes a span named
// post or get after its method, a child of the client span that sent
// it, and the handler runs with that span in its context.
func traceHandler(t *tracer, post, get string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, parent := incoming(r)
		id := t.newID()
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), spanCtx{id: id, req: req})))
		name := get
		if r.Method == http.MethodPost {
			name = post
		}
		t.record(id, parent, req, name, start, time.Now())
	})
}

// selfTimes sums, per span name, each span's duration minus the part
// of it its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.name] += time.Duration(s.end - s.start - covered(s, children[s.id]))
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, s.start), min(k.end, s.end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.req, s.name, s.start, s.end)
	}
	return bw.Flush()
}
