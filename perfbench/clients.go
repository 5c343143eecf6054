package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynaddr/internal/wal"
	"dynaddr/internal/wire"
)

// newTransport is one loopback connection: the generator holds at most
// one for the producer and one for the reader (nproc = 2).
func newTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
}

// ackPoint says that by at the generator held acks for cum records.
type ackPoint struct {
	at  time.Time
	cum int64
}

// producerTransport sits under the StreamProducer's client. It sees
// every POST attempt, so it times each batch from its first attempt to
// its final 200 (shed retries included), counts sheds, and keeps the
// ack log read staleness is measured against. Only the producer
// goroutine calls RoundTrip; the ack log is shared with the reader.
type producerTransport struct {
	base http.RoundTripper
	t    *tracer

	body       bytes.Buffer
	first      time.Time
	batchStart time.Time
	batchID    uint64
	posts      int64
	sheds      int64
	okPosts    int64
	okRecords  int64
	ackMS      []float64
	cycles     []cycle
	lastAck    time.Time
	lastCPU    time.Duration

	mu   sync.Mutex
	acks []ackPoint
	cum  int64
}

// cycle is the stretch between two acks as the producer lived it: the
// records the later ack covered, the wall time and the process CPU
// spent since the earlier one (since the first POST for the first).
type cycle struct {
	records int64
	wall    time.Duration
	cpu     time.Duration
}

// frames counts the records of a binary batch from its frame headers.
func frames(b []byte) int64 {
	var n int64
	for len(b) >= wire.FrameHeaderSize {
		length, _ := wire.ParseFrameHeader(b)
		b = b[min(len(b), wire.FrameHeaderSize+int(length)):]
		n++
	}
	return n
}

func (p *producerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var n int64
	if req.GetBody != nil {
		rc, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		p.body.Reset()
		_, err = p.body.ReadFrom(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
		n = frames(p.body.Bytes())
	}
	start := time.Now()
	if p.first.IsZero() {
		p.first, p.lastAck, p.lastCPU = start, start, cpuTime()
	}
	if p.batchStart.IsZero() {
		p.batchStart = start
		p.batchID = p.t.newID()
	}
	postID := p.t.newID()
	if p.t != nil {
		req = req.Clone(req.Context())
		propagate(req.Header, spanCtx{id: postID, req: p.batchID})
	}
	resp, err := p.base.RoundTrip(req)
	end := time.Now()
	p.posts++
	p.t.record(postID, p.batchID, p.batchID, spanPost, start, end)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		p.ack(end, n)
		p.ackMS = append(p.ackMS, ms(end.Sub(p.batchStart)))
		p.t.record(p.batchID, 0, p.batchID, spanBatch, p.batchStart, end)
		p.batchStart = time.Time{}
		p.okPosts++
		p.okRecords += n
		return resp, nil
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		p.sheds++
	}
	// A refused batch may still have had a prefix consumed; that
	// prefix is acked now (the producer trims it), so log it.
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(msg))
	var env struct {
		Accepted int64 `json:"accepted"`
	}
	if json.Unmarshal(msg, &env) == nil && env.Accepted > 0 {
		p.ack(end, min(env.Accepted, n))
	}
	return resp, nil
}

func (p *producerTransport) ack(at time.Time, n int64) {
	cpu := cpuTime()
	p.cycles = append(p.cycles, cycle{records: n, wall: at.Sub(p.lastAck), cpu: cpu - p.lastCPU})
	p.lastAck, p.lastCPU = at, cpu
	p.mu.Lock()
	p.cum += n
	p.acks = append(p.acks, ackPoint{at: at, cum: p.cum})
	p.mu.Unlock()
}

// ackedAt returns when the generator first held acks covering seq
// records, and false when it holds none yet (the answer is newer than
// every ack it has seen).
func (p *producerTransport) ackedAt(seq int64) (time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := sort.Search(len(p.acks), func(i int) bool { return p.acks[i].cum >= seq })
	if i == len(p.acks) {
		return time.Time{}, false
	}
	return p.acks[i].at, true
}

// peerTransport sits under the coordinator's cluster.Config.Client in
// traced runs: each coordinator→peer call becomes a span under the
// coordinator handler that made it, and fan-out response bytes are
// counted as the coordinator reads them.
type peerTransport struct {
	base      http.RoundTripper
	t         *tracer
	viewBytes atomic.Int64
}

func (p *peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanFrom(req.Context())
	id := p.t.newID()
	req = req.Clone(req.Context())
	propagate(req.Header, spanCtx{id: id, req: parent.req})
	start := time.Now()
	resp, err := p.base.RoundTrip(req)
	if err != nil || req.Method == http.MethodPost {
		p.t.record(id, parent.id, parent.req, spanForward, start, time.Now())
		return resp, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &p.viewBytes, done: func() {
		p.t.record(id, parent.id, parent.req, spanFanout, start, time.Now())
	}}
	return resp, nil
}

// countingBody counts the bytes read through it and reports Close once.
type countingBody struct {
	io.ReadCloser
	n    *atomic.Int64
	once sync.Once
	done func()
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// timingFS is the wal.FS the traced durable node runs on: the real
// filesystem, with every write(2) and fsync(2) on a WAL file timed as a
// span and the bytes written counted. Checkpoints do not go through
// wal.FS, so their I/O is not in these numbers.
type timingFS struct {
	wal.FS
	t     *tracer
	bytes atomic.Int64
}

func (f *timingFS) Open(name string) (wal.File, error) {
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

func (f *timingFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

type timingFile struct {
	wal.File
	fs *timingFS
}

func (tf *timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := tf.File.Write(p)
	tf.fs.t.record(tf.fs.t.newID(), 0, 0, spanWALWrite, start, time.Now())
	tf.fs.bytes.Add(int64(n))
	return n, err
}

func (tf *timingFile) Sync() error {
	start := time.Now()
	err := tf.File.Sync()
	tf.fs.t.record(tf.fs.t.newID(), 0, 0, spanWALSync, start, time.Now())
	return err
}

// reader is the dashboard: one connection issuing conditional GETs on
// a fixed open-loop schedule, rotating over routes, each route
// revalidating with its last ETag. Latency runs from when a read was
// due, so a slow read also charges the reads queued behind it.
type reader struct {
	client *http.Client
	base   string
	routes []string
	every  time.Duration
	acks   *producerTransport
	t      *tracer

	start    time.Time
	asn      uint32 // the AS panel's target, 0 until a summary lists one
	failures map[int]int64
	byRoute  map[string]int64 // answered reads by route, every AS under asRoute
	etags    []string
	latMS    []float64
	staleMS  []float64
	reads    int64
	hits     int64
	failed   int64
	bytes    int64
	lateMS   float64 // worst lag of a send behind its due time
}

// run issues reads until stop closes; start is when the first was due.
func (r *reader) run(start time.Time, stop <-chan struct{}) {
	r.start = start
	r.etags = make([]string, len(r.routes))
	r.failures = make(map[int]int64)
	r.byRoute = make(map[string]int64)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * r.every)
		if wait := time.Until(due); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-stop:
				timer.Stop()
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
			r.lateMS = max(r.lateMS, ms(-wait))
		}
		r.get(k%len(r.routes), due)
	}
}

func (r *reader) get(i int, due time.Time) {
	r.reads++
	id := r.t.newID()
	sent := time.Now()
	defer func() { r.t.record(id, 0, id, spanRead, sent, time.Now()) }()
	route, etag := r.routes[i], r.etags[i]
	learning := false
	if route == asRoute {
		// The AS panel drills into an AS the last summary listed; until
		// one is listed it re-reads the summary to learn the list.
		if r.asn == 0 {
			route, etag, learning = summaryRoute, "", true
		} else {
			route += strconv.FormatUint(uint64(r.asn), 10)
		}
	}
	req, err := http.NewRequest(http.MethodGet, r.base+route, nil)
	if err != nil {
		r.fail(0)
		return
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	if r.t != nil {
		propagate(req.Header, spanCtx{id: id, req: id})
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.fail(0)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	r.bytes += int64(len(body))
	if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified) {
		r.fail(resp.StatusCode)
		return
	}
	if resp.StatusCode == http.StatusNotModified {
		r.hits++
	} else if route == summaryRoute {
		r.learnAS(body)
	}
	r.latMS = append(r.latMS, ms(done.Sub(due)))
	if learning {
		r.byRoute[summaryRoute]++
	} else {
		r.byRoute[r.routes[i]]++
		r.etags[i] = resp.Header.Get("ETag")
	}
	if seq, ok := etagSeq(resp.Header.Get("ETag")); ok {
		stale := time.Duration(0)
		if seq == 0 {
			stale = done.Sub(r.start)
		} else if at, ok := r.acks.ackedAt(seq); ok && done.After(at) {
			stale = done.Sub(at)
		}
		r.staleMS = append(r.staleMS, ms(stale))
	}
}

// fail counts a failed read by status (0 for a transport error).
func (r *reader) fail(status int) {
	r.failed++
	r.failures[status]++
}

// learnAS picks the AS panel's target from a summary body: the paper's
// anchor AS when listed, else the first AS listed.
func (r *reader) learnAS(body []byte) {
	var sum struct {
		ASes []uint32 `json:"ases"`
	}
	if json.Unmarshal(body, &sum) != nil || len(sum.ASes) == 0 {
		return
	}
	next := sum.ASes[0]
	for _, asn := range sum.ASes {
		if asn == anchorAS {
			next = asn
		}
	}
	if next != r.asn {
		r.asn = next
		for i, route := range r.routes {
			if route == asRoute {
				r.etags[i] = ""
			}
		}
	}
}

// etagSeq reads the record count from an ETag of the form "g<gen>-s<seq>".
func etagSeq(etag string) (int64, bool) {
	_, s, ok := strings.Cut(strings.Trim(etag, `"`), "-s")
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(s, 10, 64)
	return v, err == nil
}
