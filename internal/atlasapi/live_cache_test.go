package atlasapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/obs"
	"dynaddr/internal/serve"
	"dynaddr/internal/stream"
	"dynaddr/internal/wal"
)

// cacheFixture boots a durable ingester (CheckpointEvery=1 so every
// record completes a checkpoint and rolls the generation), a
// manual-staleness serve tier, and a LiveServer wired through it.
func cacheFixture(t *testing.T, reg *obs.Registry) (*stream.Ingester, *serve.Tier, *LiveServer) {
	t.Helper()
	ing := stream.NewIngester(stream.Config{
		Shards: 2, Pfx2AS: liveStore(t), Analysis: true,
		WALDir: t.TempDir(), Sync: wal.SyncNever, CheckpointEvery: 1,
	})
	t.Cleanup(func() { ing.Close() })
	tier := serve.NewTier(ing, serve.WithMaxStaleness(-1), serve.WithMetrics(reg))
	ls := NewLiveServer(ing, WithServeTier(tier), WithErrorLog(nil))
	return ing, tier, ls
}

func getWithETag(t *testing.T, ls *LiveServer, path, inm string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rec := httptest.NewRecorder()
	ls.ServeHTTP(rec, req)
	return rec
}

var etagRe = regexp.MustCompile(`^"g(\d+)-s(\d+)"$`)

func parseETag(t *testing.T, etag string) (gen, seq uint64) {
	t.Helper()
	m := etagRe.FindStringSubmatch(etag)
	if m == nil {
		t.Fatalf("malformed ETag %q", etag)
	}
	gen, _ = strconv.ParseUint(m[1], 10, 64)
	seq, _ = strconv.ParseUint(m[2], 10, 64)
	return gen, seq
}

// TestConditionalGETMatrix drives the revalidation protocol end to end
// on the cached endpoints: fresh validator → 304, stale validator →
// 200 with the new ETag, no validator → 200, and a checkpoint-generation
// rollover always invalidates.
func TestConditionalGETMatrix(t *testing.T) {
	ing, tier, ls := cacheFixture(t, nil)

	if err := ing.Meta(atlasdata.ProbeMeta{ID: 206, Country: "DE", Version: atlasdata.V3, ConnectedDays: 200}); err != nil {
		t.Fatal(err)
	}
	if err := ing.ConnLog(atlasdata.ConnLogEntry{Probe: 206, Start: liveHour(0), End: liveHour(24), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	if err := ing.ConnLog(atlasdata.ConnLogEntry{Probe: 206, Start: liveHour(25), End: liveHour(49), Family: atlasdata.V4, Addr: ip4.MustParseAddr("10.0.0.2")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tier.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{"/api/v1/live/summary", "/api/v1/live/continents", "/api/v1/live/as/64500"} {
		t.Run(path, func(t *testing.T) {
			// No validator → 200 with a well-formed ETag.
			rec := getWithETag(t, ls, path, "")
			if rec.Code != http.StatusOK {
				t.Fatalf("unconditional GET: %d %s", rec.Code, rec.Body)
			}
			e1 := rec.Header().Get("ETag")
			g1, _ := parseETag(t, e1)
			if g1 == 0 {
				t.Fatalf("generation 0 on a durable ingester with CheckpointEvery=1: %s", e1)
			}
			if cc := rec.Header().Get("Cache-Control"); cc != "no-cache" {
				t.Errorf("Cache-Control = %q, want no-cache", cc)
			}

			// Fresh validator → 304, no body, same ETag.
			rec = getWithETag(t, ls, path, e1)
			if rec.Code != http.StatusNotModified {
				t.Fatalf("fresh If-None-Match: %d, want 304", rec.Code)
			}
			if rec.Body.Len() != 0 {
				t.Errorf("304 carried a body: %q", rec.Body)
			}
			if got := rec.Header().Get("ETag"); got != e1 {
				t.Errorf("304 ETag = %s, want %s", got, e1)
			}

			// Wildcard validator → 304.
			if rec := getWithETag(t, ls, path, "*"); rec.Code != http.StatusNotModified {
				t.Errorf("If-None-Match * : %d, want 304", rec.Code)
			}

			// Garbage validator → 200.
			if rec := getWithETag(t, ls, path, `"bogus"`); rec.Code != http.StatusOK {
				t.Errorf("stale If-None-Match: %d, want 200", rec.Code)
			}

			// Ingest one record: CheckpointEvery=1 rolls the generation, so
			// the old validator must stop matching after a refresh.
			if err := ing.KRoot(atlasdata.KRootRound{Probe: 206, Timestamp: liveHour(30), Sent: 3, Success: 3, LTS: 30}); err != nil {
				t.Fatal(err)
			}
			if _, err := tier.Refresh(context.Background()); err != nil {
				t.Fatal(err)
			}
			rec = getWithETag(t, ls, path, e1)
			if rec.Code != http.StatusOK {
				t.Fatalf("rollover If-None-Match: %d, want 200", rec.Code)
			}
			e2 := rec.Header().Get("ETag")
			g2, s2 := parseETag(t, e2)
			if e2 == e1 {
				t.Fatalf("ETag unchanged across a generation rollover: %s", e1)
			}
			if g2 <= g1 {
				t.Errorf("generation did not advance: g%d then g%d", g1, g2)
			}
			if s2 == 0 {
				t.Error("sequence 0 after ingest")
			}
		})
	}
}

// TestDefaultTierFreshAfterEveryBatch: a LiveServer built without
// WithServeTier reads through a staleness-0 tier, so the first read
// after every accepted batch answers 200 with a new ETag even when it
// revalidates with the previous one.
func TestDefaultTierFreshAfterEveryBatch(t *testing.T) {
	ing := stream.NewIngester(stream.Config{Shards: 2, Pfx2AS: liveStore(t), Analysis: true})
	defer ing.Close()
	ls := NewLiveServer(ing)
	etags := map[string]string{}
	for i := 0; i < 5; i++ {
		batch := fmt.Sprintf("{\"kind\":\"meta\",\"probe\":%d,\"country\":\"DE\",\"version\":3}\n", 300+i)
		req := httptest.NewRequest(http.MethodPost, RouteStreamRecords, strings.NewReader(batch))
		req.Header.Set("Content-Type", ContentTypeNDJSON)
		rec := httptest.NewRecorder()
		ls.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"accepted": 1`) {
			t.Fatalf("batch %d: %d %s", i, rec.Code, rec.Body)
		}
		for _, path := range []string{"/api/v1/live/summary", "/api/v1/live/continents", "/api/v1/live/analysis"} {
			rec := getWithETag(t, ls, path, etags[path])
			if rec.Code != http.StatusOK {
				t.Fatalf("%s after batch %d, revalidating %s: %d, want 200", path, i, etags[path], rec.Code)
			}
			e := rec.Header().Get("ETag")
			if e == etags[path] {
				t.Fatalf("%s after batch %d: ETag %s did not change", path, i, e)
			}
			etags[path] = e
		}
	}
}

// TestConcurrentReadersCoalesce: at staleness 0 concurrent readers
// share barriers — a reader queued behind a refresh that began after it
// arrived takes that refresh's generation — so the tier refreshes fewer
// times than it serves reads.
func TestConcurrentReadersCoalesce(t *testing.T) {
	reg := obs.NewRegistry()
	ing := stream.NewIngester(stream.Config{Shards: 2, Pfx2AS: liveStore(t), Analysis: true})
	defer ing.Close()
	ls := NewLiveServer(ing, WithServeTier(serve.NewTier(ing, serve.WithMaxStaleness(0), serve.WithMetrics(reg))))
	const readers, reads = 32, 20
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < reads; i++ {
				rec := httptest.NewRecorder()
				ls.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/live/summary", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("summary: %d %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	refreshes, _ := gatherValue(t, reg, "serve_refreshes_total")
	if refreshes < 1 || refreshes >= readers*reads {
		t.Errorf("serve_refreshes_total = %v for %d reads, want at least 1 and fewer than the reads", refreshes, readers*reads)
	}
}

// TestConditionalGETCursor checks the cursor endpoint revalidates on
// the owning shard's version even though it never serves from cache.
func TestConditionalGETCursor(t *testing.T) {
	ing, _, ls := cacheFixture(t, nil)
	if err := ing.Meta(atlasdata.ProbeMeta{ID: 206, Country: "DE", Version: atlasdata.V3, ConnectedDays: 200}); err != nil {
		t.Fatal(err)
	}
	rec := getWithETag(t, ls, "/api/v1/live/cursor?probe=206", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("cursor GET: %d %s", rec.Code, rec.Body)
	}
	e1 := rec.Header().Get("ETag")
	if rec = getWithETag(t, ls, "/api/v1/live/cursor?probe=206", e1); rec.Code != http.StatusNotModified {
		t.Fatalf("cursor revalidation: %d, want 304", rec.Code)
	}
	if err := ing.KRoot(atlasdata.KRootRound{Probe: 206, Timestamp: liveHour(1), Sent: 3, Success: 3, LTS: 30}); err != nil {
		t.Fatal(err)
	}
	rec = getWithETag(t, ls, "/api/v1/live/cursor?probe=206", e1)
	if rec.Code != http.StatusOK || rec.Header().Get("ETag") == e1 {
		t.Fatalf("cursor after ingest: %d etag=%s, want 200 with a new etag", rec.Code, rec.Header().Get("ETag"))
	}
}

// TestServeMetricsCount checks the serve tier's hit/miss counters move
// with the request outcomes the CI smoke step asserts on.
func TestServeMetricsCount(t *testing.T) {
	reg := obs.NewRegistry()
	ing, tier, ls := cacheFixture(t, reg)
	if err := ing.Meta(atlasdata.ProbeMeta{ID: 206, Country: "DE", Version: atlasdata.V3, ConnectedDays: 200}); err != nil {
		t.Fatal(err)
	}
	if _, err := tier.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := getWithETag(t, ls, "/api/v1/live/summary", "")
	etag := rec.Header().Get("ETag")
	getWithETag(t, ls, "/api/v1/live/summary", etag)

	var hits, misses float64
	for _, fam := range reg.Gather() {
		for _, s := range fam.Metrics {
			route := ""
			for _, l := range s.Labels {
				if l.Name == "route" {
					route = l.Value
				}
			}
			if route != "summary" {
				continue
			}
			switch fam.Name {
			case "serve_hits_total":
				hits = s.Value
			case "serve_misses_total":
				misses = s.Value
			}
		}
	}
	if hits != 1 || misses != 1 {
		t.Fatalf("summary hits=%v misses=%v, want 1/1", hits, misses)
	}
}

// TestErrorEnvelope pins the error contract: every error body is the
// JSON envelope, and 500s never leak internal error text — it goes to
// the server log instead.
func TestErrorEnvelope(t *testing.T) {
	ing := stream.NewIngester(stream.Config{Shards: 1, Pfx2AS: liveStore(t)})
	defer ing.Close()
	var logged []string
	ls := NewLiveServer(ing, WithErrorLog(func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}))

	// 400: descriptive client-error envelope.
	rec := getWithETag(t, ls, "/api/v1/live/as/banana", "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad asn: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	var env struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("error body is not the JSON envelope: %q", rec.Body)
	}
	if env.Status != http.StatusBadRequest || !strings.Contains(env.Error, "banana") {
		t.Errorf("envelope = %+v", env)
	}

	// 500: generic body, real error only in the log.
	const secret = "dial unix /var/run/shard-007.sock: connection refused"
	rec = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/api/v1/live/summary", nil)
	ls.internalError(rec, req, errors.New(secret))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("internalError status: %d", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "shard-007") {
		t.Fatalf("500 body leaked internal error text: %q", rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error != "internal server error" || env.Status != 500 {
		t.Errorf("500 envelope = %+v (err %v)", env, err)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], secret) {
		t.Errorf("server log = %q, want the real error", logged)
	}

	// 429: admission sheds with the same envelope plus a Retry-After
	// pacing hint.
	shedding := NewLiveServer(ing, WithAdmission(NewAdmission(
		AdmissionConfig{MaxInFlight: 1}, func() float64 { return 1.0 }, nil)))
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, RouteStreamRecords, strings.NewReader(""))
	req.Header.Set("Content-Type", ContentTypeNDJSON)
	shedding.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed POST = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed 429 is missing the Retry-After header")
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Status != http.StatusTooManyRequests || !strings.Contains(env.Error, "overloaded") {
		t.Errorf("shed envelope = %q (err %v)", rec.Body, err)
	}
}

// TestProducerKeepAliveReuse is the body-drain regression: a server
// whose responses are larger than the producer's 512-byte error
// prefix must still see one connection across many flushes. Before the
// drain fix, closing a body with unread bytes killed the connection and
// every flush dialed a new one.
func TestProducerKeepAliveReuse(t *testing.T) {
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A verbose 200: padding pushes the body past the 512-byte
		// prefix the producer reads, leaving unread bytes to drain.
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"accepted\": 1, \"pad\": %q}\n", strings.Repeat("x", 2048))
	}))
	srv.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	p := NewStreamProducer(context.Background(), srv.URL,
		WithHTTPClient(client), WithBatchSize(1))
	for i := 0; i < 5; i++ {
		if err := p.Meta(atlasdata.ProbeMeta{ID: atlasdata.ProbeID(100 + i), Country: "DE", Version: atlasdata.V3}); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("server saw %d connections across 5 flushes, want 1 (keep-alive broken)", got)
	}
}

// TestBatchPoolCap pins the pool admission policy: buffers grown past
// batchPoolFactor× the configured batch limit are dropped instead of
// pinned in the pool forever.
func TestBatchPoolCap(t *testing.T) {
	const max = 1 << 20
	cases := []struct {
		cap  int64
		want bool
	}{
		{0, true},
		{max, true},
		{batchPoolFactor * max, true},
		{batchPoolFactor*max + 1, false},
	}
	for _, c := range cases {
		if got := poolable(c.cap, max); got != c.want {
			t.Errorf("poolable(%d, %d) = %v, want %v", c.cap, max, got, c.want)
		}
	}
}
