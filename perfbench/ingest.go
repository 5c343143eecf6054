package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dynaddr/internal/atlasapi"
	"dynaddr/internal/backoff"
	"dynaddr/internal/obs"
	"dynaddr/internal/serve"
	"dynaddr/internal/sim"
	"dynaddr/internal/stream"
	"dynaddr/internal/wal"
)

// ingestWorkload is one traffic mix through the live system.
type ingestWorkload struct {
	durable bool               // WAL at atlasd's defaults
	cluster bool               // coordinator over 3 peers
	reads   bool               // dashboard reader beside the producer
	order   func(*world) []ref // feed order
	// warm starts every round on a node recovered from a WAL that holds
	// the feed's first half, and replays from there; README.md gives
	// the measurement behind it.
	warm bool
	// roundRecords is the part of the feed one round replays; README.md
	// gives the measurement behind each size.
	roundRecords int
	// waitCap caps every wait the producer makes: its backoff, the
	// Retry-After hints it honours and its breaker cooldown. It is about
	// the time the node takes to drain a shed batch's worth of queue;
	// README.md says why.
	waitCap time.Duration
	// rate paces the producer open loop at this many records per second;
	// 0 is a closed loop. README.md says why the dashboards are paced.
	rate float64
	why  string // one line for the run's header
}

var ingestWorkloads = map[string]ingestWorkload{
	"backfill-durable": {
		durable:      true,
		warm:         true,
		order:        (*world).probeOrder,
		roundRecords: 32768,
		waitCap:      4 * time.Millisecond,
		why:          "durable node, probe-ordered archive backfill from its midpoint, closed loop",
	},
	"live-dashboard": {
		reads:        true,
		order:        (*world).timeOrder,
		roundRecords: 1 << 19,
		rate:         1 << 16,
		waitCap:      250 * time.Microsecond,
		why:          "in-memory node, time-interleaved live tail paced open loop, plus a conditional-GET reader",
	},
	"cluster-dashboard": {
		cluster:      true,
		reads:        true,
		order:        (*world).timeOrder,
		roundRecords: 1 << 19,
		rate:         1 << 16,
		waitCap:      250 * time.Microsecond,
		why:          "coordinator over 3 in-memory peers, the same paced feed and reader",
	},
}

// producerBatch is the StreamProducer's default batch size; the feed
// checks its deadline on these boundaries, where the producer's buffer
// is empty and every record sent so far is acked.
const producerBatch = 128

// The dashboard's reads. The AS panel's route takes the AS number the
// reader last learned from a summary; AS 3320 (DTAG), the paper's
// daily-renumbering anchor, is preferred when the summary lists it.
const (
	summaryRoute = "/api/v1/live/summary"
	asRoute      = "/api/v1/live/as/"
	anchorAS     = 3320
)

// readEvery is the dashboard's schedule. Coordinator reads take tens of
// ms at a round's full state, so one connection keeps up at this rate.
const readEvery = 50 * time.Millisecond

var dashboardRoutes = []string{summaryRoute, "/api/v1/live/continents", "/api/v1/live/analysis", asRoute}

// checkedRoutes are compared byte for byte against the reference.
var checkedRoutes = dashboardRoutes[:3]

// system is the booted system under test, whichever its shape.
type system struct {
	url    string
	nodes  []*node // the single node, or the cluster's peers
	clus   *clusterSys
	walDir string
	fs     *timingFS
	peerTr *peerTransport
}

func (s *system) ingesters() []*stream.Ingester {
	out := make([]*stream.Ingester, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = n.ing
	}
	return out
}

func (s *system) registries() []*obs.Registry {
	out := make([]*obs.Registry, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = n.reg
	}
	return out
}

// partitions is the system's partition count, which the reference
// ingester must match for its summary to say the same "shards".
func (s *system) partitions() int {
	if s.clus != nil {
		return clusterPartitions
	}
	return atlasdShards
}

func (s *system) close() error {
	var err error
	if s.clus != nil {
		err = s.clus.close()
	} else {
		for _, n := range s.nodes {
			if cerr := n.close(); err == nil {
				err = cerr
			}
		}
	}
	if s.walDir != "" {
		if rerr := os.RemoveAll(s.walDir); err == nil {
			err = rerr
		}
	}
	return err
}

// bootSystem boots the workload's system. A durable node's WAL lives in
// walDir; when warmDir is set, walDir starts as a copy of it, and the
// node recovers the state it holds, as atlasd does on a restart.
func bootSystem(wl ingestWorkload, w *world, walDir, warmDir string, t *tracer) (*system, error) {
	s := &system{}
	if wl.cluster {
		// atlasd's coordinator client: a 30 s timeout over the default
		// transport (a clone, so the generator's connections stay apart).
		base := http.DefaultTransport.(*http.Transport).Clone()
		client := &http.Client{Timeout: 30 * time.Second, Transport: base}
		var wrapPeer, wrapCoord func(http.Handler) http.Handler
		if t != nil {
			s.peerTr = &peerTransport{base: base, t: t}
			client.Transport = s.peerTr
			wrapPeer = func(h http.Handler) http.Handler { return traceHandler(t, spanPeerPost, spanPeerGet, h) }
			wrapCoord = func(h http.Handler) http.Handler { return traceHandler(t, spanCoordPost, spanCoordGet, h) }
		}
		cs, err := startCluster(w.ds, client, wrapPeer, wrapCoord)
		if err != nil {
			return nil, err
		}
		s.clus, s.nodes, s.url = cs, cs.peers, cs.url
		return s, nil
	}
	cfg := nodeConfig{ds: w.ds}
	if t != nil {
		cfg.wrap = func(h http.Handler) http.Handler { return traceHandler(t, spanNodePost, spanNodeGet, h) }
	}
	if wl.durable {
		s.walDir, cfg.walDir = walDir, walDir
		if warmDir != "" {
			if err := os.CopyFS(walDir, os.DirFS(warmDir)); err != nil {
				os.RemoveAll(walDir)
				return nil, err
			}
		}
		if t != nil {
			s.fs = &timingFS{FS: wal.OSFS, t: t}
			cfg.fs = s.fs
		}
	}
	n, err := startNode(cfg)
	if err != nil {
		os.RemoveAll(walDir)
		return nil, err
	}
	s.nodes, s.url = []*node{n}, n.url
	return s, nil
}

// setupTimes is one set-up's split. warm is building the WAL a warm
// node recovers; boot includes that recovery.
type setupTimes struct{ generate, encode, warm, boot time.Duration }

// setupStats reports set-up as the median of each part over the runs.
func setupStats(res *result, runs []setupTimes) {
	var gen, enc, warm, boot, total []float64
	for _, r := range runs {
		gen = append(gen, r.generate.Seconds())
		enc = append(enc, r.encode.Seconds())
		warm = append(warm, r.warm.Seconds())
		boot = append(boot, r.boot.Seconds())
		total = append(total, (r.generate + r.encode + r.warm + r.boot).Seconds())
	}
	res.infof("setup_s=%.4f s (median of %d: generate=%.4f encode=%.4f warm=%.4f boot=%.4f)",
		median(total), len(runs), median(gen), median(enc), median(warm), median(boot))
	res.add("setup_s", median(total), "s")
}

// feed replays seq through the producer until the deadline passes (on
// a batch boundary) or the feed is exhausted, and returns how many
// records it delivered — all acked unless err is set. A positive rate
// paces it open loop: the batch starting at record i is due at
// start + i/rate and not begun before; late is the most a batch began
// after it was due.
func feed(w *world, seq []ref, p *atlasapi.StreamProducer, start, deadline time.Time, rate float64) (n int, late time.Duration, err error) {
	for i, r := range seq {
		if rate > 0 && i%producerBatch == 0 {
			wait := time.Until(start.Add(time.Duration(float64(i) / rate * float64(time.Second))))
			late = max(late, -wait)
			time.Sleep(wait)
		}
		if err := w.emit(r, p); err != nil {
			return i, late, err
		}
		if (i+1)%producerBatch == 0 && time.Now().After(deadline) {
			return i + 1, late, nil
		}
	}
	return len(seq), late, p.Flush()
}

// barrier takes a snapshot barrier on every ingester and returns the
// stream position they sum to: once it equals the records sent, every
// record has been applied.
func barrier(ings []*stream.Ingester, t *tracer) int64 {
	var seq int64
	for _, ing := range ings {
		id, start := t.newID(), time.Now()
		snap := ing.Snapshot()
		t.record(id, 0, id, spanBarrier, start, time.Now())
		seq += int64(snap.Version.Seq)
	}
	return seq
}

// round is one replay of the feed into one freshly booted system.
type round struct {
	heapMB  float64 // live heap the system adds, at the round's end
	n       int
	elapsed time.Duration // first POST to the closing barrier
	late    time.Duration // paced feeds: the most a batch began late
	cpu     time.Duration
	mem     memDelta
	pt      *producerTransport
	rd      *reader
	served  map[string][]byte
	layers  layerInputs // traced runs only
}

func runIngest(o options, wl ingestWorkload) (*result, error) {
	res := &result{correct: true}
	var t *tracer
	if o.trace {
		t = newTracer()
	}
	walDir, err := filepath.Abs(filepath.Join(o.outDir, fmt.Sprintf("wal-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(walDir); err != nil {
		return nil, err
	}
	var warmDir string
	if wl.warm {
		warmDir = walDir + "-warm"
		defer os.RemoveAll(warmDir)
	}

	var (
		w      *world
		seq    []ref
		warm   int // records the system holds when a round starts
		sys    *system
		runs   []setupTimes
		baseMB float64 // live heap without the system, before its boot
	)
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	for i := 0; i < o.setups; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
			w, seq, sys = nil, nil, nil
			runtime.GC()
		}
		t0 := time.Now()
		if w, err = generate(o.seed, o.scale); err != nil {
			return nil, err
		}
		t1 := time.Now()
		seq = wl.order(w)
		if res.inputBytes, res.inputDigest, err = w.inputDigest(seq); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if wl.warm {
			warm = len(seq) / 2
			if err := buildWarmWAL(w, seq[:warm], warmDir); err != nil {
				return nil, err
			}
		}
		t3 := time.Now()
		baseMB = liveHeapMB()
		t4 := time.Now()
		if sys, err = bootSystem(wl, w, walDir, warmDir, nil); err != nil {
			return nil, err
		}
		runs = append(runs, setupTimes{generate: t1.Sub(t0), encode: t2.Sub(t1), warm: t3.Sub(t2), boot: time.Since(t4)})
	}
	res.infof("workload=%s (%s) seed=%d scale=%g seconds=%d trace=%v", o.workload, wl.why, o.seed, o.scale, o.seconds, o.trace)
	res.infof("input: %d records, %d probes, %d wire bytes, digest %016x", len(seq), len(w.ids), res.inputBytes, res.inputDigest)
	roundLen := min(wl.roundRecords, len(seq)-warm)
	res.infof("round: %s", roundState(w, seq, warm, roundLen))

	// The measured phase: rounds, each the same roundLen records of the
	// feed, from record warm on, into a freshly booted system, until the
	// measured time is spent. Every round does identical work from the
	// same state, so state growth is the same in every run. A round is
	// cut on a batch boundary if it outlasts the whole budget. Booting
	// and checking between rounds is not measured. A traced run makes
	// three rounds, untraced, traced and untraced again, and reports the
	// tracing overhead from the traced round against the other two.
	budget := time.Duration(o.seconds) * time.Second
	var rounds []*round
	var spent time.Duration
	parts := sys.partitions()
	for i := 0; ; i++ {
		var rt *tracer
		if t != nil && i == 1 {
			rt = t
		}
		if i > 0 {
			if err := sys.close(); err != nil {
				return nil, err
			}
			sys = nil
			baseMB = liveHeapMB()
			if sys, err = bootSystem(wl, w, walDir, warmDir, rt); err != nil {
				return nil, err
			}
		}
		rd, err := runRound(o, wl, w, seq[warm:warm+roundLen], int64(warm), sys, rt, budget, res)
		if err != nil {
			return nil, err
		}
		rd.heapMB -= baseMB
		rounds = append(rounds, rd)
		spent += rd.elapsed
		res.fed, res.feedLen = rd.n, roundLen
		res.infof("round %d (traced=%v): fed %d of %d records in %.3f s; %d POSTs, %d accepted, %d shed",
			len(rounds), rt != nil, rd.n, roundLen, rd.elapsed.Seconds(), rd.pt.posts, rd.pt.okPosts, rd.pt.sheds)
		if !res.correct || t == nil && spent >= budget || t != nil && i == 2 {
			break
		}
	}
	if err := sys.close(); err != nil {
		return nil, err
	}
	sys = nil

	// Everything served must be byte-identical to an in-memory
	// reference fed the same records, built after the measured phase.
	refs := make(map[int]map[string][]byte)
	for i, rd := range rounds {
		if rd.served == nil {
			continue
		}
		want, ok := refs[rd.n]
		if !ok {
			if want, err = referenceArtifacts(w, seq[:warm+rd.n], parts); err != nil {
				return nil, err
			}
			refs[rd.n] = want
		}
		for _, route := range checkedRoutes {
			if !bytes.Equal(rd.served[route], want[route]) {
				res.correct = false
				res.infof("correctness: round %d: %s: served %d bytes differ from the reference's %d",
					i+1, route, len(rd.served[route]), len(want[route]))
			}
		}
	}

	// Rates and CPU come from the producer's ack cycles, pooled over the
	// rounds. A traced run reports its traced round.
	measured := rounds
	if t != nil {
		measured = rounds[1:2]
	}
	var cycles []cycle
	var ackMS, readMS, staleMS, heapMB []float64
	for _, rd := range measured {
		cycles = append(cycles, rd.pt.cycles...)
		heapMB = append(heapMB, rd.heapMB)
	}
	rate, cpuPerRecord, slow := cycleRates(cycles)
	var n int
	var elapsed time.Duration
	var reads, hits, readFailed int64
	var late float64
	var feedLate time.Duration
	failures := make(map[int]int64)
	byRoute := make(map[string]int64)
	for _, rd := range measured {
		n += rd.n
		elapsed += rd.elapsed
		feedLate = max(feedLate, rd.late)
		ackMS = append(ackMS, rd.pt.ackMS...)
		if rd.rd != nil {
			readMS = append(readMS, rd.rd.latMS...)
			staleMS = append(staleMS, rd.rd.staleMS...)
			reads, hits, readFailed = reads+rd.rd.reads, hits+rd.rd.hits, readFailed+rd.rd.failed
			late = max(late, rd.rd.lateMS)
			for status, k := range rd.rd.failures {
				failures[status] += k
			}
			for route, k := range rd.rd.byRoute {
				byRoute[route] += k
			}
		}
	}
	res.infof("ingest_rps=%.1f 1/s (%d records from first POST to barrier in %.3f s)  records_per_s=%.1f 1/s (over the ack cycles)",
		float64(n)/elapsed.Seconds(), n, elapsed.Seconds(), rate)
	res.infof("slowest 1%% of ack cycles: %d of %d, %.3f s in all, longest %.3f s", slow.count, len(cycles), slow.total.Seconds(), slow.longest.Seconds())
	res.infof("ingest_ack_p50_ms=%.4f ms  ingest_ack_p90_ms=%.4f ms  ingest_ack_p99_ms=%.4f ms  (%d batches)",
		quantile(ackMS, 0.5), quantile(ackMS, 0.9), quantile(ackMS, 0.99), len(ackMS))
	if wl.rate > 0 {
		res.infof("producer paced at %.0f records/s, at most %.1f ms late", wl.rate, ms(feedLate))
	}
	res.infof("cpu_us_per_record=%.4f us  live_heap_mb=%.2f MB (heap the system adds, median of rounds)  peak_rss_mb=%.1f MB", cpuPerRecord, median(heapMB), peakRSSMB())
	if wl.reads {
		res.infof("read_p50_ms=%.4f ms  read_p90_ms=%.4f ms  read_p99_ms=%.4f ms  read_stale_p99_ms=%.4f ms  (%d reads, %d not modified, %d failed %v, sender at most %.1f ms late)",
			quantile(readMS, 0.5), quantile(readMS, 0.9), quantile(readMS, 0.99), quantile(staleMS, 0.99),
			reads, hits, readFailed, failures, late)
		res.infof("reads answered by route: %v", byRoute)
	}

	if t != nil {
		if len(rounds) < 3 {
			return res, nil // a round failed its check; res says so
		}
		traced := rounds[1]
		layers := traced.layers
		var tracedCPU, beforeCPU, afterCPU, before, after float64
		layers.tracedRPS, tracedCPU, _ = cycleRates(traced.pt.cycles)
		before, beforeCPU, _ = cycleRates(rounds[0].pt.cycles)
		after, afterCPU, _ = cycleRates(rounds[2].pt.cycles)
		layers.untracedRPS = (before + after) / 2
		if wl.rate > 0 {
			layers.tracedCPU, layers.untracedCPU = tracedCPU, (beforeCPU+afterCPU)/2
		}
		bs, err := encodeBatches(w, seq[warm:warm+traced.n])
		if err != nil {
			return nil, err
		}
		if layers.decodeNS, err = bs.decodeNS(); err != nil {
			return nil, err
		}
		layers.wireBytes = ratio(float64(len(bs.buf)), float64(traced.n))
		if layers.directRPS, err = bs.directRPS(w, wl.durable, walDir, warmDir, int64(warm), budget/2); err != nil {
			return nil, err
		}
		res.metrics = layerMetrics(layers)
		path := filepath.Join(o.outDir, "trace-"+o.workload+".jsonl")
		if err := writeSpans(path, layers.spans); err != nil {
			return nil, err
		}
		res.infof("trace: %d spans written to %s", len(layers.spans), path)
		return res, nil
	}
	setupStats(res, runs)
	res.add("records_per_s", rate, "1/s")
	res.add("latency_p50_ms", quantile(ackMS, 0.5), "ms")
	res.add("cpu_us_per_record", cpuPerRecord, "us")
	res.add("live_heap_mb", median(heapMB), "MB")
	return res, nil
}

// runRound replays seq into sys until the budget is spent or the feed
// is exhausted, closes with a barrier, and reads back the checked
// artifacts. Attempts, failures and correctness accrue into res.
func runRound(o options, wl ingestWorkload, w *world, seq []ref, held int64, sys *system, t *tracer, budget time.Duration, res *result) (*round, error) {
	t.reset() // spans belong to the round that made them
	rd := &round{pt: &producerTransport{base: newTransport(), t: t}}
	prod := atlasapi.NewStreamProducer(context.Background(), sys.url,
		atlasapi.WithCodec(atlasapi.CodecBinary),
		atlasapi.WithBackoff(backoff.Policy{Base: wl.waitCap, Max: wl.waitCap}),
		atlasapi.WithRetries(math.MaxInt32),
		atlasapi.WithBreaker(5, wl.waitCap),
		atlasapi.WithHTTPClient(&http.Client{Transport: rd.pt}))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var pressure []float64
	if t != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pressure = samplePressure(sys.ingesters(), stop)
		}()
	}
	runtime.GC()
	mem0, cpu0 := readMem(), cpuTime()
	start := time.Now()
	if wl.reads {
		rd.rd = &reader{
			client: &http.Client{Transport: newTransport()},
			base:   sys.url, routes: dashboardRoutes, every: readEvery, acks: rd.pt, t: t,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd.rd.run(start, stop)
		}()
	}
	n, late, feedErr := feed(w, seq, prod, start, start.Add(budget), wl.rate)
	applied := barrier(sys.ingesters(), t)
	end := time.Now()
	close(stop)
	wg.Wait()
	rd.cpu, rd.mem = cpuTime()-cpu0, memSince(mem0)
	rd.n, rd.elapsed, rd.late = n, end.Sub(rd.pt.first), late

	res.attempted += rd.pt.okPosts
	if feedErr != nil {
		res.attempted++
		res.failed++
		res.correct = false
		res.infof("feed failed after %d records: %v", n, feedErr)
	}
	if rd.rd != nil {
		res.attempted += rd.rd.reads
		res.failed += rd.rd.failed
	}
	if applied != held+int64(n) {
		res.correct = false
		res.infof("barrier shows %d records applied, %d held and %d sent", applied, held, n)
	}
	if t != nil {
		rd.layers = layerInputs{
			records: float64(n), spans: t.snapshot(), obs: gatherObs(sys.registries()),
			cluster: wl.cluster, fs: sys.fs, peerTr: sys.peerTr, pt: rd.pt, rd: rd.rd, pressure: pressure, mem: rd.mem,
		}
		var err error
		if rd.layers.analysisMS, err = finalAnalysis(sys.ingesters(), t); err != nil {
			return nil, err
		}
	}
	served, err := fetchArtifacts(sys, held+int64(n))
	if err != nil {
		res.correct = false
		res.infof("correctness: %v", err)
	}
	rd.served = served
	rd.heapMB = liveHeapMB()
	return rd, nil
}

// slowCycles summarises the ack cycles slower than the 99th percentile.
type slowCycles struct {
	count          int
	total, longest time.Duration
}

// cycleRates returns records per second and CPU microseconds per record
// over the ack cycles, and what the slowest 1% of them added up to.
func cycleRates(cycles []cycle) (rate, cpuPerRecord float64, slow slowCycles) {
	walls := make([]float64, len(cycles))
	for i, c := range cycles {
		walls[i] = float64(c.wall)
	}
	cut := time.Duration(quantile(walls, 0.99))
	var records int64
	var wall, cpu time.Duration
	for _, c := range cycles {
		records += c.records
		wall += c.wall
		cpu += c.cpu
		if c.wall > cut {
			slow.count++
			slow.total += c.wall
			slow.longest = max(slow.longest, c.wall)
		}
	}
	return ratio(float64(records), wall.Seconds()), ratio(float64(cpu.Nanoseconds())/1e3, float64(records)), slow
}

// buildWarmWAL writes the WAL directory a warm round starts from: the
// state seq leaves, as one checkpoint per shard and empty logs, which is
// what a durable node holds just after it checkpointed. The state is
// built in memory, then moved shard by shard into a durable ingester
// with the same calls a cluster rebalance makes
// (ReleasePartition/AdoptPartition).
func buildWarmWAL(w *world, seq []ref, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	src := stream.NewIngester(stream.Config{Shards: atlasdShards, Analysis: true, Pfx2AS: w.ds.Pfx2AS})
	defer src.Close()
	ctx := context.Background()
	if err := w.forBatches(seq, producerBatch, func(b []byte, _ int) error {
		_, err := src.IngestWire(ctx, b)
		return err
	}); err != nil {
		return err
	}
	dst, _, err := stream.Recover(stream.Config{
		Shards: atlasdShards, TotalPartitions: atlasdShards, OwnedPartitions: []int{},
		CheckpointEvery: atlasdCheckpointEvery, Analysis: true, Pfx2AS: w.ds.Pfx2AS,
		WALDir: dir, Sync: wal.SyncAlways,
	})
	if err != nil {
		return err
	}
	for p := 0; p < atlasdShards && err == nil; p++ {
		var st *stream.PartitionState
		if st, err = src.ReleasePartition(p); err == nil {
			err = dst.AdoptPartition(st)
		}
	}
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	return err
}

// roundState says what a round replays and the state the system holds
// when it ends: the measurement the round sizes rest on.
func roundState(w *world, seq []ref, warm, n int) string {
	seen := make(map[uint32]bool)
	for _, r := range seq[:warm+n] {
		seen[r.probe] = true
	}
	s := fmt.Sprintf("records %d to %d of %d (%.1f%% of the feed at its end), %d of %d probes then",
		warm, warm+n, len(seq), 100*float64(warm+n)/float64(len(seq)), len(seen), len(w.ids))
	if warm > 0 {
		s += fmt.Sprintf("; the first %d are recovered from a WAL checkpoint", warm)
	}
	return s
}

// samplePressure polls the worst shard-queue fill fraction across the
// ingesters every millisecond until stop closes.
func samplePressure(ings []*stream.Ingester, stop <-chan struct{}) []float64 {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var out []float64
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			p := 0.0
			for _, ing := range ings {
				p = max(p, ing.QueuePressure())
			}
			out = append(out, p)
		}
	}
}

// fetchArtifacts reads the checked routes from the front door once the
// final barrier has passed: on a single node after forcing a serve-tier
// refresh, so the generation covers every record; through the
// coordinator directly, which merges fresh on every read. Each answer
// must carry an ETag whose record count is the number sent.
func fetchArtifacts(sys *system, sent int64) (map[string][]byte, error) {
	if sys.clus == nil {
		for _, n := range sys.nodes {
			if _, err := n.tier.Refresh(context.Background()); err != nil {
				return nil, fmt.Errorf("refreshing serve tier: %w", err)
			}
		}
	}
	client := &http.Client{Transport: newTransport()}
	out := make(map[string][]byte)
	for _, route := range checkedRoutes {
		resp, err := client.Get(sys.url + route)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s", route, resp.Status)
		}
		if seq, ok := etagSeq(resp.Header.Get("ETag")); !ok || seq != sent {
			return nil, fmt.Errorf("GET %s: ETag %s, want record count %d", route, resp.Header.Get("ETag"), sent)
		}
		out[route] = body
	}
	return out, nil
}

// referenceArtifacts replays exactly the sent records into a fresh
// in-memory ingester with sim.ReplayDataset (probe order, whatever the
// feed order was) and renders the checked routes through serve.Render*.
func referenceArtifacts(w *world, sent []ref, partitions int) (map[string][]byte, error) {
	ing := stream.NewIngester(stream.Config{Shards: partitions, Pfx2AS: w.ds.Pfx2AS, Analysis: true})
	defer ing.Close()
	if err := sim.ReplayDataset(w.prefixDataset(sent), ing); err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	snap := ing.Snapshot()
	res, err := ing.Analysis()
	if err != nil {
		return nil, fmt.Errorf("reference analysis: %w", err)
	}
	out := make(map[string][]byte)
	if out[checkedRoutes[0]], err = serve.RenderSummary(snap); err != nil {
		return nil, err
	}
	if out[checkedRoutes[1]], err = serve.RenderContinents(snap); err != nil {
		return nil, err
	}
	if out[checkedRoutes[2]], err = serve.RenderAnalysis(res); err != nil {
		return nil, err
	}
	return out, nil
}
