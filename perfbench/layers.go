package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"dynaddr/internal/engine"
	"dynaddr/internal/obs"
	"dynaddr/internal/stream"
	"dynaddr/internal/wal"
	"dynaddr/internal/wire"
)

// layerInputs is everything a traced run observed. Layers a workload
// leaves idle have nil or zero inputs and report zero.
type layerInputs struct {
	records  float64 // records the run pushed through its path
	spans    []span
	obs      obsFigures
	cluster  bool
	fs       *timingFS
	peerTr   *peerTransport
	pt       *producerTransport
	rd       *reader
	pressure []float64
	mem      memDelta

	tracedRPS   float64 // records_per_s of the traced round or passes
	untracedRPS float64 // the same, untraced, around them
	// tracedCPU and untracedCPU are CPU µs per record, the same way. A
	// paced workload's rate is the offered one, so when these are set
	// the overhead is taken from them instead.
	tracedCPU, untracedCPU float64
	analysisMS             float64 // final AnalysisVersioned calls
	directRPS              float64
	decodeNS               float64 // wire decode, ns per record
	wireBytes              float64 // wire bytes per record
	engineMS               []float64
	stageMS                map[engine.Stage][]float64
}

// obsFigures are the program's own instruments, read from the nodes'
// obs registries when a round ends.
type obsFigures struct {
	checkpoints   float64
	checkpointP99 float64 // s
	applyP99      float64 // s, sampled one apply in 64
	refreshes     float64
	refreshP99    float64 // s
}

func gatherObs(regs []*obs.Registry) obsFigures {
	return obsFigures{
		checkpoints:   counterTotal(regs, "wal_checkpoints_total"),
		checkpointP99: gatherHistogram(regs, "wal_checkpoint_seconds").quantile(0.99),
		applyP99:      gatherHistogram(regs, "ingest_apply_seconds").quantile(0.99),
		refreshes:     counterTotal(regs, "serve_refreshes_total"),
		refreshP99:    gatherHistogram(regs, "serve_refresh_seconds").quantile(0.99),
	}
}

// durations groups span durations in ms by name.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.name] = append(out[s.name], float64(s.end-s.start)/1e6)
	}
	return out
}

// layerMetrics computes every per-layer metric, in a fixed order.
func layerMetrics(in layerInputs) []metric {
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }
	d := durations(in.spans)
	n := in.records

	// wal: WAL file I/O through the timing wal.FS.
	var walBytes float64
	if in.fs != nil {
		walBytes = float64(in.fs.bytes.Load())
	}
	add("wal.write_calls_per_record", ratio(float64(len(d[spanWALWrite])), n), "count")
	add("wal.fsync_calls_per_record", ratio(float64(len(d[spanWALSync])), n), "count")
	add("wal.bytes_per_record", ratio(walBytes, n), "B")
	add("wal.write_busy_s", sum(d[spanWALWrite])/1e3, "s")
	add("wal.fsync_busy_s", sum(d[spanWALSync])/1e3, "s")
	add("wal.fsync_ms_p50", quantile(d[spanWALSync], 0.5), "ms")
	add("wal.fsync_ms_p99", quantile(d[spanWALSync], 0.99), "ms")

	// stream: shard apply, checkpoints and barriers, from the obs
	// registry and the benchmark's own calls.
	add("stream.checkpoints", in.obs.checkpoints, "count")
	add("stream.checkpoint_ms_p99", in.obs.checkpointP99*1e3, "ms")
	add("stream.apply_us_p99", in.obs.applyP99*1e6, "us")
	add("stream.queue_pressure_p99", quantile(in.pressure, 0.99), "ratio")
	add("stream.direct_rps", in.directRPS, "1/s")
	add("stream.barrier_ms", sum(d[spanBarrier]), "ms")
	add("stream.analysis_ms", in.analysisMS, "ms")

	// wire: decode of the run's batches.
	add("wire.decode_ns_per_record", in.decodeNS, "ns")
	add("wire.bytes_per_record", in.wireBytes, "B")

	// atlasapi: the LiveServer handlers (the peers' in a cluster) and
	// the producer's side of the HTTP exchange.
	postSpan, readSpan := spanNodePost, spanNodeGet
	if in.cluster {
		postSpan, readSpan = spanPeerPost, spanCoordGet
	}
	var posts, sheds, okPosts, okRecords float64
	if in.pt != nil {
		posts, sheds = float64(in.pt.posts), float64(in.pt.sheds)
		okPosts, okRecords = float64(in.pt.okPosts), float64(in.pt.okRecords)
	}
	add("atlasapi.ingest_handler_ms_p50", quantile(d[postSpan], 0.5), "ms")
	add("atlasapi.ingest_handler_ms_p99", quantile(d[postSpan], 0.99), "ms")
	add("atlasapi.shed_ratio", ratio(sheds, posts), "ratio")
	add("atlasapi.read_handler_ms_p99", quantile(d[readSpan], 0.99), "ms")
	add("producer.batch_records_mean", ratio(okRecords, okPosts), "count")
	add("producer.client_busy_s", sum(d[spanPost])/1e3, "s")
	var slow slowCycles
	if in.pt != nil {
		_, _, slow = cycleRates(in.pt.cycles)
	}
	add("producer.slow_cycle_s", slow.total.Seconds(), "s")

	// serve: the tier's hits, refreshes and bodies.
	var reads, hits, bodyBytes float64
	if in.rd != nil {
		reads, hits, bodyBytes = float64(in.rd.reads), float64(in.rd.hits), float64(in.rd.bytes)
	}
	add("serve.hit_ratio", ratio(hits, reads), "ratio")
	add("serve.refreshes", in.obs.refreshes, "count")
	add("serve.refresh_ms_p99", in.obs.refreshP99*1e3, "ms")
	add("serve.body_bytes_per_read", ratio(bodyBytes, reads), "B")

	// cluster: coordinator→peer calls under each coordinator request.
	var viewBytes float64
	if in.peerTr != nil {
		viewBytes = float64(in.peerTr.viewBytes.Load())
	}
	slowest, mergeSelf := fanoutCritical(in.spans)
	add("cluster.forward_ms_p99", quantile(d[spanForward], 0.99), "ms")
	add("cluster.forwards_per_batch", ratio(float64(len(d[spanForward])), float64(len(d[spanCoordPost]))), "count")
	add("cluster.fanout_requests_per_read", ratio(float64(len(d[spanFanout])), reads), "count")
	add("cluster.peer_view_bytes_per_read", ratio(viewBytes, reads), "B")
	add("cluster.slowest_peer_ms_p99", quantile(slowest, 0.99), "ms")
	add("cluster.merge_self_ms_p50", quantile(mergeSelf, 0.5), "ms")

	// engine/core: batch analysis passes and their stages.
	add("engine.run_ms", median(in.engineMS), "ms")
	for _, st := range engine.All {
		add("engine.stage."+string(st)+"_ms", median(in.stageMS[st]), "ms")
	}

	// runtime: allocation and GC over the measured phase.
	add("runtime.alloc_bytes_per_record", ratio(in.mem.allocBytes, n), "B")
	add("runtime.allocs_per_record", ratio(in.mem.allocs, n), "count")
	add("runtime.gc_pause_ms", ms(in.mem.gcPause), "ms")

	// trace: the traced run's own throughput, its overhead against the
	// untraced rounds or passes around it, and each span's self time.
	add("trace.spans", float64(len(in.spans)), "count")
	add("trace.records_per_s", in.tracedRPS, "1/s")
	overhead := 1 - ratio(in.tracedRPS, in.untracedRPS)
	if in.tracedCPU > 0 {
		overhead = 1 - ratio(in.untracedCPU, in.tracedCPU)
	}
	add("trace.overhead_ratio", overhead, "ratio")
	self := selfTimes(in.spans)
	for _, name := range spanNames {
		add("trace.self."+name+"_s", self[name].Seconds(), "s")
	}

	// End-to-end figures that exist on some workloads only, as measured
	// in this traced run.
	var ackMS, readMS, staleMS []float64
	if in.pt != nil {
		ackMS = in.pt.ackMS
	}
	if in.rd != nil {
		readMS, staleMS = in.rd.latMS, in.rd.staleMS
	}
	add("traced.ingest_ack_p99_ms", quantile(ackMS, 0.99), "ms")
	add("traced.read_p50_ms", quantile(readMS, 0.5), "ms")
	add("traced.read_p99_ms", quantile(readMS, 0.99), "ms")
	add("traced.read_stale_p99_ms", quantile(staleMS, 0.99), "ms")
	return out
}

// fanoutCritical returns, per coordinator read, its slowest peer call
// and the handler time left once that call is taken out.
func fanoutCritical(spans []span) (slowest, mergeSelf []float64) {
	kids := make(map[uint64]float64)
	for _, s := range spans {
		if s.name == spanFanout {
			kids[s.parent] = max(kids[s.parent], float64(s.end-s.start)/1e6)
		}
	}
	for _, s := range spans {
		if s.name != spanCoordGet {
			continue
		}
		slow := kids[s.id]
		slowest = append(slowest, slow)
		mergeSelf = append(mergeSelf, float64(s.end-s.start)/1e6-slow)
	}
	return slowest, mergeSelf
}

// finalAnalysis times one AnalysisVersioned call per ingester after the
// final barrier — the fold a serve-tier refresh pays.
func finalAnalysis(ings []*stream.Ingester, t *tracer) (float64, error) {
	var total time.Duration
	for _, ing := range ings {
		id, start := t.newID(), time.Now()
		if _, _, err := ing.AnalysisVersioned(context.Background()); err != nil {
			return 0, err
		}
		end := time.Now()
		t.record(id, 0, id, spanAnalysis, start, end)
		total += end.Sub(start)
	}
	return ms(total), nil
}

// batchSet is a feed prefix pre-encoded as the producer's wire batches.
type batchSet struct {
	buf     []byte
	ends    []int // batch i is buf[ends[i-1]:ends[i]]
	records []int
}

func encodeBatches(w *world, seq []ref) (*batchSet, error) {
	bs := &batchSet{}
	err := w.forBatches(seq, producerBatch, func(b []byte, n int) error {
		bs.buf = append(bs.buf, b...)
		bs.ends = append(bs.ends, len(bs.buf))
		bs.records = append(bs.records, n)
		return nil
	})
	return bs, err
}

func (bs *batchSet) batch(i int) []byte {
	start := 0
	if i > 0 {
		start = bs.ends[i-1]
	}
	return bs.buf[start:bs.ends[i]]
}

// decodeNS times wire.Frames plus the per-kind Decode over every batch
// and returns ns per record.
func (bs *batchSet) decodeNS() (float64, error) {
	var busy time.Duration
	records := 0
	for i := range bs.ends {
		start := time.Now()
		it := wire.Frames(bs.batch(i))
		for {
			payload, done, err := it.Next()
			if err != nil {
				return 0, err
			}
			if done {
				break
			}
			if err := decodeOne(payload); err != nil {
				return 0, err
			}
		}
		busy += time.Since(start)
		records += bs.records[i]
	}
	return ratio(float64(busy.Nanoseconds()), float64(records)), nil
}

func decodeOne(payload []byte) error {
	kind, err := wire.PayloadKind(payload)
	if err != nil {
		return err
	}
	switch kind {
	case wire.KindMeta:
		_, err = wire.DecodeMeta(payload)
	case wire.KindConn:
		_, err = wire.DecodeConnLog(payload)
	case wire.KindKRoot:
		_, err = wire.DecodeKRoot(payload)
	case wire.KindUptime:
		_, err = wire.DecodeUptime(payload)
	default:
		err = fmt.Errorf("unknown record kind %v", kind)
	}
	return err
}

// directRPS feeds the batches straight into a fresh ingester through
// IngestWire — no HTTP — configured as the workload's node (durable at
// atlasd's WAL defaults when durable, recovered from warmDir's copy
// holding held records when set), until the batches or the budget run
// out, and returns records per second up to the closing barrier.
func (bs *batchSet) directRPS(w *world, durable bool, walDir, warmDir string, held int64, budget time.Duration) (float64, error) {
	scfg := stream.Config{
		Shards:          atlasdShards,
		CheckpointEvery: atlasdCheckpointEvery,
		Metrics:         obs.NewRegistry(),
		Analysis:        true,
		Pfx2AS:          w.ds.Pfx2AS,
	}
	var ing *stream.Ingester
	if durable {
		defer os.RemoveAll(walDir)
		if warmDir != "" {
			if err := os.CopyFS(walDir, os.DirFS(warmDir)); err != nil {
				return 0, err
			}
		}
		scfg.WALDir, scfg.Sync = walDir, wal.SyncAlways
		recovered, _, err := stream.Recover(scfg)
		if err != nil {
			return 0, err
		}
		ing = recovered
	} else {
		ing = stream.NewIngester(scfg)
	}
	defer ing.Close()
	ctx := context.Background()
	fed := 0
	start := time.Now()
	for i := range bs.ends {
		if time.Since(start) > budget {
			break
		}
		st, err := ing.IngestWire(ctx, bs.batch(i))
		if err != nil {
			return 0, err
		}
		fed += st.Consumed()
	}
	if got := ing.Snapshot().Version.Seq; got != uint64(held)+uint64(fed) {
		return 0, errors.New("direct ingest: barrier does not cover the batches fed")
	}
	return float64(fed) / time.Since(start).Seconds(), nil
}
