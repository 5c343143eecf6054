package stream

import (
	"strconv"
	"time"

	"dynaddr/internal/obs"
)

// applySampleMask samples apply-latency timing at 1 in 64 records.
// Two time.Now calls per record would be the single largest cost the
// instrumentation adds to the ingest hot path; at 1/64 the histogram
// still converges on the true distribution while the timing cost
// amortises to well under the <5% overhead budget.
const applySampleMask = 63

// shardMetrics is one shard's instrumentation handle, resolved once at
// construction so the hot path never touches the registry. A nil
// *shardMetrics (metrics disabled) records nothing; its methods are
// nil-receiver safe so apply() carries no call-site branches.
//
// The counters are per-shard (skew between shards is the signal that a
// probe-hash imbalance or a stalled shard exists); the latency and
// checkpoint-duration histograms are shared across shards because
// their distributions describe the machine, not the sharding.
type shardMetrics struct {
	accepted [4]*obs.Counter // indexed by recordKind: meta, conn, kroot, uptime
	rejected *obs.Counter
	applySec *obs.Histogram
	ckpts    *obs.Counter
	ckptB    *obs.Counter
	ckptSec  *obs.Histogram
	replayed *obs.Counter
	tick     uint64 // shard-goroutine-local sample counter

	// pend buffers accepted-by-kind (0..3) and rejected (4) counts
	// between flushes. One atomic add per record costs ~10ns on older
	// hardware — a measurable slice of the ~200ns apply path — so the
	// hot path does plain shard-local increments and flush publishes
	// them every 64 records and at every barrier (snapshot, shutdown,
	// end of recovery replay). Readers at a barrier always see exact
	// totals; a mid-stream scrape can trail live ingest by up to 63
	// records.
	pend [5]int64
}

func newShardMetrics(reg *obs.Registry, index int) *shardMetrics {
	if reg == nil {
		return nil
	}
	shard := obs.L("shard", strconv.Itoa(index))
	kind := func(k string) *obs.Counter {
		return reg.Counter("ingest_records_total",
			"Records applied to ingest state by this process, including WAL replay after recovery.",
			shard, obs.L("kind", k))
	}
	return &shardMetrics{
		accepted: [4]*obs.Counter{kind("meta"), kind("connlog"), kind("kroot"), kind("uptime")},
		rejected: reg.Counter("ingest_records_rejected_total",
			"Records rejected for time-order or validation violations.", shard),
		applySec: reg.Histogram("ingest_apply_seconds",
			"Per-record apply latency in seconds, sampled 1 in 64.", nil),
		ckpts: reg.Counter("wal_checkpoints_total",
			"Shard checkpoints written.", shard),
		ckptB: reg.Counter("wal_checkpoint_bytes_total",
			"Bytes of shard checkpoint documents written.", shard),
		ckptSec: reg.Histogram("wal_checkpoint_seconds",
			"Checkpoint duration in seconds (sync, serialize, truncate).", nil),
		replayed: reg.Counter("wal_recovery_records_total",
			"WAL records replayed past the checkpoint during recovery.", shard),
	}
}

// sampleStart advances the sample counter and returns a start time for
// the 1-in-64 records whose apply latency is measured. The same 1-in-64
// tick also flushes the pending record counts.
func (m *shardMetrics) sampleStart() (time.Time, bool) {
	if m == nil {
		return time.Time{}, false
	}
	m.tick++
	if m.tick&applySampleMask != 0 {
		return time.Time{}, false
	}
	m.flush()
	return time.Now(), true
}

func (m *shardMetrics) accept(kind recordKind) {
	if m != nil {
		m.pend[kind]++
	}
}

func (m *shardMetrics) reject() {
	if m != nil {
		m.pend[4]++
	}
}

// flush publishes the buffered record counts to the shared counters.
// Called on the shard goroutine only.
func (m *shardMetrics) flush() {
	if m == nil {
		return
	}
	for kind, n := range m.pend[:4] {
		if n != 0 {
			m.accepted[kind].Add(n)
			m.pend[kind] = 0
		}
	}
	if m.pend[4] != 0 {
		m.rejected.Add(m.pend[4])
		m.pend[4] = 0
	}
}

func (m *shardMetrics) checkpointed(d time.Duration, bytes int64) {
	if m != nil {
		m.ckpts.Inc()
		m.ckptB.Add(bytes)
		m.ckptSec.Observe(d.Seconds())
	}
}

func (m *shardMetrics) replayedRecord() {
	if m != nil {
		m.replayed.Inc()
	}
}

// analysisMetrics is one shard's live-analysis instrumentation. Unlike
// shardMetrics it has zero hot-path presence: every value is computed
// and published only at an analysis barrier, from the view the shard
// just built. Nil (metrics or analysis disabled) records nothing.
type analysisMetrics struct {
	folds    *obs.Counter
	probes   *obs.Gauge
	gaps     *obs.Gauge
	networks *obs.Gauge
	reboots  *obs.Gauge
	churn    *obs.Gauge
}

func newAnalysisMetrics(reg *obs.Registry, index int) *analysisMetrics {
	if reg == nil {
		return nil
	}
	shard := obs.L("shard", strconv.Itoa(index))
	gauge := func(name, help string) *obs.Gauge {
		return reg.Gauge(name, help, shard)
	}
	return &analysisMetrics{
		folds: reg.Counter("liveanalysis_folds_total",
			"Analysis barriers served by this shard.", shard),
		probes: gauge("liveanalysis_probes",
			"Analyzable probes contributing events at the last analysis barrier."),
		gaps: gauge("liveanalysis_gaps",
			"Gap events held for analyzable probes at the last analysis barrier."),
		networks: gauge("liveanalysis_network_outages",
			"Qualified network outages held at the last analysis barrier."),
		reboots: gauge("liveanalysis_reboots",
			"Detected reboots held at the last analysis barrier."),
		churn: gauge("liveanalysis_churn_days",
			"Distinct study days with address-change churn at the last analysis barrier."),
	}
}

// observe publishes the sizes of a freshly built analysis view. Called
// on the shard goroutine at the barrier.
func (m *analysisMetrics) observe(v *analysisView) {
	if m == nil {
		return
	}
	m.folds.Inc()
	var gaps, networks, reboots int
	for i := range v.events {
		gaps += len(v.events[i].Gaps)
		networks += len(v.events[i].Networks)
		reboots += len(v.events[i].Reboots)
	}
	m.probes.Set(float64(len(v.events)))
	m.gaps.Set(float64(gaps))
	m.networks.Set(float64(networks))
	m.reboots.Set(float64(reboots))
	m.churn.Set(float64(len(v.churn)))
}

// registerQueueDepth exposes the shard's channel backlog as a callback
// gauge: len(chan) is read at gather time, so the hot path pays
// nothing for it.
func registerQueueDepth(reg *obs.Registry, index int, ch chan record) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("ingest_queue_depth",
		"Records waiting in the shard's channel.",
		func() float64 { return float64(len(ch)) },
		obs.L("shard", strconv.Itoa(index)))
}
