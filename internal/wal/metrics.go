package wal

import (
	"time"

	"dynaddr/internal/obs"
)

// Metrics is the log's instrumentation handle. A nil *Metrics (the
// default) records nothing, so callers that don't care pass nothing
// and the append path stays branch-plus-return cheap.
//
// fsync latency is a single histogram shared across shards — the
// distribution is a property of the disk, not of any one shard — while
// the counters carry a shard label so stalls can be localised.
type Metrics struct {
	appends   *obs.Counter
	bytes     *obs.Counter
	fsyncs    *obs.Counter
	fsyncSec  *obs.Histogram
	rotations *obs.Counter
}

// NewMetrics resolves the log's instruments in reg under the given
// shard label. Returns nil (record nothing) when reg is nil.
func NewMetrics(reg *obs.Registry, shard string) *Metrics {
	if reg == nil {
		return nil
	}
	l := obs.L("shard", shard)
	return &Metrics{
		appends: reg.Counter("wal_append_total",
			"Frames appended to the write-ahead log.", l),
		bytes: reg.Counter("wal_appended_bytes_total",
			"Bytes appended to the write-ahead log, frame headers included.", l),
		fsyncs: reg.Counter("wal_fsync_total",
			"fsync calls issued by the write-ahead log.", l),
		fsyncSec: reg.Histogram("wal_fsync_seconds",
			"Write-ahead log fsync latency in seconds.", nil),
		rotations: reg.Counter("wal_rotations_total",
			"Write-ahead log segment rotations.", l),
	}
}

func (m *Metrics) appended(frames, bytes int) {
	if m == nil {
		return
	}
	m.appends.Add(int64(frames))
	m.bytes.Add(int64(bytes))
}

func (m *Metrics) fsynced(d time.Duration) {
	if m == nil {
		return
	}
	m.fsyncs.Inc()
	m.fsyncSec.Observe(d.Seconds())
}

func (m *Metrics) rotated() {
	if m == nil {
		return
	}
	m.rotations.Inc()
}
