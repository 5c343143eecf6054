// Package stream turns the batch analysis pipeline into a live one: an
// Ingester accepts connection-log, k-root and SOS-uptime records as an
// ordered-per-probe event stream and maintains incremental analysis
// state, so "what is this AS's churn right now" is answerable while
// records are still arriving — the collection reality of the paper's §3,
// where probes reconnect to controllers continuously.
//
// Architecture: records are hashed by probe ID onto N shards, each a
// goroutine owning the per-probe state machines for its probes and fed
// through a bounded channel (a full shard exerts backpressure on
// producers). Each state machine detects IPv4 address changes and closes
// address durations as they become bounded (feeding an online
// total-time-fraction accumulator, f_d = d·n(d)/Σ(D)), tracks open
// k-root loss runs, spots uptime-counter resets, and correlates address
// changes with outage evidence in the surrounding gap. Snapshot()
// returns a consistent point-in-time view: it includes every record
// whose Ingest call returned before Snapshot was called.
//
// Classification (the paper's Table 2) is inherently retrospective — a
// probe "becomes" dual-stack the moment its first IPv6 session arrives —
// so category assignment and per-AS aggregation happen at snapshot time
// from the incrementally maintained per-probe features, using exactly
// the rules of core.Filter. Streaming a complete dataset through the
// ingester therefore reproduces the batch pipeline's per-AS change
// counts and total-time-fraction tallies exactly (see the replay-
// equivalence test).
package stream

import (
	"fmt"
	"time"

	"dynaddr/internal/obs"
	"dynaddr/internal/pfx2as"
	"dynaddr/internal/wal"
)

// Config parameterises an Ingester.
type Config struct {
	// Shards is the number of shard goroutines; probe IDs are hashed
	// across them. Zero means TotalPartitions when that is set, else 4.
	// With nil OwnedPartitions, Shards and TotalPartitions must agree
	// when both are set: every partition runs one shard. A durable
	// ingester's shard count is part of its on-disk layout: reopening a
	// WAL directory with a different count is refused, because
	// resharding would break the per-probe ordering the logs preserve by
	// construction.
	Shards int
	// Buffer is the per-shard channel capacity; a full shard blocks its
	// producers (backpressure). It also bounds a durable shard's group
	// commit: one commit takes at most a full channel. Zero means 256.
	Buffer int
	// Pfx2AS maps addresses to origin ASes, month-matched, for per-AS
	// aggregation. Nil disables AS attribution (everything maps to 0).
	// Recovery replays WAL records through the same state machines, so
	// the store must be the same one the original run used for the
	// recovered aggregates to match.
	Pfx2AS *pfx2as.SnapshotStore

	// TotalPartitions is the cluster-wide partition count probe IDs are
	// hashed over. Zero means Shards — the single-node case, where every
	// partition is local and "partition" and "shard" coincide. In a
	// cluster every peer shares the same TotalPartitions (it is the
	// routing invariant recorded in the WAL meta file) and owns a subset.
	TotalPartitions int
	// OwnedPartitions lists the partitions this ingester owns, i.e. runs
	// a shard for. Nil means all of them (single-node). Non-nil — even
	// empty — overrides Shards with its length: a cluster peer runs
	// exactly one shard per owned partition so that partition state
	// (WAL directory, checkpoint, dead letters) can be shipped whole to
	// another peer on rebalance. Records for unowned partitions are
	// refused with ErrNotOwner.
	OwnedPartitions []int

	// WALDir, when set, makes the ingester durable: each shard appends
	// every record to its own write-ahead log under WALDir/shard-NNN
	// before applying it, checkpoints its state periodically, and can be
	// reconstructed after a crash with Recover. Empty means in-memory
	// only (the pre-durability behaviour).
	WALDir string
	// Sync is the WAL fsync policy; the zero value is wal.SyncAlways.
	Sync wal.SyncPolicy
	// CheckpointEvery is the number of records a shard applies between
	// checkpoints (serialize state, atomically replace the checkpoint
	// file, drop WAL segments the checkpoint covers). Zero means 4096;
	// negative disables periodic checkpoints (the WAL then grows until
	// the process exits).
	CheckpointEvery int
	// SegmentBytes is the WAL segment rotation size; zero means the wal
	// package default (1 MiB).
	SegmentBytes int64
	// FS routes the shard WALs' filesystem operations; nil means the
	// real filesystem. The chaos harness passes a faultinject.FaultFS
	// here to drive shards into degraded mode with injected ENOSPC and
	// fsync failures.
	FS wal.FS
	// RearmEvery is how often a degraded shard probes its WAL directory
	// for recovered writability (a successful probe reopens the log and
	// flushes parked records). Zero means 500ms.
	RearmEvery time.Duration

	// Metrics, when non-nil, receives ingest and WAL instrumentation
	// (per-shard record counters, queue-depth gauges, sampled apply
	// latency, fsync and checkpoint timings). Nil disables
	// instrumentation entirely — the hot path then pays one nil check
	// per record.
	Metrics *obs.Registry

	// Analysis enables the live analysis engine: every probe state
	// additionally maintains a liveanalysis.Detector at apply time, and
	// Analysis()/AnalysisContext() answer the paper's tables and figures
	// from the current stream position. Detector state rides inside the
	// shard checkpoints, so recovery restores the analysis exactly.
	// Disabled, the ingest hot path pays one nil check per record.
	Analysis bool
}

func (c Config) withDefaults() Config {
	switch {
	case c.OwnedPartitions != nil:
		c.Shards = len(c.OwnedPartitions)
	case c.Shards <= 0 && c.TotalPartitions > 0:
		c.Shards = c.TotalPartitions // nil owns every partition
	case c.Shards <= 0:
		c.Shards = 4
	}
	if c.TotalPartitions <= 0 {
		c.TotalPartitions = c.Shards
		if c.TotalPartitions <= 0 {
			c.TotalPartitions = 1
		}
	}
	if c.Buffer <= 0 {
		c.Buffer = 256
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 4096
	}
	if c.RearmEvery <= 0 {
		c.RearmEvery = 500 * time.Millisecond
	}
	return c
}

// validate refuses a defaulted config that contradicts itself.
func (c Config) validate() error {
	if c.OwnedPartitions == nil && c.Shards != c.TotalPartitions {
		return fmt.Errorf("stream: %d shards cannot own all %d partitions (nil OwnedPartitions means all; list the owned partitions instead)", c.Shards, c.TotalPartitions)
	}
	seen := make(map[int]bool, len(c.OwnedPartitions))
	for _, p := range c.OwnedPartitions {
		if p < 0 || p >= c.TotalPartitions {
			return fmt.Errorf("stream: owned partition %d outside [0, %d)", p, c.TotalPartitions)
		}
		if seen[p] {
			return fmt.Errorf("stream: owned partition %d listed twice", p)
		}
		seen[p] = true
	}
	return nil
}

// Thresholds mirrored from the batch pipeline (internal/core); the
// streaming detectors must agree with the batch ones record for record.
const (
	// ltsSyncBound is the LTS value above which a single lost round
	// already implies a missed controller sync (core.DetectNetworkOutages).
	ltsSyncBound = 240
	// bootSlackSecs absorbs clock skew between the probe's uptime counter
	// and record timestamps when comparing boot instants (core.DetectReboots).
	bootSlackSecs = 90
	// minConnectedDays is the paper's Table 2 pre-filter (core.Filter).
	minConnectedDays = 30
)

// recentEvidence bounds the per-probe ring buffers of closed outages and
// reboots kept for gap correlation. Changes arrive close in time to the
// outage that caused them, so a short memory suffices.
const recentEvidence = 8
