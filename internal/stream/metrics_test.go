package stream_test

import (
	"os"
	"path/filepath"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/obs"
	"dynaddr/internal/stream"
)

// sumSeries totals every series of one family, optionally filtered to
// a label value.
func sumSeries(reg *obs.Registry, name string, filter ...obs.Label) float64 {
	var total float64
	for _, f := range reg.Gather() {
		if f.Name != name {
			continue
		}
	series:
		for _, m := range f.Metrics {
			for _, want := range filter {
				ok := false
				for _, got := range m.Labels {
					if got == want {
						ok = true
						break
					}
				}
				if !ok {
					continue series
				}
			}
			total += m.Value
		}
	}
	return total
}

func feedTestRecords(t *testing.T, ing *stream.Ingester) (fed int) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []atlasdata.ProbeID{206, 207, 208} {
		must(ing.Meta(meta(id)))
		must(ing.ConnLog(conn(id, at(0), at(24), "10.0.0.1")))
		must(ing.ConnLog(conn(id, at(25), at(49), "10.1.0.1")))
		must(ing.KRoot(atlasdata.KRootRound{Probe: id, Timestamp: at(1), Sent: 3, Success: 3, LTS: 30}))
		must(ing.Uptime(atlasdata.UptimeRecord{Probe: id, Timestamp: at(2), Uptime: 3600}))
		fed += 5
	}
	// One record that violates per-probe time order: counted as fed,
	// applied as rejected.
	must(ing.ConnLog(conn(206, at(10), at(12), "10.0.0.2")))
	return fed + 1
}

// TestIngestMetrics: the obs counters must agree exactly with the
// snapshot's own tallies — the two views of the same ingest run.
func TestIngestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	ing := stream.NewIngester(stream.Config{Shards: 2, Pfx2AS: testStore(t), Metrics: reg})
	fed := feedTestRecords(t, ing)
	snap := ing.Snapshot() // in-band barrier: every record above is applied

	byKind := map[string]int64{
		"meta":    snap.Records.Meta,
		"connlog": snap.Records.ConnLogs,
		"kroot":   snap.Records.KRoot,
		"uptime":  snap.Records.Uptime,
	}
	var accepted float64
	for kind, want := range byKind {
		got := sumSeries(reg, "ingest_records_total", obs.L("kind", kind))
		if got != float64(want) {
			t.Errorf("ingest_records_total{kind=%q} = %v, want %d", kind, got, want)
		}
		accepted += got
	}
	rejected := sumSeries(reg, "ingest_records_rejected_total")
	if rejected != float64(snap.Records.Rejected) {
		t.Errorf("ingest_records_rejected_total = %v, want %d", rejected, snap.Records.Rejected)
	}
	if rejected == 0 {
		t.Error("expected at least one rejected record from the out-of-order entry")
	}
	if accepted+rejected != float64(fed) {
		t.Errorf("accepted %v + rejected %v != fed %d", accepted, rejected, fed)
	}
	// Queue-depth gauges read len(chan) at gather time; after the
	// snapshot barrier the channels are drained.
	for _, f := range reg.Gather() {
		if f.Name != "ingest_queue_depth" {
			continue
		}
		if len(f.Metrics) != 2 {
			t.Errorf("ingest_queue_depth has %d series, want one per shard (2)", len(f.Metrics))
		}
		for _, m := range f.Metrics {
			if m.Value != 0 {
				t.Errorf("ingest_queue_depth%v = %v after drain, want 0", m.Labels, m.Value)
			}
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableIngestMetrics: the WAL counters cover every fed record
// (persist runs before apply, rejected records included), fsyncs and
// checkpoints happen, and recovery replay is counted on the recovered
// ingester's registry.
func TestDurableIngestMetrics(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	cfg := stream.Config{
		Shards: 2, Pfx2AS: testStore(t), WALDir: dir,
		CheckpointEvery: 4, Metrics: reg,
	}
	ing, st, err := stream.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 0 {
		t.Fatalf("fresh dir replayed %d records", st.Replayed)
	}
	fed := feedTestRecords(t, ing)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	if got := sumSeries(reg, "wal_append_total"); got != float64(fed) {
		t.Errorf("wal_append_total = %v, want %d (every fed record is persisted)", got, fed)
	}
	if got := sumSeries(reg, "wal_fsync_total"); got == 0 {
		t.Error("wal_fsync_total = 0, want > 0")
	}
	if got := sumSeries(reg, "wal_appended_bytes_total"); got == 0 {
		t.Error("wal_appended_bytes_total = 0, want > 0")
	}
	if got := sumSeries(reg, "wal_checkpoints_total"); got == 0 {
		t.Error("wal_checkpoints_total = 0, want > 0 with CheckpointEvery=4")
	}
	// The byte counter covers every checkpoint written, so at least the
	// documents still on disk.
	var onDisk int64
	for _, shardDir := range []string{"shard-000", "shard-001"} {
		if fi, err := os.Stat(filepath.Join(dir, shardDir, "checkpoint.bin")); err == nil {
			onDisk += fi.Size()
		}
	}
	if got := sumSeries(reg, "wal_checkpoint_bytes_total"); onDisk == 0 || got < float64(onDisk) {
		t.Errorf("wal_checkpoint_bytes_total = %v, want at least the %d checkpoint bytes on disk", got, onDisk)
	}

	// Reopen on a fresh registry: the replay counter must equal the
	// recovery stats, and the replayed records land in the ingest
	// counters too (they are applied by this process).
	reg2 := obs.NewRegistry()
	cfg.Metrics = reg2
	ing2, st2, err := stream.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	if got := sumSeries(reg2, "wal_recovery_records_total"); got != float64(st2.Replayed) {
		t.Errorf("wal_recovery_records_total = %v, want %d", got, st2.Replayed)
	}
	var applied float64
	for _, kind := range []string{"meta", "connlog", "kroot", "uptime"} {
		applied += sumSeries(reg2, "ingest_records_total", obs.L("kind", kind))
	}
	applied += sumSeries(reg2, "ingest_records_rejected_total")
	if applied != float64(st2.Replayed) {
		t.Errorf("recovered registry applied %v records, want %d (checkpointed records are restored, not re-applied)", applied, st2.Replayed)
	}
}
