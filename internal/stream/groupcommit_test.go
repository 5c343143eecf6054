package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/obs"
	"dynaddr/internal/stream"
	"dynaddr/internal/wal"
)

// gateFS holds the next WAL file fsync until released. A test arms it,
// sends one record (whose commit then stalls in fsync), queues more
// records behind it, and releases: the shard drains everything queued
// into one group commit, deterministically.
type gateFS struct {
	wal.FS
	mu      sync.Mutex
	armed   bool
	entered chan struct{}
	release chan struct{}
}

type gateFile struct {
	wal.File
	g *gateFS
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gateFile{File: f, g: g}, nil
}

func (f gateFile) Sync() error {
	f.g.mu.Lock()
	armed := f.g.armed
	f.g.armed = false
	entered, release := f.g.entered, f.g.release
	f.g.mu.Unlock()
	if armed {
		close(entered)
		<-release
	}
	return f.File.Sync()
}

// holdCommit arms the gate, runs send (which must ingest one record),
// and waits until that record's commit is stalled in fsync. The
// returned func releases it.
func (g *gateFS) holdCommit(t *testing.T, send func() error) (release func()) {
	t.Helper()
	g.mu.Lock()
	g.armed = true
	g.entered, g.release = make(chan struct{}), make(chan struct{})
	entered, rel := g.entered, g.release
	g.mu.Unlock()
	if err := send(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("commit never reached fsync")
	}
	return func() { close(rel) }
}

// TestDegradedBatchFsyncFailure is the batch-sized fsync failure: a
// whole group commit is written and then its fsync fails. Every record
// of the batch is parked, and on re-arm every one of them is already in
// the reopened log — they must be applied from there exactly once, so
// the recovered state matches the live one byte for byte.
func TestDegradedBatchFsyncFailure(t *testing.T) {
	cfg, ffs := degradedConfig(t, nil)
	gate := &gateFS{FS: ffs}
	cfg.FS = gate
	ing := stream.NewIngester(cfg)
	defer ing.Close()

	if err := ing.Meta(meta(3)); err != nil {
		t.Fatal(err)
	}
	ing.Snapshot()

	uptime := func(h int) error {
		return ing.Uptime(atlasdata.UptimeRecord{Probe: 3, Timestamp: at(h), Uptime: int64(h) * 3600})
	}
	// The held commit's fsync succeeds; the next one — the batch's —
	// fails.
	ffs.FailSyncsAfter(1, errors.New("injected fsync failure"))
	release := gate.holdCommit(t, func() error { return uptime(1) })
	const batch = 50
	for h := 2; h < 2+batch; h++ {
		if err := uptime(h); err != nil {
			t.Fatal(err)
		}
	}
	release()
	waitDegraded(t, ing, 1)
	if got := ing.Snapshot().Records.Uptime; got != 1 {
		t.Fatalf("degraded snapshot Uptime = %d, want 1 (the failed batch stays parked)", got)
	}

	ffs.Heal()
	waitDegraded(t, ing, 0)
	if err := uptime(2 + batch); err != nil {
		t.Fatalf("ingest after re-arm: %v", err)
	}
	if got := ing.Snapshot().Records.Uptime; got != batch+2 {
		t.Fatalf("re-armed snapshot Uptime = %d, want %d", got, batch+2)
	}
	requireRecoversLive(t, cfg, ing, 3)
}

// probeOrdered lists ds's records probe by probe — metadata, then each
// stream in time order — as ingest calls.
func probeOrdered(ds *atlasdata.Dataset) (ids []atlasdata.ProbeID, calls []func(*stream.Ingester) error) {
	for id := range ds.Probes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		m := ds.Probes[id]
		calls = append(calls, func(in *stream.Ingester) error { return in.Meta(m) })
		for _, e := range ds.ConnLogs[id] {
			calls = append(calls, func(in *stream.Ingester) error { return in.ConnLog(e) })
		}
		for _, k := range ds.KRoot[id] {
			calls = append(calls, func(in *stream.Ingester) error { return in.KRoot(k) })
		}
		for _, u := range ds.Uptime[id] {
			calls = append(calls, func(in *stream.Ingester) error { return in.Uptime(u) })
		}
	}
	return ids, calls
}

// TestCheckpointMidBatch floods one shard under SyncAlways with a
// checkpoint every 7 records, so checkpoints fire inside drained group
// commits. Each must cover exactly the records applied so far, not the
// whole staged batch: the recovered snapshot, analysis and every probe
// cursor must be byte-identical to the live ones.
func TestCheckpointMidBatch(t *testing.T) {
	ds := recoverWorld(t, 5)
	reg := obs.NewRegistry()
	gate := &gateFS{FS: wal.OSFS}
	cfg := stream.Config{
		Shards:          1,
		Pfx2AS:          ds.Pfx2AS,
		Analysis:        true,
		WALDir:          t.TempDir(),
		FS:              gate,
		Sync:            wal.SyncAlways,
		CheckpointEvery: 7,
		SegmentBytes:    4096,
		Metrics:         reg,
	}
	ing, _, err := stream.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ids, calls := probeOrdered(ds)
	const buffer = 256 // Config.Buffer's default: the drain bound
	// A checkpoint every 7 records re-serializes the whole shard, so keep
	// the flood to the first few probes' worth.
	if len(calls) < 8*buffer {
		t.Fatalf("world has %d records, want at least %d", len(calls), 8*buffer)
	}
	calls = calls[:8*buffer]
	// Hold the first commit in fsync and fill the queue behind it: the
	// next drain is one full-channel batch spanning dozens of
	// checkpoints. The rest of the flood follows unheld.
	release := gate.holdCommit(t, func() error { return calls[0](ing) })
	for _, call := range calls[1 : 1+buffer] {
		if err := call(ing); err != nil {
			t.Fatal(err)
		}
	}
	release()
	for _, call := range calls[1+buffer:] {
		if err := call(ing); err != nil {
			t.Fatal(err)
		}
	}

	state := func(ing *stream.Ingester) []byte {
		t.Helper()
		out := snapshotBytes(t, ing.Snapshot())
		a, err := ing.Analysis()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, resultBytes(t, a)...)
		for _, id := range ids {
			c, err := ing.Cursor(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
		}
		return out
	}
	want := state(ing)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	appends, fsyncs := sumSeries(reg, "wal_append_total"), sumSeries(reg, "wal_fsync_total")
	if appends != float64(len(calls)) || fsyncs > appends-buffer {
		t.Fatalf("appends = %v, fsyncs = %v: want %d appends and a %d-record group commit", appends, fsyncs, len(calls), buffer)
	}

	rec, st, err := stream.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if st.CheckpointProbes == 0 {
		t.Fatal("no probes restored from a checkpoint")
	}
	if got := state(rec); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs from live one\n got: %.300s\nwant: %.300s", got, want)
	}
}
