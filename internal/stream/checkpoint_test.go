package stream_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/sim"
	"dynaddr/internal/stream"
	"dynaddr/internal/wire"
)

// durableRun streams the whole dataset through a fresh durable ingester
// at cfg and closes it, returning its final snapshot bytes.
func durableRun(t testing.TB, ds *atlasdata.Dataset, cfg stream.Config) []byte {
	t.Helper()
	ing, _, err := stream.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.ReplayDataset(ds, ing); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	return snapshotBytes(t, ing.Snapshot())
}

// resum rewrites a checkpoint document's CRC32C trailer to match its
// (possibly damaged) body, so damage reaches the body decoder instead
// of stopping at the checksum.
func resum(doc []byte) []byte {
	out := bytes.Clone(doc)
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(body):], wire.Checksum(body))
	return out
}

// firstProbe returns the offset of the first probe's ID in a checkpoint
// document: past the header, the record counts, the AS session counts
// and, when the analysis flag is set, the churn table and its days.
func firstProbe(doc []byte) int {
	off := 72
	off += 4 + 12*int(binary.LittleEndian.Uint32(doc[off:]))
	if doc[8]&1 != 0 {
		off += 44
		off += 4 + 48*int(binary.LittleEndian.Uint32(doc[off:]))
	}
	return off + 4
}

// checkpointDamages are the corruption cases every checkpoint reader
// must refuse. The first four damage the framing; the rest damage the
// body under a valid checksum.
var checkpointDamages = []struct {
	name   string
	damage func(doc []byte) []byte
}{
	{"flipped byte", func(d []byte) []byte { d[len(d)/2] ^= 0x01; return d }},
	{"truncated", func(d []byte) []byte { return d[:len(d)*2/3] }},
	{"wrong magic", func(d []byte) []byte { d[0] = 'X'; return d }},
	{"unknown version", func(d []byte) []byte { binary.LittleEndian.PutUint32(d[4:], 3); return d }},
	{"trailing bytes", func(d []byte) []byte { return resum(append(d, 0, 0, 0, 0, 0)) }},
	// Offset 72 is the AS session count, just past the header and the
	// five record counts.
	{"count past end", func(d []byte) []byte { binary.LittleEndian.PutUint32(d[72:], 1<<31); return resum(d) }},
	// A first probe ID above every other breaks the ascending order
	// that makes the bytes canonical.
	{"probes out of order", func(d []byte) []byte {
		binary.LittleEndian.PutUint64(d[firstProbe(d):], 1<<62)
		return resum(d)
	}},
}

// TestCheckpointCorruption runs each damaged checkpoint through
// Recover: every one is refused with an error naming the shard
// directory, no ingester (and so no partial state) comes back, and the
// undamaged document still recovers the exact state.
func TestCheckpointCorruption(t *testing.T) {
	ds := recoverWorld(t, 7)
	dir := t.TempDir()
	cfg := durableConfig(ds, dir, 4)
	cfg.Analysis = true
	want := durableRun(t, ds, cfg)

	// A middle shard, so the shards recovered before it are closed again.
	shardDir := filepath.Join(dir, "shard-002")
	path := filepath.Join(shardDir, "checkpoint.bin")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range checkpointDamages {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.damage(bytes.Clone(orig)), 0o644); err != nil {
				t.Fatal(err)
			}
			rec, _, err := stream.Recover(cfg)
			if err == nil {
				rec.Close()
				t.Fatal("damaged checkpoint recovered")
			}
			if rec != nil {
				t.Error("refused recovery returned an ingester")
			}
			if !strings.Contains(err.Error(), shardDir) {
				t.Errorf("error does not name %s: %v", shardDir, err)
			}
		})
	}

	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, _, err := stream.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := snapshotBytes(t, rec.Snapshot())
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("undamaged checkpoint no longer recovers the original state")
	}
}

// TestCheckpointLegacyJSON pins the upgrade rule: a shard directory
// still holding a version-1 checkpoint.json is refused, naming the
// file. Starting it empty would replay a WAL whose prefix the JSON
// checkpoint had already truncated.
func TestCheckpointLegacyJSON(t *testing.T) {
	ds := recoverWorld(t, 3)
	dir := t.TempDir()
	cfg := durableConfig(ds, dir, 2)
	durableRun(t, ds, cfg)

	shardDir := filepath.Join(dir, "shard-001")
	if err := os.Remove(filepath.Join(shardDir, "checkpoint.bin")); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(shardDir, "checkpoint.json")
	if err := os.WriteFile(legacy, []byte(`{"version":1,"shard":1,"seq":64,"counts":{},"probes":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, _, err := stream.Recover(cfg)
	if err == nil {
		rec.Close()
		t.Fatal("legacy JSON checkpoint recovered")
	}
	if !strings.Contains(err.Error(), legacy) {
		t.Errorf("error does not name %s: %v", legacy, err)
	}
}

// TestCheckpointRoundTrip checks that the codec is canonical: at
// several barriers, with analysis on and off, a shard's encoded state
// decodes and re-encodes to the identical bytes.
func TestCheckpointRoundTrip(t *testing.T) {
	ds := recoverWorld(t, 3)
	total := totalRecords(ds)
	for _, analysis := range []bool{false, true} {
		for _, frac := range []int{1, 2, 3, 4} {
			t.Run(fmt.Sprintf("analysis=%v/at=%d-4", analysis, frac), func(t *testing.T) {
				ing := stream.NewIngester(stream.Config{Shards: 2, Pfx2AS: ds.Pfx2AS, Analysis: analysis})
				defer ing.Close()
				err := sim.ReplayDataset(ds, &stopAfter{ing: ing, left: total * frac / 4})
				if err != nil && !errors.Is(err, errStop) {
					t.Fatal(err)
				}
				for p := 0; p < 2; p++ {
					st, err := ing.ReleasePartition(p)
					if err != nil {
						t.Fatal(err)
					}
					again, err := stream.ReencodeCheckpoint(st.Checkpoint, analysis)
					if err != nil {
						t.Fatalf("partition %d: %v", p, err)
					}
					if !bytes.Equal(again, st.Checkpoint) {
						t.Errorf("partition %d: re-encoded checkpoint differs (%d vs %d bytes)", p, len(again), len(st.Checkpoint))
					}
				}
			})
		}
	}
}

// TestCheckpointAnalysisModes pins the documented degradation across
// analysis modes: a checkpoint written without analysis restores the
// classification state exactly and empty detectors (the analysis then
// covers only the replayed tail), and one written with analysis
// restores into an analysis-off ingester with its detectors dropped.
func TestCheckpointAnalysisModes(t *testing.T) {
	ds := recoverWorld(t, 11)
	ref := stream.NewIngester(stream.Config{Shards: 2, Pfx2AS: ds.Pfx2AS, Analysis: true})
	if err := sim.ReplayDataset(ds, ref); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := ref.Analysis()
	if err != nil {
		t.Fatal(err)
	}

	for _, written := range []bool{false, true} {
		t.Run(fmt.Sprintf("written-with-analysis=%v", written), func(t *testing.T) {
			cfg := durableConfig(ds, t.TempDir(), 2)
			cfg.Analysis = written
			want := durableRun(t, ds, cfg)

			cfg.Analysis = !written
			rec, st, err := stream.Recover(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if st.CheckpointProbes == 0 {
				t.Fatal("no probes restored from a checkpoint")
			}
			if got := snapshotBytes(t, rec.Snapshot()); !bytes.Equal(got, want) {
				t.Error("snapshot differs after recovering across analysis modes")
			}
			if !cfg.Analysis {
				return
			}
			res, err := rec.Analysis()
			if err != nil {
				t.Fatal(err)
			}
			if res.Table7All.Changes >= full.Table7All.Changes {
				t.Errorf("analysis after an analysis-off checkpoint counts %d changes, want fewer than the full %d",
					res.Table7All.Changes, full.Table7All.Changes)
			}
		})
	}
}

// TestCheckpointProbeMinSize keeps the decoder's per-probe lower bound
// (used to refuse impossible probe counts before allocating) equal to
// the size of an empty probe.
func TestCheckpointProbeMinSize(t *testing.T) {
	if got := stream.EmptyProbeSize(); got != stream.ProbeMinSize {
		t.Fatalf("empty probe encodes to %d bytes, decoder assumes at least %d", got, stream.ProbeMinSize)
	}
}

// tinyCheckpoints encodes the first few records of a handful of probes,
// with and without analysis: small real documents to seed the fuzzer.
func tinyCheckpoints(t testing.TB) [][]byte {
	ds := recoverWorld(t, 3)
	tiny := atlasdata.NewDataset()
	tiny.Pfx2AS = ds.Pfx2AS
	for _, id := range ds.ProbeIDs()[:4] {
		tiny.Probes[id] = ds.Probes[id]
		tiny.ConnLogs[id] = ds.ConnLogs[id][:min(8, len(ds.ConnLogs[id]))]
		tiny.KRoot[id] = ds.KRoot[id][:min(8, len(ds.KRoot[id]))]
		tiny.Uptime[id] = ds.Uptime[id][:min(8, len(ds.Uptime[id]))]
	}
	var docs [][]byte
	for _, analysis := range []bool{false, true} {
		ing := stream.NewIngester(stream.Config{Shards: 1, Pfx2AS: tiny.Pfx2AS, Analysis: analysis})
		if err := sim.ReplayDataset(tiny, ing); err != nil {
			t.Fatal(err)
		}
		st, err := ing.ReleasePartition(0)
		if err != nil {
			t.Fatal(err)
		}
		ing.Close()
		docs = append(docs, st.Checkpoint)
	}
	return docs
}

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint decoder:
// it must never panic or allocate beyond the input, and — once the
// checksum is made to match, so mutations reach the body parser — any
// document it accepts must re-encode to exactly the same bytes.
func FuzzCheckpointDecode(f *testing.F) {
	for _, doc := range tinyCheckpoints(f) {
		f.Add(doc)
		for _, tc := range checkpointDamages {
			f.Add(tc.damage(bytes.Clone(doc)))
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		for _, analysis := range []bool{false, true} {
			_, _ = stream.ReencodeCheckpoint(doc, analysis)
		}
		if len(doc) < 36 {
			return
		}
		fixed := resum(doc)
		written := fixed[8]&1 != 0
		for _, analysis := range []bool{false, true} {
			again, err := stream.ReencodeCheckpoint(fixed, analysis)
			if err == nil && analysis == written && !bytes.Equal(again, fixed) {
				t.Fatalf("accepted document re-encodes differently (%d vs %d bytes)", len(again), len(fixed))
			}
		}
	})
}

// BenchmarkCheckpoint measures one shard's checkpoint at the size a
// backfill-durable shard carries at its round's midpoint: ~150 probes
// of the seed-77 world, full histories, live analysis on. "encode"
// streams the document to io.Discard (encode + CRC); "write" is the
// durable path (encode, write, fsync, rename, directory sync).
func BenchmarkCheckpoint(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Seed = 77
	cfg.Scale = 0.13
	world, err := sim.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ds := world.Dataset
	ing := stream.NewIngester(stream.Config{Shards: 1, Pfx2AS: ds.Pfx2AS, Analysis: true})
	if err := sim.ReplayDataset(ds, ing); err != nil {
		b.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		b.Fatal(err)
	}
	probes := float64(len(ds.Probes))

	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var n int64
		for i := 0; i < b.N; i++ {
			if n, err = ing.EncodeCheckpoint(0, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n), "B/ckpt")
		b.ReportMetric(probes, "probes")
	})
	b.Run("write", func(b *testing.B) {
		dir := b.TempDir()
		b.ReportAllocs()
		var n int64
		for i := 0; i < b.N; i++ {
			if n, err = ing.WriteCheckpoint(0, dir); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n), "B/ckpt")
		b.ReportMetric(probes, "probes")
	})
}
