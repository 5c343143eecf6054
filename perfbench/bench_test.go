package main

import "testing"

// smallOptions is a durable backfill small enough to finish its whole
// round (the feed's second half, after a warm start from the first) well
// inside the measured time, so its counts cannot depend on how fast the
// machine is.
func smallOptions(t *testing.T) options {
	return options{
		workload: "backfill-durable",
		seed:     7,
		seconds:  300,
		trace:    true,
		scale:    0.02,
		setups:   1,
		outDir:   t.TempDir(),
	}
}

// TestBackfillCountsRepeat runs the traced durable backfill twice with
// one seed: the WAL's write, fsync and byte counts per record, the
// checkpoint count and the generated input must come out identical.
func TestBackfillCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two durable backfills")
	}
	var runs [2]*result
	for i := range runs {
		res, err := run(smallOptions(t))
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct || res.failed != 0 {
			t.Fatalf("run %d: correct=%v failed=%d: %v", i, res.correct, res.failed, res.info)
		}
		if res.fed != res.feedLen {
			t.Fatalf("run %d fed %d of %d records; the counts need the whole round", i, res.fed, res.feedLen)
		}
		runs[i] = res
	}
	a, b := runs[0], runs[1]
	if a.inputBytes != b.inputBytes || a.inputDigest != b.inputDigest {
		t.Errorf("generated input: %d bytes %016x, then %d bytes %016x", a.inputBytes, a.inputDigest, b.inputBytes, b.inputDigest)
	}
	for _, name := range []string{
		"wal.write_calls_per_record",
		"wal.fsync_calls_per_record",
		"wal.bytes_per_record",
		"stream.checkpoints",
	} {
		va, vb := value(t, a, name), value(t, b, name)
		if va != vb {
			t.Errorf("%s: %v, then %v", name, va, vb)
		}
		if va == 0 {
			t.Errorf("%s is 0 on a durable backfill", name)
		}
	}
}

func value(t *testing.T, res *result, name string) float64 {
	t.Helper()
	for _, m := range res.metrics {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("metric %s not reported", name)
	return 0
}

// TestInputsRegenerate: the same seed gives the same feeds, byte for
// byte, in both orders; both orders carry the same records.
func TestInputsRegenerate(t *testing.T) {
	var sizes, digests [2][2]uint64
	for i := range sizes {
		w, err := generate(11, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		for j, seq := range [][]ref{w.probeOrder(), w.timeOrder()} {
			n, d, err := w.inputDigest(seq)
			if err != nil {
				t.Fatal(err)
			}
			sizes[i][j], digests[i][j] = uint64(n), d
		}
	}
	if sizes[0] != sizes[1] || digests[0] != digests[1] {
		t.Errorf("regenerated inputs differ: sizes %v, digests %x", sizes, digests)
	}
	if sizes[0][0] != sizes[0][1] {
		t.Errorf("probe order carries %d bytes, time order %d", sizes[0][0], sizes[0][1])
	}
}

// TestTimeOrderKeepsProbeOrder: the live-tail merge interleaves probes
// by time but leaves every probe's own record order as replay emits it.
func TestTimeOrderKeepsProbeOrder(t *testing.T) {
	w, err := generate(11, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	perProbe := func(seq []ref) map[uint32][]ref {
		out := make(map[uint32][]ref)
		for _, r := range seq {
			out[r.probe] = append(out[r.probe], r)
		}
		return out
	}
	want, got := perProbe(w.probeOrder()), perProbe(w.timeOrder())
	if len(want) != len(got) {
		t.Fatalf("%d probes in time order, %d in probe order", len(got), len(want))
	}
	for p, refs := range want {
		if len(got[p]) != len(refs) {
			t.Fatalf("probe %d: %d records in time order, %d in probe order", p, len(got[p]), len(refs))
		}
		for i := range refs {
			if got[p][i] != refs[i] {
				t.Fatalf("probe %d: record %d is %+v in time order, %+v in probe order", p, i, got[p][i], refs[i])
			}
		}
	}
}
