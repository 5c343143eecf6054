package main

import (
	"container/heap"
	"fmt"
	"hash/fnv"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/sim"
	"dynaddr/internal/wire"
)

// recKind tags one record of the feed.
type recKind uint8

const (
	recMeta recKind = iota
	recConn
	recKRoot
	recUptime
)

// ref points at one record of the generated dataset: its kind, the
// probe's index in world.ids and the record's index in that probe's
// slice of its kind. A feed is a []ref, 12 bytes a record, so the
// 2.2M-record world costs ~26 MB per ordering instead of a copy of
// every record.
type ref struct {
	kind  recKind
	probe uint32
	idx   uint32
}

// world is one generated dataset plus its probe list in ascending ID
// order, the order sim.ReplayDataset walks.
type world struct {
	w   *sim.World
	ds  *atlasdata.Dataset
	ids []atlasdata.ProbeID
}

// generate builds the seeded world with the same generator atlasd's
// -seed flag uses.
func generate(seed uint64, scale float64) (*world, error) {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = scale
	w, err := sim.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating seed %d scale %g: %w", seed, scale, err)
	}
	return &world{w: w, ds: w.Dataset, ids: w.Dataset.ProbeIDs()}, nil
}

// probeStream appends one probe's records in sim.ReplayDataset order:
// metadata first, then the three record streams merged by timestamp
// with ties going to connection entries, then k-root rounds, then
// uptime reports. ts receives each record's merge key; metadata takes
// the key of the probe's first record (or 0 when it has none).
func (w *world) probeStream(pi int, seq []ref, ts []int64) ([]ref, []int64) {
	id := w.ids[pi]
	conns, rounds, ups := w.ds.ConnLogs[id], w.ds.KRoot[id], w.ds.Uptime[id]
	metaAt := len(seq)
	seq = append(seq, ref{kind: recMeta, probe: uint32(pi)})
	ts = append(ts, 0)
	var ci, ki, ui int
	for ci < len(conns) || ki < len(rounds) || ui < len(ups) {
		pick, best := recKind(0), int64(0)
		consider := func(k recKind, t int64) {
			if pick == 0 || t < best {
				pick, best = k, t
			}
		}
		if ci < len(conns) {
			consider(recConn, int64(conns[ci].Start))
		}
		if ki < len(rounds) {
			consider(recKRoot, int64(rounds[ki].Timestamp))
		}
		if ui < len(ups) {
			consider(recUptime, int64(ups[ui].Timestamp))
		}
		r := ref{kind: pick, probe: uint32(pi)}
		switch pick {
		case recConn:
			r.idx = uint32(ci)
			ci++
		case recKRoot:
			r.idx = uint32(ki)
			ki++
		case recUptime:
			r.idx = uint32(ui)
			ui++
		}
		seq = append(seq, r)
		ts = append(ts, best)
	}
	if len(seq) > metaAt+1 {
		ts[metaAt] = ts[metaAt+1]
	}
	return seq, ts
}

// probeOrder is the archive-backfill feed: probes ascending, each
// probe's records in time order — exactly what sim.ReplayDataset emits.
func (w *world) probeOrder() []ref {
	seq, _ := w.probeOrderKeyed()
	return seq
}

func (w *world) probeOrderKeyed() ([]ref, []int64) {
	var seq []ref
	var ts []int64
	for pi := range w.ids {
		seq, ts = w.probeStream(pi, seq, ts)
	}
	return seq, ts
}

// timeOrder is the live-tail feed: every probe's stream merged by
// timestamp (ties by probe ID), each probe's own order kept.
func (w *world) timeOrder() []ref {
	seq, ts := w.probeOrderKeyed()
	h := make(cursorHeap, 0, len(w.ids))
	start := 0
	for start < len(seq) {
		end := start + 1
		for end < len(seq) && seq[end].probe == seq[start].probe {
			end++
		}
		h = append(h, cursor{pos: start, end: end, ts: ts, seq: seq})
		start = end
	}
	heap.Init(&h)
	out := make([]ref, 0, len(seq))
	for h.Len() > 0 {
		c := &h[0]
		out = append(out, seq[c.pos])
		if c.pos++; c.pos == c.end {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return out
}

// cursor walks one probe's segment of the probe-ordered feed.
type cursor struct {
	pos, end int
	ts       []int64
	seq      []ref
}

type cursorHeap []cursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	a, b := h[i].ts[h[i].pos], h[j].ts[h[j].pos]
	if a != b {
		return a < b
	}
	return h[i].seq[h[i].pos].probe < h[j].seq[h[j].pos].probe
}
func (h cursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)   { *h = append(*h, x.(cursor)) }
func (h *cursorHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

// emit delivers one record to a sink (a producer or an ingester).
func (w *world) emit(r ref, sink sim.RecordSink) error {
	id := w.ids[r.probe]
	switch r.kind {
	case recMeta:
		return sink.Meta(w.ds.Probes[id])
	case recConn:
		return sink.ConnLog(w.ds.ConnLogs[id][r.idx])
	case recKRoot:
		return sink.KRoot(w.ds.KRoot[id][r.idx])
	default:
		return sink.Uptime(w.ds.Uptime[id][r.idx])
	}
}

// prefixDataset returns the dataset that holds exactly the records of
// seq. Any prefix of either feed keeps each probe's own order, so per
// probe it is a prefix of every record slice; sim.ReplayDataset over
// the result streams the same per-probe records in probe order.
func (w *world) prefixDataset(seq []ref) *atlasdata.Dataset {
	ds := atlasdata.NewDataset()
	ds.Pfx2AS = w.ds.Pfx2AS
	type counts struct{ conn, kroot, up int }
	per := make(map[uint32]*counts)
	for _, r := range seq {
		c := per[r.probe]
		if c == nil {
			c = &counts{}
			per[r.probe] = c
		}
		switch r.kind {
		case recConn:
			c.conn++
		case recKRoot:
			c.kroot++
		case recUptime:
			c.up++
		}
	}
	for pi, c := range per {
		id := w.ids[pi]
		ds.Probes[id] = w.ds.Probes[id]
		if c.conn > 0 {
			ds.ConnLogs[id] = w.ds.ConnLogs[id][:c.conn]
		}
		if c.kroot > 0 {
			ds.KRoot[id] = w.ds.KRoot[id][:c.kroot]
		}
		if c.up > 0 {
			ds.Uptime[id] = w.ds.Uptime[id][:c.up]
		}
	}
	return ds
}

// batchSink frames records into wire batches of a fixed size, the
// shape the producer's binary codec POSTs. fn receives each batch and
// its record count; the bytes are reused after fn returns.
type batchSink struct {
	size int
	bw   wire.BatchWriter
	fn   func(batch []byte, records int) error
}

func (b *batchSink) after(err error) error {
	if err != nil {
		return err
	}
	if b.bw.Records() >= b.size {
		return b.flush()
	}
	return nil
}

func (b *batchSink) flush() error {
	if b.bw.Records() == 0 {
		return nil
	}
	err := b.fn(b.bw.Bytes(), b.bw.Records())
	b.bw.Reset()
	return err
}

func (b *batchSink) Meta(m atlasdata.ProbeMeta) error       { return b.after(b.bw.Meta(m)) }
func (b *batchSink) ConnLog(e atlasdata.ConnLogEntry) error { return b.after(b.bw.ConnLog(e)) }
func (b *batchSink) KRoot(k atlasdata.KRootRound) error     { return b.after(b.bw.KRoot(k)) }
func (b *batchSink) Uptime(u atlasdata.UptimeRecord) error  { return b.after(b.bw.Uptime(u)) }

// forBatches frames seq into wire batches of size records.
func (w *world) forBatches(seq []ref, size int, fn func(batch []byte, records int) error) error {
	b := &batchSink{size: size, fn: fn}
	for _, r := range seq {
		if err := w.emit(r, b); err != nil {
			return err
		}
	}
	return b.flush()
}

// inputDigest wire-encodes the whole feed once — the input the
// generator will send — and returns its size and an FNV-64a digest, so
// two runs can prove they fed identical bytes.
func (w *world) inputDigest(seq []ref) (bytes int64, digest uint64, err error) {
	h := fnv.New64a()
	err = w.forBatches(seq, producerBatch, func(batch []byte, _ int) error {
		bytes += int64(len(batch))
		h.Write(batch) //nolint:errcheck // hash writes never fail
		return nil
	})
	return bytes, h.Sum64(), err
}
