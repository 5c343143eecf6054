package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"dynaddr/internal/asdb"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/core"
	"dynaddr/internal/ip4"
	"dynaddr/internal/liveanalysis"
	"dynaddr/internal/simclock"
	"dynaddr/internal/wire"
)

// A checkpoint is one shard's full analysis state, serialized while the
// shard is quiescent (checkpointing runs in the shard goroutine between
// records) and written atomically: temp file, fsync, rename, directory
// sync. A crash mid-checkpoint therefore leaves the previous checkpoint
// intact.
//
// The document is binary, fixed-width little-endian in the style of the
// wire record codec, and streamed to disk through a small staging
// buffer under a running CRC32C, so it is never held whole:
//
//	header:  4B magic "DYCK", u32 version, u32 flags (bit 0: analysis),
//	         u32 shard, u64 seq, u64 generation
//	body:    5 × i64 record counts (meta, connlog, kroot, uptime, rejected)
//	         u32 n, n × (u32 asn, i64 sessions)          sessions by AS
//	         [analysis] churn: row outside, u32 n, n × (u32 day, row)
//	         u32 n, n × probe                            probe states
//	trailer: u32 CRC32C of every byte before it
//
// where a row is a core.PrefixChangeRow (u32 asn, 5 × i64) and a probe
// is laid out by appendProbeState. Floats are stored as their IEEE-754
// bits and totals verbatim rather than re-accumulated, and every map is
// written in ascending key order, so the bytes are a pure function of
// the state and a state restored from checkpoint + WAL replay is
// byte-identical to one that never crashed. Decoding is strict: the
// decoder accepts exactly the documents the encoder can produce, and
// checks every count against the bytes left before allocating for it.
//
// The analysis flag says whether the document carries live-analysis
// state (the churn table and a detector per probe). A shard restoring a
// document without it under Config.Analysis starts with empty detectors
// — the analysis then covers only records replayed after the checkpoint
// — and an analysis-off shard skips the analysis state: degradations,
// not incompatibilities.

const (
	checkpointMagic   = "DYCK"
	checkpointVersion = 2
	checkpointFile    = "checkpoint.bin"
	// legacyCheckpointFile is the JSON checkpoint of version 1. Recovery
	// refuses it rather than starting the shard empty: its WAL below the
	// checkpoint was truncated, so a replay from sequence 1 would
	// silently lose that state.
	legacyCheckpointFile = "checkpoint.json"

	ckptHeaderSize  = 32
	ckptTrailerSize = 4
	ckptAnalysis    = 1 << 0
	// ckptChunk is the staging buffer the encoder fills before handing
	// bytes to the writer; a probe larger than it grows it once.
	ckptChunk = 64 << 10
)

// Per-probe flag bits: every boolean of probeState.
const (
	pfHasMeta = 1 << iota
	pfAllV4Single
	pfStripped
	pfPrevSet
	pfPrevIsV4
	pfSegActive
	pfSegBounded
	pfHomeConsistent
	pfMultiAS
	pfHasGap
	pfLastGapLinked
	pfLossActive
	pfKRootSeen
	pfUpSeen
	pfAll = pfUpSeen<<1 - 1
)

// errCheckpoint marks a checkpoint document that does not decode.
var errCheckpoint = errors.New("malformed checkpoint")

// ckptHeader is a checkpoint document's fixed header.
type ckptHeader struct {
	analysis bool
	shard    int
	// seq is the last WAL sequence the checkpoint covers; recovery
	// replays from seq+1.
	seq uint64
	// gen counts the shard's completed checkpoints: this document is
	// number gen.
	gen uint64
}

// checkpointState is a fully decoded checkpoint. Decoding completes
// before any of it reaches a shard, so a damaged document never leaves
// a partial state behind.
type checkpointState struct {
	ckptHeader
	counts       RecordCounts
	sessionsByAS map[uint32]int64
	churn        *liveanalysis.ChurnTable // nil for an analysis-off shard
	states       map[atlasdata.ProbeID]*probeState
}

func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendI64(dst []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(dst, uint64(v)) }
func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendLen(dst []byte, n int) []byte { return appendU32(dst, uint32(n)) }

func appendString(dst []byte, s string) []byte { return append(appendLen(dst, len(s)), s...) }

func appendRow(dst []byte, r core.PrefixChangeRow) []byte {
	dst = appendU32(dst, r.ASN)
	dst = appendI64(dst, int64(r.Changes))
	dst = appendI64(dst, int64(r.DiffBGP))
	dst = appendI64(dst, int64(r.DiffS16))
	dst = appendI64(dst, int64(r.DiffS8))
	return appendI64(dst, int64(r.Unrouted))
}

const rowSize = 4 + 5*8

// appendProbeState appends one probe's state:
//
//	i64 id, u32 flags
//	[meta] i64 version, f64 connected days, u32 len + country,
//	       u32 n, n × (u32 len + tag)
//	i64 meta/connlog/kroot/uptime counts, raw entries, v4, v6,
//	    connected seconds, sessions
//	u32 first v4, u32 run prev, i64 run total, u32 n, n × (u32 addr, i64 runs)
//	u32 prev addr, i64 prev end, last conn start, last conn end
//	u32 seg addr, i64 seg start, seg end
//	i64 changes, f64 ttf total, u32 n, n × (f64 value, f64 mass)
//	u32 home asn, i64 last gap from, to, outage-linked
//	u32 n, n × (i64 from, i64 to) recent outages; u32 n, n × i64 recent reboots
//	i64 loss start, end, first lts, last lts, rounds
//	i64 network outages, last kroot, prev boot, last uptime, reboots, rejected
//	[analysis] detector, as appendDetector
//
// The metadata's probe ID is implicit: a shard only ever stores a
// probe's metadata under that probe's ID. addrs is a key buffer reused
// across probes.
func appendProbeState(dst []byte, ps *probeState, analysis bool, addrs *[]uint32) []byte {
	var flags uint32
	for bit, v := range [...]bool{ps.hasMeta, ps.allV4Single, ps.stripped, ps.prevSet,
		ps.prevIsV4, ps.seg.active, ps.seg.bounded, ps.homeConsistent, ps.multiAS,
		ps.hasGap, ps.lastGapLinked, ps.loss.active, ps.kRootSeen, ps.upSeen} {
		if v {
			flags |= 1 << bit
		}
	}
	dst = appendI64(dst, int64(ps.id))
	dst = appendU32(dst, flags)
	if ps.hasMeta {
		dst = appendI64(dst, int64(ps.meta.Version))
		dst = appendF64(dst, ps.meta.ConnectedDays)
		dst = appendString(dst, ps.meta.Country)
		dst = appendLen(dst, len(ps.meta.Tags))
		for _, t := range ps.meta.Tags {
			dst = appendString(dst, t)
		}
	}
	for _, v := range [...]int64{ps.metaCount, ps.connCount, ps.kRootCount, ps.uptimeCount,
		int64(ps.rawEntries), int64(ps.v4Count), int64(ps.v6Count), ps.connectedSecs, ps.sessions} {
		dst = appendI64(dst, v)
	}

	dst = appendU32(dst, uint32(ps.firstV4Addr))
	dst = appendU32(dst, ps.runPrevAddr)
	dst = appendI64(dst, int64(ps.runTotal))
	keys := (*addrs)[:0]
	for a := range ps.runCount {
		keys = append(keys, a)
	}
	slices.Sort(keys)
	*addrs = keys
	dst = appendLen(dst, len(keys))
	for _, a := range keys {
		dst = appendU32(dst, a)
		dst = appendI64(dst, int64(ps.runCount[a]))
	}

	dst = appendU32(dst, uint32(ps.prevAddr))
	dst = appendI64(dst, int64(ps.prevEnd))
	dst = appendI64(dst, int64(ps.lastConnStart))
	dst = appendI64(dst, int64(ps.lastConnEnd))
	dst = appendU32(dst, uint32(ps.seg.addr))
	dst = appendI64(dst, int64(ps.seg.start))
	dst = appendI64(dst, int64(ps.seg.end))

	dst = appendI64(dst, ps.changes)
	dst = appendF64(dst, ps.ttf.Total())
	values := ps.ttf.Values()
	dst = appendLen(dst, len(values))
	for _, v := range values {
		dst = appendF64(dst, v)
		dst = appendF64(dst, ps.ttf.MassOf(v))
	}

	dst = appendU32(dst, uint32(ps.homeASN))
	dst = appendI64(dst, int64(ps.lastGap.from))
	dst = appendI64(dst, int64(ps.lastGap.to))
	dst = appendI64(dst, ps.outageLinked)
	dst = appendLen(dst, len(ps.recentOutages))
	for _, o := range ps.recentOutages {
		dst = appendI64(dst, int64(o.from))
		dst = appendI64(dst, int64(o.to))
	}
	dst = appendLen(dst, len(ps.recentReboots))
	for _, t := range ps.recentReboots {
		dst = appendI64(dst, int64(t))
	}

	for _, v := range [...]int64{int64(ps.loss.start), int64(ps.loss.end), ps.loss.firstLTS,
		ps.loss.lastLTS, int64(ps.loss.rounds), ps.networkOutages, int64(ps.lastKRoot),
		int64(ps.prevBoot), int64(ps.lastUptime), ps.reboots, ps.rejected} {
		dst = appendI64(dst, v)
	}
	if analysis {
		dst = appendDetector(dst, ps.det)
	}
	return dst
}

// appendDetector appends a probe's live-analysis detector:
//
//	u32 n, n × f64 raw hours
//	u32 n, n × (i64 prev end, i64 next start, u8 changed)   gaps
//	u32 n, n × (i64 probe, i64 start, i64 end)              network outages
//	u32 n, n × (i64 probe, i64 at)                          reboots
//	u32 n, n × (i64 start, i64 end, u8 open)                reboot gaps
//	row prefix, u32 n, n × i64 rounds, i64 last uptime
func appendDetector(dst []byte, det *liveanalysis.Detector) []byte {
	dst = appendLen(dst, len(det.RawHours))
	for _, h := range det.RawHours {
		dst = appendF64(dst, h)
	}
	dst = appendLen(dst, len(det.Gaps))
	for _, g := range det.Gaps {
		dst = appendI64(dst, int64(g.PrevEnd))
		dst = appendI64(dst, int64(g.NextStart))
		dst = appendBool(dst, g.Changed)
	}
	dst = appendLen(dst, len(det.Networks))
	for _, n := range det.Networks {
		dst = appendI64(dst, int64(n.Probe))
		dst = appendI64(dst, int64(n.Start))
		dst = appendI64(dst, int64(n.End))
	}
	dst = appendLen(dst, len(det.Reboots))
	for _, r := range det.Reboots {
		dst = appendI64(dst, int64(r.Probe))
		dst = appendI64(dst, int64(r.At))
	}
	dst = appendLen(dst, len(det.RebootGaps))
	for _, g := range det.RebootGaps {
		dst = appendI64(dst, int64(g.Start))
		dst = appendI64(dst, int64(g.End))
		dst = appendBool(dst, g.Open)
	}
	dst = appendRow(dst, det.Prefix)
	dst = appendLen(dst, len(det.Rounds))
	for _, t := range det.Rounds {
		dst = appendI64(dst, int64(t))
	}
	return appendI64(dst, int64(det.LastUptime))
}

// ckptWriter streams a document to w in chunks, keeping its length and
// running CRC32C. The first write error sticks.
type ckptWriter struct {
	w   io.Writer
	sum uint32
	n   int64
	err error
}

// flush writes b and returns it emptied for reuse.
func (cw *ckptWriter) flush(b []byte) []byte {
	if cw.err == nil {
		cw.sum = wire.ChecksumUpdate(cw.sum, b)
		var n int
		n, cw.err = cw.w.Write(b)
		cw.n += int64(n)
	}
	return b[:0]
}

// encodeCheckpoint streams the shard's current state to w as a
// checkpoint document covering the last applied sequence, and returns
// the bytes written. Runs in the shard goroutine (or on a stopped
// shard), so the state is quiescent.
func (s *shard) encodeCheckpoint(w io.Writer) (int64, error) {
	analysis := s.churn != nil
	cw := ckptWriter{w: w}
	b := append(make([]byte, 0, ckptChunk), checkpointMagic...)
	b = appendU32(b, checkpointVersion)
	var flags uint32
	if analysis {
		flags |= ckptAnalysis
	}
	b = appendU32(b, flags)
	b = appendU32(b, uint32(s.index))
	b = binary.LittleEndian.AppendUint64(b, s.lastSeq)
	b = binary.LittleEndian.AppendUint64(b, s.gen)

	c := s.counts
	for _, v := range [...]int64{c.Meta, c.ConnLogs, c.KRoot, c.Uptime, c.Rejected} {
		b = appendI64(b, v)
	}
	asns := make([]uint32, 0, len(s.sessionsByAS))
	for asn := range s.sessionsByAS {
		asns = append(asns, asn)
	}
	slices.Sort(asns)
	b = appendLen(b, len(asns))
	for _, asn := range asns {
		b = appendU32(b, asn)
		b = appendI64(b, s.sessionsByAS[asn])
	}
	if analysis {
		b = appendRow(b, s.churn.Outside())
		cells := s.churn.Cells()
		b = appendLen(b, len(cells))
		for _, c := range cells {
			b = appendU32(b, uint32(c.Day))
			b = appendRow(b, c.Row)
		}
	}

	ids := make([]atlasdata.ProbeID, 0, len(s.states))
	for id := range s.states {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	b = appendLen(b, len(ids))
	var addrs []uint32
	for _, id := range ids {
		b = appendProbeState(b, s.states[id], analysis, &addrs)
		if len(b) >= ckptChunk {
			b = cw.flush(b)
		}
	}
	b = cw.flush(b)
	cw.flush(appendU32(b, cw.sum)) // the trailer
	return cw.n, cw.err
}

// restore installs a decoded checkpoint into a freshly allocated shard
// (before its goroutine starts).
func (s *shard) restore(ck *checkpointState) {
	s.counts = ck.counts
	s.gen = ck.gen
	s.sessionsByAS = ck.sessionsByAS
	s.churn = ck.churn
	s.states = ck.states
}

// parseCheckpointHeader checks a document's magic, version and CRC32C
// and returns its header, without decoding the body.
func parseCheckpointHeader(data []byte) (ckptHeader, error) {
	var h ckptHeader
	if len(data) < 8 || string(data[:4]) != checkpointMagic {
		return h, fmt.Errorf("%w: not a checkpoint document (bad magic)", errCheckpoint)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != checkpointVersion {
		return h, fmt.Errorf("%w: version %d, want %d", errCheckpoint, v, checkpointVersion)
	}
	if len(data) < ckptHeaderSize+ckptTrailerSize {
		return h, fmt.Errorf("%w: truncated at %d bytes", errCheckpoint, len(data))
	}
	body := data[:len(data)-ckptTrailerSize]
	if sum := binary.LittleEndian.Uint32(data[len(body):]); wire.Checksum(body) != sum {
		return h, fmt.Errorf("%w: checksum mismatch (truncated or damaged)", errCheckpoint)
	}
	flags := binary.LittleEndian.Uint32(data[8:])
	if flags&^ckptAnalysis != 0 {
		return h, fmt.Errorf("%w: unknown header flags %#x", errCheckpoint, flags)
	}
	h.analysis = flags&ckptAnalysis != 0
	h.shard = int(binary.LittleEndian.Uint32(data[12:]))
	h.seq = binary.LittleEndian.Uint64(data[16:])
	h.gen = binary.LittleEndian.Uint64(data[24:])
	return h, nil
}

// ckptReader is a bounds-checked little-endian reader over a checkpoint
// body. Methods record the first failure and return zero values after
// it; callers check err once at the end.
type ckptReader struct {
	b   []byte
	off int
	err error
}

func (r *ckptReader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", errCheckpoint, msg, r.off)
	}
}

func (r *ckptReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b)-r.off {
		r.fail("truncated")
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *ckptReader) u32() uint32 {
	if v := r.take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (r *ckptReader) i64() int64 {
	if v := r.take(8); v != nil {
		return int64(binary.LittleEndian.Uint64(v))
	}
	return 0
}

func (r *ckptReader) f64() float64 { return math.Float64frombits(uint64(r.i64())) }

func (r *ckptReader) time() simclock.Time { return simclock.Time(r.i64()) }

// bool reads a byte that must be 0 or 1.
func (r *ckptReader) bool() bool {
	v := r.take(1)
	if v == nil {
		return false
	}
	if v[0] > 1 {
		r.off--
		r.fail(fmt.Sprintf("boolean byte %d", v[0]))
	}
	return v[0] == 1
}

// count reads a u32 element count and checks that that many elements
// of at least minSize bytes fit in what is left, so no allocation sized
// by it can exceed the document.
func (r *ckptReader) count(minSize int, what string) int {
	n := int(r.u32())
	if r.err == nil && n > (len(r.b)-r.off)/minSize {
		r.fail(fmt.Sprintf("%d %s do not fit in %d bytes", n, what, len(r.b)-r.off))
		return 0
	}
	return n
}

func (r *ckptReader) string() string {
	return string(r.take(r.count(1, "string bytes")))
}

func (r *ckptReader) row() core.PrefixChangeRow {
	return core.PrefixChangeRow{ASN: r.u32(), Changes: int(r.i64()), DiffBGP: int(r.i64()),
		DiffS16: int(r.i64()), DiffS8: int(r.i64()), Unrouted: int(r.i64())}
}

// probeMinSize is the size of the smallest encoded probe: no metadata,
// empty lists, no detector (TestCheckpointProbeMinSize keeps it equal
// to what appendProbeState writes).
const probeMinSize = 296

// decodeCheckpoint validates and decodes a whole document for a shard
// running with (analysis) or without live analysis. The decoded state
// is complete or absent: nothing of a refused document is kept.
func decodeCheckpoint(data []byte, analysis bool) (*checkpointState, error) {
	h, err := parseCheckpointHeader(data)
	if err != nil {
		return nil, err
	}
	ck := &checkpointState{ckptHeader: h}
	r := &ckptReader{b: data[:len(data)-ckptTrailerSize], off: ckptHeaderSize}
	ck.counts = RecordCounts{Meta: r.i64(), ConnLogs: r.i64(), KRoot: r.i64(), Uptime: r.i64(), Rejected: r.i64()}

	n := r.count(12, "AS session counts")
	ck.sessionsByAS = make(map[uint32]int64, n)
	for i, prev := 0, uint32(0); i < n && r.err == nil; i++ {
		asn := r.u32()
		if i > 0 && asn <= prev {
			r.fail(fmt.Sprintf("AS %d after AS %d", asn, prev))
		}
		ck.sessionsByAS[asn] = r.i64()
		prev = asn
	}

	churn := &liveanalysis.ChurnTable{}
	if h.analysis {
		outside := r.row()
		n := r.count(4+rowSize, "churn days")
		cells := make([]liveanalysis.ChurnCell, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			cells = append(cells, liveanalysis.ChurnCell{Day: int(r.u32()), Row: r.row()})
		}
		if r.err == nil {
			if err := churn.Restore(cells, outside); err != nil {
				r.fail(err.Error())
			}
		}
	}
	if analysis {
		ck.churn = churn
	}

	n = r.count(probeMinSize, "probes")
	ck.states = make(map[atlasdata.ProbeID]*probeState, n)
	var prev atlasdata.ProbeID
	for i := 0; i < n && r.err == nil; i++ {
		ps := r.probeState(h.analysis, ck.churn)
		if i > 0 && ps.id <= prev {
			r.fail(fmt.Sprintf("probe %d after probe %d", ps.id, prev))
		}
		ck.states[ps.id] = ps
		prev = ps.id
	}
	if r.err == nil && r.off != len(r.b) {
		r.fail(fmt.Sprintf("%d trailing bytes", len(r.b)-r.off))
	}
	if r.err != nil {
		return nil, r.err
	}
	return ck, nil
}

// probeState decodes one probe laid out by appendProbeState. hasDet
// says the document carries a detector; churn is the restoring shard's
// table (nil when its analysis is off, which drops the detector).
func (r *ckptReader) probeState(hasDet bool, churn *liveanalysis.ChurnTable) *probeState {
	ps := newProbeState(atlasdata.ProbeID(r.i64()), churn)
	flags := r.u32()
	if flags&^pfAll != 0 {
		r.fail(fmt.Sprintf("unknown probe flags %#x", flags))
	}
	ps.hasMeta = flags&pfHasMeta != 0
	ps.allV4Single = flags&pfAllV4Single != 0
	ps.stripped = flags&pfStripped != 0
	ps.prevSet = flags&pfPrevSet != 0
	ps.prevIsV4 = flags&pfPrevIsV4 != 0
	ps.seg.active = flags&pfSegActive != 0
	ps.seg.bounded = flags&pfSegBounded != 0
	ps.homeConsistent = flags&pfHomeConsistent != 0
	ps.multiAS = flags&pfMultiAS != 0
	ps.hasGap = flags&pfHasGap != 0
	ps.lastGapLinked = flags&pfLastGapLinked != 0
	ps.loss.active = flags&pfLossActive != 0
	ps.kRootSeen = flags&pfKRootSeen != 0
	ps.upSeen = flags&pfUpSeen != 0
	if ps.hasMeta {
		m := &ps.meta
		m.ID = ps.id
		m.Version = atlasdata.ProbeVersion(r.i64())
		m.ConnectedDays = r.f64()
		m.Country = r.string()
		if n := r.count(4, "tags"); n > 0 {
			m.Tags = make([]string, n)
			for i := range m.Tags {
				m.Tags[i] = r.string()
			}
		}
	}
	ps.metaCount, ps.connCount, ps.kRootCount, ps.uptimeCount = r.i64(), r.i64(), r.i64(), r.i64()
	ps.rawEntries, ps.v4Count, ps.v6Count = int(r.i64()), int(r.i64()), int(r.i64())
	ps.connectedSecs, ps.sessions = r.i64(), r.i64()

	ps.firstV4Addr = ip4.Addr(r.u32())
	ps.runPrevAddr = r.u32()
	ps.runTotal = int(r.i64())
	if n := r.count(12, "address runs"); n > 0 {
		ps.runCount = make(map[uint32]int, n)
		for i, prev := 0, uint32(0); i < n && r.err == nil; i++ {
			a := r.u32()
			if i > 0 && a <= prev {
				r.fail(fmt.Sprintf("run address %d after %d", a, prev))
			}
			ps.runCount[a] = int(r.i64())
			prev = a
		}
	}

	ps.prevAddr = ip4.Addr(r.u32())
	ps.prevEnd, ps.lastConnStart, ps.lastConnEnd = r.time(), r.time(), r.time()
	ps.seg.addr = ip4.Addr(r.u32())
	ps.seg.start, ps.seg.end = r.time(), r.time()

	ps.changes = r.i64()
	total := r.f64()
	if n := r.count(16, "TTF values"); n > 0 {
		mass := make(map[float64]float64, n)
		for i, prev := 0, 0.0; i < n && r.err == nil; i++ {
			v := r.f64()
			if math.IsNaN(v) || (i > 0 && !(v > prev)) {
				r.fail(fmt.Sprintf("TTF value %v after %v", v, prev))
			}
			mass[v] = r.f64()
			prev = v
		}
		ps.ttf.Restore(mass, total)
	} else {
		ps.ttf.Restore(nil, total)
	}

	ps.homeASN = asdb.ASN(r.u32())
	ps.lastGap = span{from: r.time(), to: r.time()}
	ps.outageLinked = r.i64()
	if n := r.count(16, "recent outages"); n > 0 {
		ps.recentOutages = make([]span, n)
		for i := range ps.recentOutages {
			ps.recentOutages[i] = span{from: r.time(), to: r.time()}
		}
	}
	if n := r.count(8, "recent reboots"); n > 0 {
		ps.recentReboots = make([]simclock.Time, n)
		for i := range ps.recentReboots {
			ps.recentReboots[i] = r.time()
		}
	}

	ps.loss.start, ps.loss.end = r.time(), r.time()
	ps.loss.firstLTS, ps.loss.lastLTS, ps.loss.rounds = r.i64(), r.i64(), int(r.i64())
	ps.networkOutages, ps.lastKRoot = r.i64(), r.time()
	ps.prevBoot, ps.lastUptime, ps.reboots, ps.rejected = r.time(), r.time(), r.i64(), r.i64()

	if hasDet {
		det := &liveanalysis.Detector{}
		r.detector(det)
		if ps.det != nil && r.err == nil {
			det.Restore()
			ps.det = det
		}
	}
	return ps
}

// detector decodes a detector laid out by appendDetector into det.
func (r *ckptReader) detector(det *liveanalysis.Detector) {
	if n := r.count(8, "raw hours"); n > 0 {
		det.RawHours = make([]float64, n)
		for i := range det.RawHours {
			det.RawHours[i] = r.f64()
		}
	}
	if n := r.count(17, "gaps"); n > 0 {
		det.Gaps = make([]liveanalysis.GapEvent, n)
		for i := range det.Gaps {
			det.Gaps[i] = liveanalysis.GapEvent{PrevEnd: r.time(), NextStart: r.time(), Changed: r.bool()}
		}
	}
	if n := r.count(24, "network outages"); n > 0 {
		det.Networks = make([]core.NetworkOutage, n)
		for i := range det.Networks {
			det.Networks[i] = core.NetworkOutage{Probe: atlasdata.ProbeID(r.i64()), Start: r.time(), End: r.time()}
		}
	}
	if n := r.count(16, "reboots"); n > 0 {
		det.Reboots = make([]core.Reboot, n)
		for i := range det.Reboots {
			det.Reboots[i] = core.Reboot{Probe: atlasdata.ProbeID(r.i64()), At: r.time()}
		}
	}
	if n := r.count(17, "reboot gaps"); n > 0 {
		det.RebootGaps = make([]core.RebootGap, n)
		for i := range det.RebootGaps {
			det.RebootGaps[i] = core.RebootGap{Start: r.time(), End: r.time(), Open: r.bool()}
		}
	}
	det.Prefix = r.row()
	if n := r.count(8, "rounds"); n > 0 {
		det.Rounds = make([]simclock.Time, n)
		for i := range det.Rounds {
			det.Rounds[i] = r.time()
		}
	}
	det.LastUptime = r.time()
}

// writeCheckpointFile atomically replaces dir's checkpoint with the
// document write produces: temp file, fsync, rename, directory sync.
// It returns the document's size.
func writeCheckpointFile(dir string, write func(io.Writer) (int64, error)) (int64, error) {
	tmp := filepath.Join(dir, checkpointFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	n, err := write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, checkpointFile)); err != nil {
		return 0, err
	}
	return n, syncDir(dir)
}

// writeCheckpointBytes is writeCheckpointFile for a document already in
// memory (an adopted partition's shipped checkpoint).
func writeCheckpointBytes(dir string, data []byte) error {
	_, err := writeCheckpointFile(dir, func(w io.Writer) (int64, error) {
		n, err := w.Write(data)
		return int64(n), err
	})
	return err
}

// readCheckpoint reads dir's checkpoint document and checks its header
// and checksum, without decoding the body. A missing file is (nil,
// ckptHeader{}, nil): the shard starts empty and replays its whole WAL.
// A leftover version-1 JSON checkpoint is refused, never ignored.
// Errors name the file.
func readCheckpoint(dir string) ([]byte, ckptHeader, error) {
	legacy := filepath.Join(dir, legacyCheckpointFile)
	if _, err := os.Stat(legacy); err == nil {
		return nil, ckptHeader{}, fmt.Errorf("stream: %s is a version-1 JSON checkpoint, which this version cannot read; "+
			"the WAL it covers was truncated, so the shard cannot start without it "+
			"(recover with the previous release, or move the WAL directory aside and re-ingest from cursor zero)", legacy)
	}
	path := filepath.Join(dir, checkpointFile)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ckptHeader{}, nil
		}
		return nil, ckptHeader{}, err
	}
	h, err := parseCheckpointHeader(data)
	if err != nil {
		return nil, ckptHeader{}, fmt.Errorf("stream: checkpoint %s: %w", path, err)
	}
	return data, h, nil
}

// loadCheckpoint reads and decodes dir's checkpoint for shard index;
// nil when there is none.
func loadCheckpoint(dir string, index int, analysis bool) (*checkpointState, error) {
	data, h, err := readCheckpoint(dir)
	if err != nil || data == nil {
		return nil, err
	}
	path := filepath.Join(dir, checkpointFile)
	if h.shard != index {
		return nil, fmt.Errorf("stream: checkpoint %s belongs to shard %d", path, h.shard)
	}
	ck, err := decodeCheckpoint(data, analysis)
	if err != nil {
		return nil, fmt.Errorf("stream: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// syncDir fsyncs a directory so renames and removals survive a crash;
// failure is tolerated (directory fsync is advisory on some systems).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
