package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dynaddr/internal/liveanalysis"
	"dynaddr/internal/obs"
	"dynaddr/internal/stream"
)

// Source is what a Tier reads: a snapshot barrier and an analysis
// barrier, each reporting the stream position it was taken at. A local
// *stream.Ingester is one; the cluster coordinator's scatter-gather
// merge over its peers is the other. AnalysisVersioned returns an error
// matching stream.ErrAnalysisDisabled when the source runs without the
// analysis engine.
type Source interface {
	SnapshotContext(ctx context.Context) (*stream.Snapshot, error)
	AnalysisVersioned(ctx context.Context) (*liveanalysis.Result, stream.Version, error)
}

// Tier maintains materialized live-query answers over a Source.
//
// A generation has two halves that refresh independently, each only
// when a read of its kind needs it: the snapshot half (summary,
// continents, AS detail; keyed by Version) and the analysis half (keyed
// by AnalysisVersion). A refresh takes one barrier of its kind,
// re-renders only when the barrier's version moved, and publishes an
// immutable *Generation behind an atomic pointer. Readers pin whatever
// generation is current — snapshot isolation: a reader never observes a
// half-applied batch, because barriers only complete between records
// and a published generation never mutates. Staleness is bounded by
// MaxStaleness, and refreshes are coalesced: a reader that queued
// behind a refresh which began after it arrived takes that refresh's
// result, so any number of concurrent readers cost one barrier per
// kind, not N — even at staleness 0. That is what decouples dashboard
// read traffic from ingest.
type Tier struct {
	maxStale time.Duration
	m        *tierMetrics

	cur  atomic.Pointer[Generation]
	snap half[*stream.Snapshot]
	an   half[*liveanalysis.Result]
}

// DefaultMaxStaleness bounds how old a served generation may be before
// a read triggers a refresh barrier.
const DefaultMaxStaleness = 500 * time.Millisecond

// Option configures a Tier.
type Option func(*Tier)

// WithMaxStaleness sets the refresh window. Zero means every read takes
// a barrier of its kind, shared with concurrent readers (the cache then
// saves rendering and 304 bandwidth, not barriers); negative means
// manual — the tier refreshes only on the first read and explicit
// Refresh calls, which tests use to pin generations deterministically.
func WithMaxStaleness(d time.Duration) Option {
	return func(t *Tier) { t.maxStale = d }
}

// WithMetrics publishes serve_* metrics into reg (nil is a no-op, like
// every obs instrument).
func WithMetrics(reg *obs.Registry) Option {
	return func(t *Tier) { t.m = newTierMetrics(reg, t) }
}

// NewTier wraps a source. The caller owns the source's lifecycle; the
// tier holds no background goroutines — all refreshes happen on reader
// goroutines.
func NewTier(src Source, opts ...Option) *Tier {
	t := &Tier{maxStale: DefaultMaxStaleness}
	t.snap = half[*stream.Snapshot]{
		barrier: func(ctx context.Context) (*stream.Snapshot, stream.Version, error) {
			snap, err := src.SnapshotContext(ctx)
			if err != nil {
				return nil, stream.Version{}, err
			}
			return snap, snap.Version, nil
		},
		render: renderSnapshot,
	}
	t.an = half[*liveanalysis.Result]{barrier: src.AnalysisVersioned, render: renderAnalysis}
	for _, opt := range opts {
		opt(t)
	}
	if t.m == nil {
		t.m = newTierMetrics(nil, t)
	}
	return t
}

// Kind names one independently refreshed half of a generation.
type Kind int

const (
	// SnapshotKind is the half behind summary, continents and AS detail.
	SnapshotKind Kind = iota
	// AnalysisKind is the half behind the analysis fold.
	AnalysisKind
)

// Generation is one immutable published read view. Its snapshot half
// (Version, Snap and the artifacts rendered from Snap) and its analysis
// half (AnalysisVersion and the analysis bytes) are each absent until a
// read of their kind, or Refresh, first publishes them.
type Generation struct {
	// Version is the stream position of the snapshot barrier; it keys the
	// ETags of every snapshot-derived artifact.
	Version stream.Version
	// AnalysisVersion is the position of the analysis barrier. It keys
	// the analysis ETag and moves independently of Version.
	AnalysisVersion stream.Version
	// Snap is the pinned snapshot the artifacts were rendered from.
	Snap *stream.Snapshot

	summary    []byte
	continents []byte
	analysis   []byte
	as         *asCache
}

func renderSnapshot(snap *stream.Snapshot, ver stream.Version) (func(*Generation), error) {
	summary, err := RenderSummary(snap)
	if err != nil {
		return nil, err
	}
	continents, err := RenderContinents(snap)
	if err != nil {
		return nil, err
	}
	as := &asCache{m: make(map[uint32][]byte)}
	return func(g *Generation) {
		g.Version, g.Snap, g.summary, g.continents, g.as = ver, snap, summary, continents, as
	}, nil
}

func renderAnalysis(res *liveanalysis.Result, ver stream.Version) (func(*Generation), error) {
	body, err := RenderAnalysis(res)
	if err != nil {
		return nil, err
	}
	return func(g *Generation) { g.AnalysisVersion, g.analysis = ver, body }, nil
}

// asCache memoizes per-AS renders lazily: a generation may cover tens
// of thousands of ASes and most are never queried before the
// generation retires.
type asCache struct {
	mu sync.Mutex
	m  map[uint32][]byte
}

// Has reports whether g (possibly nil) carries the half of kind k.
func (g *Generation) Has(k Kind) bool {
	if k == AnalysisKind {
		return g != nil && g.analysis != nil
	}
	return g != nil && g.summary != nil
}

// SummaryJSON returns the summary endpoint's exact response bytes.
func (g *Generation) SummaryJSON() []byte { return g.summary }

// ContinentsJSON returns the continents endpoint's exact response bytes.
func (g *Generation) ContinentsJSON() []byte { return g.continents }

// AnalysisJSON returns the analysis endpoint's exact response bytes,
// nil when the source runs without the analysis engine.
func (g *Generation) AnalysisJSON() []byte { return g.analysis }

// ASJSON returns one AS detail's exact response bytes, rendering and
// memoizing on first use. ok is false when no analyzable probe maps to
// the AS in this generation.
func (g *Generation) ASJSON(asn uint32) (body []byte, ok bool, err error) {
	g.as.mu.Lock()
	defer g.as.mu.Unlock()
	if body, ok := g.as.m[asn]; ok {
		return body, true, nil
	}
	agg := g.Snap.AS(asn)
	if agg == nil {
		return nil, false, nil
	}
	body, err = RenderASDetail(agg)
	if err != nil {
		return nil, true, err
	}
	g.as.m[asn] = body
	return body, true, nil
}

// ETag is the cache validator for every snapshot-derived artifact.
func (g *Generation) ETag() string { return ETag(g.Version) }

// AnalysisETag is the validator for the analysis artifact.
func (g *Generation) AnalysisETag() string { return ETag(g.AnalysisVersion) }

// Current returns the published generation without refreshing; nil
// before the first refresh.
func (t *Tier) Current() *Generation { return t.cur.Load() }

// Generation returns a generation whose half of kind k is no older than
// the staleness window, refreshing that half synchronously (coalesced
// with concurrent readers of the same kind) when it has expired. The
// other half is whatever was last published. This is the read path:
// fresh hits cost a few atomic loads and no locks.
func (t *Tier) Generation(ctx context.Context, k Kind) (*Generation, error) {
	var err error
	if k == AnalysisKind {
		err = t.an.get(ctx, t)
	} else {
		err = t.snap.get(ctx, t)
	}
	if err != nil {
		return nil, err
	}
	return t.cur.Load(), nil
}

// Refresh forces both halves fresh regardless of staleness. When the
// snapshot barrier finds the stream exactly where the published
// analysis was taken, the analysis half is restamped without a fold.
// A source without the analysis engine leaves the analysis half absent.
func (t *Tier) Refresh(ctx context.Context) (*Generation, error) {
	t.snap.mu.Lock()
	err := t.snap.refreshLocked(ctx, t)
	t.snap.mu.Unlock()
	if err != nil {
		return nil, err
	}
	t.an.mu.Lock()
	defer t.an.mu.Unlock()
	if p := t.an.cur.Load(); p != nil && p.ver == t.cur.Load().Version {
		t.an.stamp(t, p.ver, time.Now(), t.an.begun.Add(1), true)
	} else if err := t.an.refreshLocked(ctx, t); err != nil && !errors.Is(err, stream.ErrAnalysisDisabled) {
		return nil, err
	}
	return t.cur.Load(), nil
}

func (t *Tier) expired(built time.Time) bool {
	if t.maxStale < 0 {
		return false // manual mode: generations never expire on their own
	}
	return time.Since(built) > t.maxStale
}

// publish installs a refreshed half into a copy of the current
// generation. The two halves refresh under separate locks, so the swap
// retries when the other half published in between.
func (t *Tier) publish(install func(*Generation)) {
	for {
		old := t.cur.Load()
		next := new(Generation)
		if old != nil {
			*next = *old
		}
		install(next)
		if t.cur.CompareAndSwap(old, next) {
			return
		}
	}
}

// half is the coalesced, version-keyed cache behind one half of the
// generation: barrier takes the stream position, and render turns the
// barrier's result into the update that installs the half in a
// Generation.
type half[R any] struct {
	barrier func(context.Context) (R, stream.Version, error)
	render  func(R, stream.Version) (func(*Generation), error)

	mu    sync.Mutex    // serializes this half's refreshes
	begun atomic.Uint64 // refreshes started
	cur   atomic.Pointer[stamp]
}

// stamp describes the refresh that last published a half.
type stamp struct {
	ver   stream.Version
	built time.Time
	seq   uint64 // begun's value when the refresh started
}

// get makes the half fresh. A reader queued behind a refresh accepts
// that refresh's result when it began after the reader arrived: its
// barrier then covers every record acknowledged before the read.
func (h *half[R]) get(ctx context.Context, t *Tier) error {
	arrived := h.begun.Load()
	if p := h.cur.Load(); p != nil && !t.expired(p.built) {
		t.m.observeAge(time.Since(p.built))
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if p := h.cur.Load(); p != nil && (p.seq > arrived || !t.expired(p.built)) {
		t.m.observeAge(time.Since(p.built))
		return nil
	}
	return h.refreshLocked(ctx, t)
}

// refreshLocked takes one barrier and publishes its half, reusing the
// rendered bytes (and per-AS memo) when the version has not moved.
func (h *half[R]) refreshLocked(ctx context.Context, t *Tier) error {
	seq := h.begun.Add(1)
	start := time.Now()
	raw, ver, err := h.barrier(ctx)
	if err != nil {
		return err
	}
	if p := h.cur.Load(); p != nil && p.ver == ver {
		h.stamp(t, ver, start, seq, true)
		return nil
	}
	install, err := h.render(raw, ver)
	if err != nil {
		return err
	}
	t.publish(install)
	h.stamp(t, ver, start, seq, false)
	return nil
}

// stamp records a refresh of the half; the half it covers must already
// be installed in t.cur, so a reader that sees the stamp finds it there.
func (h *half[R]) stamp(t *Tier, ver stream.Version, start time.Time, seq uint64, reused bool) {
	h.cur.Store(&stamp{ver: ver, built: start, seq: seq})
	t.m.refreshed(time.Since(start), reused)
}

// ObserveRequest records a serve-tier read outcome: hit means the
// client revalidated (304, no body); miss means a full body was served.
func (t *Tier) ObserveRequest(route string, hit bool) {
	t.m.request(route, hit)
}

// tierMetrics holds the serve-tier instruments. All fields are nil-safe
// (obs instruments no-op on nil), and per-route counters are prebuilt
// so the request path is two map lookups and an atomic add.
type tierMetrics struct {
	routes     map[string]*routeCounters
	other      *routeCounters
	refreshes  *obs.Counter
	reused     *obs.Counter
	refreshSec *obs.Histogram
	ageSec     *obs.Histogram
}

type routeCounters struct {
	hits   *obs.Counter
	misses *obs.Counter
}

// Routes the serve tier distinguishes in its hit/miss counters.
var meteredRoutes = []string{"summary", "continents", "analysis", "as", "cursor"}

func newTierMetrics(reg *obs.Registry, t *Tier) *tierMetrics {
	m := &tierMetrics{routes: make(map[string]*routeCounters, len(meteredRoutes))}
	for _, route := range append(append([]string(nil), meteredRoutes...), "other") {
		rc := &routeCounters{
			hits:   reg.Counter("serve_hits_total", "Conditional-GET revalidations answered 304 by the serve tier.", obs.L("route", route)),
			misses: reg.Counter("serve_misses_total", "Full bodies served by the serve tier.", obs.L("route", route)),
		}
		if route == "other" {
			m.other = rc
		} else {
			m.routes[route] = rc
		}
	}
	m.refreshes = reg.Counter("serve_refreshes_total", "Generation refreshes taken by the serve tier.")
	m.reused = reg.Counter("serve_refreshes_reused_total", "Refreshes that republished an unchanged generation without re-rendering.")
	m.refreshSec = reg.Histogram("serve_refresh_seconds", "Wall time of a serve-tier refresh (barriers plus rendering).", nil)
	m.ageSec = reg.Histogram("serve_staleness_seconds", "Age of the generation at each served read.", nil)
	if reg != nil && t != nil {
		reg.GaugeFunc("serve_generation_seq", "Applied-record sequence of the published generation.", func() float64 {
			g := t.cur.Load()
			if !g.Has(SnapshotKind) {
				return 0
			}
			return float64(g.Version.Seq)
		})
	}
	return m
}

func (m *tierMetrics) request(route string, hit bool) {
	rc, ok := m.routes[route]
	if !ok {
		rc = m.other
	}
	if hit {
		rc.hits.Inc()
	} else {
		rc.misses.Inc()
	}
}

func (m *tierMetrics) refreshed(d time.Duration, reusedPrev bool) {
	m.refreshes.Inc()
	if reusedPrev {
		m.reused.Inc()
	}
	m.refreshSec.Observe(d.Seconds())
}

func (m *tierMetrics) observeAge(d time.Duration) {
	m.ageSec.Observe(d.Seconds())
}
