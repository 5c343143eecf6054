// Package stats provides the small statistical toolkit the analyses
// need: weighted discrete distributions (for the paper's total-time-
// fraction metric), empirical CDFs, quantiles, and histograms with
// explicit bin edges (for the paper's outage-duration bins).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Point is one step of a cumulative distribution: the fraction of mass
// at values <= X.
type Point struct {
	X float64
	Y float64
}

// Weighted is a discrete distribution over float64 values where each
// value carries accumulated weight. The paper's total time fraction is
// exactly this: each address duration d contributes weight d·n(d).
// The zero value is empty and usable.
type Weighted struct {
	mass  map[float64]float64
	total float64
}

// Add accumulates weight at value. Non-positive weights are ignored.
func (w *Weighted) Add(value, weight float64) {
	if weight <= 0 {
		return
	}
	if w.mass == nil {
		w.mass = make(map[float64]float64)
	}
	w.mass[value] += weight
	w.total += weight
}

// AddDist merges another distribution into w. Values are merged in
// ascending order so the floating-point accumulation of the total is
// deterministic: merging the same distributions in the same sequence
// yields bitwise-equal totals regardless of how the inputs were built —
// the property the parallel analysis engine relies on to produce
// byte-identical reports on any schedule.
func (w *Weighted) AddDist(other *Weighted) {
	if len(other.mass) == 0 {
		return
	}
	for _, v := range other.Values() {
		w.Add(v, other.mass[v])
	}
}

// Total returns the total accumulated weight.
func (w *Weighted) Total() float64 { return w.total }

// MassOf returns the absolute weight accumulated exactly at value.
func (w *Weighted) MassOf(value float64) float64 { return w.mass[value] }

// Clone returns an independent copy of the distribution.
func (w *Weighted) Clone() *Weighted {
	c := &Weighted{total: w.total}
	if w.mass != nil {
		c.mass = make(map[float64]float64, len(w.mass))
		for v, m := range w.mass {
			c.mass[v] = m
		}
	}
	return c
}

// Restore replaces w's contents with mass and total, both taken
// verbatim: the total is not re-accumulated, so a distribution rebuilt
// from its Values, MassOf and Total is bitwise equal to the original
// however its weights were first ordered. w takes ownership of mass.
func (w *Weighted) Restore(mass map[float64]float64, total float64) {
	w.mass = mass
	w.total = total
}

// Len returns the number of distinct values carrying mass.
func (w *Weighted) Len() int { return len(w.mass) }

// MassAt returns the fraction of total weight concentrated exactly at
// value — the paper's f_d for a duration d when weights are d·n(d).
func (w *Weighted) MassAt(value float64) float64 {
	if w.total == 0 {
		return 0
	}
	return w.mass[value] / w.total
}

// FractionAtMost returns the fraction of total weight at values <= x.
func (w *Weighted) FractionAtMost(x float64) float64 {
	if w.total == 0 {
		return 0
	}
	var acc float64
	for v, m := range w.mass {
		if v <= x {
			acc += m
		}
	}
	return acc / w.total
}

// CDF returns the cumulative distribution as sorted points, one per
// distinct value. Plot these to reproduce the paper's Figures 1-3.
func (w *Weighted) CDF() []Point {
	if len(w.mass) == 0 {
		return nil
	}
	values := make([]float64, 0, len(w.mass))
	for v := range w.mass {
		values = append(values, v)
	}
	sort.Float64s(values)
	out := make([]Point, len(values))
	var acc float64
	for i, v := range values {
		acc += w.mass[v]
		out[i] = Point{X: v, Y: acc / w.total}
	}
	return out
}

// Modes returns the values whose exact-value mass fraction is at least
// threshold, sorted by descending mass. These are the vertical segments
// in the paper's CDFs — the periodic renumbering signatures.
func (w *Weighted) Modes(threshold float64) []Point {
	var out []Point
	for v, m := range w.mass {
		if frac := m / w.total; w.total > 0 && frac >= threshold {
			out = append(out, Point{X: v, Y: frac})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Y != out[j].Y {
			return out[i].Y > out[j].Y
		}
		return out[i].X < out[j].X
	})
	return out
}

// MaxValue returns the largest value carrying mass, or 0 for an empty
// distribution.
func (w *Weighted) MaxValue() float64 {
	var best float64
	first := true
	for v := range w.mass {
		if first || v > best {
			best, first = v, false
		}
	}
	return best
}

// Values returns all distinct values carrying mass, sorted ascending.
func (w *Weighted) Values() []float64 {
	out := make([]float64, 0, len(w.mass))
	for v := range w.mass {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// Sample is an unweighted collection of observations with quantile and
// ECDF queries. The zero value is empty and usable.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear
// interpolation; NaN for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[lo]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Median returns the 0.5-quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Mean returns the arithmetic mean; NaN for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// FractionAtMost returns the fraction of observations <= x.
func (s *Sample) FractionAtMost(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	i := sort.SearchFloat64s(s.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(s.xs))
}

// ECDF returns the empirical CDF as sorted points, one per distinct
// observation. The paper's Figures 7 and 8 are ECDFs of per-probe
// conditional probabilities.
func (s *Sample) ECDF() []Point {
	if len(s.xs) == 0 {
		return nil
	}
	s.ensureSorted()
	var out []Point
	n := float64(len(s.xs))
	for i := 0; i < len(s.xs); i++ {
		// Collapse runs of equal values into one step.
		if i+1 < len(s.xs) && s.xs[i+1] == s.xs[i] {
			continue
		}
		out = append(out, Point{X: s.xs[i], Y: float64(i+1) / n})
	}
	return out
}

// Histogram counts observations into bins with explicit edges. An
// observation x lands in bin i when edges[i] <= x < edges[i+1]; values
// below the first edge land in bin 0's underflow sibling (bin -1 is not
// kept — they go to bin 0) and values at or above the last edge land in
// the final overflow bin. Build with NewHistogram.
type Histogram struct {
	edges  []float64 // interior edges, ascending; len(edges)+1 bins
	counts []int
}

// NewHistogram builds a histogram with the given ascending interior
// edges, producing len(edges)+1 bins: (-inf, e0), [e0, e1), ...,
// [eLast, +inf).
func NewHistogram(edges ...float64) (*Histogram, error) {
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			return nil, fmt.Errorf("stats: histogram edges not strictly ascending at %d", i)
		}
	}
	return &Histogram{edges: edges, counts: make([]int, len(edges)+1)}, nil
}

// BinOf returns the bin index x falls into.
func (h *Histogram) BinOf(x float64) int {
	// First edge e with x < e; bin index equals count of edges <= x.
	return sort.SearchFloat64s(h.edges, math.Nextafter(x, math.Inf(1)))
}

// Add counts one observation.
func (h *Histogram) Add(x float64) { h.counts[h.BinOf(x)]++ }

// Counts returns the per-bin counts.
func (h *Histogram) Counts() []int {
	out := make([]int, len(h.counts))
	copy(out, h.counts)
	return out
}

// NumBins returns the number of bins.
func (h *Histogram) NumBins() int { return len(h.counts) }

// Total returns the number of observations added.
func (h *Histogram) Total() int {
	var t int
	for _, c := range h.counts {
		t += c
	}
	return t
}
