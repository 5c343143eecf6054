package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dynaddr/internal/obs"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss, KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// liveHeapMB is the heap still reachable after a full collection:
// everything the run holds at that moment. It collects twice, because
// what sync.Pools hold survives the first collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	return float64(readMem().HeapAlloc) / (1 << 20)
}

// peakLiveHeapMB runs fn with the collector at GOGC=10, so that it
// marks the heap after every few MB allocated, and returns the largest
// live heap a collection reported while fn ran.
func peakLiveHeapMB(fn func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(stop)
	<-done
	return float64(peak) / (1 << 20)
}

// memDelta is the allocation and GC work between two MemStats reads.
type memDelta struct {
	allocBytes, allocs float64
	gcPause            time.Duration
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocBytes: float64(after.TotalAlloc - before.TotalAlloc),
		allocs:     float64(after.Mallocs - before.Mallocs),
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// histogram is one obs histogram family with its series merged across
// registries; counts stays nil when no registry has the family.
type histogram struct {
	bounds []float64
	counts []int64
}

func gatherHistogram(regs []*obs.Registry, name string) histogram {
	var h histogram
	for _, reg := range regs {
		for _, f := range reg.Gather() {
			if f.Name != name || f.Kind != obs.KindHistogram {
				continue
			}
			if h.counts == nil {
				h.bounds = f.Buckets
				h.counts = make([]int64, len(f.Buckets)+1)
			}
			for _, m := range f.Metrics {
				for i, c := range m.BucketCounts {
					h.counts[i] += c
				}
			}
		}
	}
	return h
}

// quantile interpolates linearly inside the bucket holding rank q;
// observations in the +Inf bucket report the last finite bound.
func (h histogram) quantile(q float64) float64 {
	var total int64
	for _, c := range h.counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen int64
	for i, c := range h.counts {
		if c == 0 || float64(seen+c) < rank {
			seen += c
			continue
		}
		if i >= len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		return lo + (h.bounds[i]-lo)*(rank-float64(seen))/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// counterTotal sums one obs counter family across registries.
func counterTotal(regs []*obs.Registry, name string) float64 {
	t := 0.0
	for _, reg := range regs {
		for _, f := range reg.Gather() {
			if f.Name == name {
				for _, m := range f.Metrics {
					t += m.Value
				}
			}
		}
	}
	return t
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsName names the filesystem holding dir from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}
