package main

import (
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dynaddr"
	"dynaddr/internal/core"
	"dynaddr/internal/engine"
	"dynaddr/internal/tables"
)

const batchAnalyze = "batch-analyze"

// memoryPasses is how many untimed passes live_heap_mb is the median of.
const memoryPasses = 9

// renderReport renders every report table cmd/experiments prints; two
// reports agree when these strings are equal.
func renderReport(rep *dynaddr.Report, names core.NameFunc) string {
	var b strings.Builder
	for _, t := range []*tables.Table{
		rep.RenderTable2(), rep.RenderTable5(names), rep.RenderTable6(names), rep.RenderTable7(names),
		rep.RenderFigure1(), rep.RenderFigure2(names), rep.RenderFigure3(names), rep.RenderHourHists(names),
		rep.RenderFigure6(), rep.RenderFigure7(names), rep.RenderFigure8(names), rep.RenderFigure9(names),
		rep.RenderLinkTypes(names), rep.RenderAdminEvents(names), rep.RenderChurnAndV6(),
	} {
		b.WriteString(t.String())
	}
	return b.String()
}

// runAnalyze repeats the staged engine's Analyze over the world until
// the measured time is spent. Only the passes are timed; each pass's
// rendered tables are compared with the sequential pipeline's between
// passes.
func runAnalyze(o options) (*result, error) {
	res := &result{}
	var t *tracer
	if o.trace {
		t = newTracer()
	}
	var w *world
	var runs []setupTimes
	for i := 0; i < o.setups; i++ {
		w = nil
		runtime.GC()
		start := time.Now()
		var err error
		if w, err = generate(o.seed, o.scale); err != nil {
			return nil, err
		}
		runs = append(runs, setupTimes{generate: time.Since(start)})
	}
	records := len(w.probeOrder())
	res.infof("workload=%s (staged engine over the whole world, repeated) seed=%d scale=%g seconds=%d trace=%v",
		o.workload, o.seed, o.scale, o.seconds, o.trace)
	res.infof("input: %d records, %d probes", records, len(w.ids))

	names := dynaddr.Names(w.w)
	want := renderReport(dynaddr.Analyze(w.ds, dynaddr.Options{}), names)
	an := dynaddr.NewAnalyzer()
	res.correct = true
	// A traced run spends the middle third of its time on traced passes
	// and the thirds around it on untraced ones, which give the overhead.
	var untracedMS, passMS, cpuPerRecord []float64
	var last *dynaddr.Report
	stageMS := make(map[engine.Stage][]float64)
	var mem memDelta
	runtime.GC()
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	deadline := start.Add(budget)
	for len(passMS) == 0 || time.Now().Before(deadline) {
		pt := t
		if into := time.Since(start); t != nil && (into < budget/3 || into >= 2*budget/3 && len(passMS) > 0) {
			pt = nil
		}
		m0, c0 := readMem(), cpuTime()
		id, begin := pt.newID(), time.Now()
		rep, err := an.Analyze(w.ds)
		end := time.Now()
		cpu, md := cpuTime()-c0, memSince(m0)
		pt.record(id, 0, id, spanEngine, begin, end)
		res.attempted++
		if err != nil {
			res.failed++
			res.correct = false
			res.infof("pass %d: %v", res.attempted, err)
			break
		}
		if t != nil && pt == nil {
			untracedMS = append(untracedMS, ms(end.Sub(begin)))
		} else {
			passMS = append(passMS, ms(end.Sub(begin)))
			cpuPerRecord = append(cpuPerRecord, float64(cpu.Nanoseconds())/1e3/float64(records))
			mem.allocBytes += md.allocBytes
			mem.allocs += md.allocs
			mem.gcPause += md.gcPause
			for _, sm := range rep.Metrics.Stages {
				stageMS[engine.Stage(sm.Stage)] = append(stageMS[engine.Stage(sm.Stage)], ms(sm.Wall))
			}
		}
		last = rep
		if got := renderReport(rep, names); got != want {
			res.correct = false
			res.infof("pass %d: rendered tables differ from the sequential dynaddr.Analyze", res.attempted)
			break
		}
	}
	rps := float64(records) / (median(passMS) / 1e3)
	// Memory: more passes, untimed, under a collector that marks every
	// few MB; each gives the largest live heap it found above the
	// world's. Where a collection lands in a pass moves that figure by a
	// few MB, so the median of memoryPasses is reported.
	var peaks []float64
	var baseMB float64
	for i := 0; i < memoryPasses; i++ {
		baseMB = liveHeapMB() // the world plus the last report
		var err error
		peak := peakLiveHeapMB(func() { last, err = an.Analyze(w.ds) })
		peaks = append(peaks, peak-baseMB)
		res.attempted++
		if err != nil {
			res.failed++
			res.correct = false
			res.infof("memory pass %d: %v", i+1, err)
			break
		}
		if renderReport(last, names) != want {
			res.correct = false
			res.infof("memory pass %d: rendered tables differ from the sequential dynaddr.Analyze", i+1)
			break
		}
	}
	heapMB := median(peaks)
	runtime.KeepAlive(w)
	runtime.KeepAlive(last)
	res.infof("analyze_s=%.6f s (median of %d passes; p90 %.6f s)  records_per_s=%.1f 1/s  cpu_us_per_record=%.6f us  live_heap_mb=%.2f MB (median of %d passes' peaks above the world's %.1f MB)  peak_rss_mb=%.1f MB",
		median(passMS)/1e3, len(passMS), quantile(passMS, 0.9)/1e3, rps, median(cpuPerRecord), heapMB, len(peaks), baseMB, peakRSSMB())
	if t != nil {
		spans := t.snapshot()
		processed := float64(records) * float64(len(passMS))
		res.metrics = layerMetrics(layerInputs{
			records: processed, spans: spans,
			mem: mem, engineMS: passMS, stageMS: stageMS,
			tracedRPS:   float64(records) / (median(passMS) / 1e3),
			untracedRPS: float64(records) / (median(untracedMS) / 1e3),
		})
		path := filepath.Join(o.outDir, "trace-"+o.workload+".jsonl")
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		res.infof("trace: %d spans written to %s", len(spans), path)
		return res, nil
	}
	setupStats(res, runs)
	res.add("records_per_s", rps, "1/s")
	res.add("latency_p50_ms", median(passMS), "ms")
	res.add("cpu_us_per_record", median(cpuPerRecord), "us")
	res.add("live_heap_mb", heapMB, "MB")
	return res, nil
}
