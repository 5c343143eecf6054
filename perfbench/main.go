// Command perfbench is the repository's benchmark: one command that
// assembles the live system in process from the constructors and
// defaults cmd/atlasd uses, drives it over loopback HTTP with the v2
// binary protocol, checks the answers against a reference, and prints
// every metric by name and unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through the wrapper, which builds it
// into .bench_build:
//
//	bash perfbench/run.sh --workload live-dashboard --seed 77 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that records spans at every layer boundary and reports per-layer
// metrics instead. See perfbench/README.md for the workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one run reports.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric
	info      []string // human-readable lines printed before the JSON

	inputBytes  int64  // wire size of the whole generated feed
	inputDigest uint64 // FNV-64a of that feed
	fed         int    // records sent in the last round
	feedLen     int    // records in the feed
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// options configure one run: the command's flags plus the world size
// and set-up count, which the self-test shrinks.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	scale    float64
	setups   int
	outDir   string
}

func main() {
	// World scale 1.0 is 1,158 probes and 2,190,744 records at seed 77;
	// setup_s is the median of three set-ups.
	o := options{scale: 1.0, setups: 3, outDir: ".bench_build/perfbench-out"}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Uint64Var(&o.seed, "seed", 77, "world seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 15, "measured time")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.Parse()
	o.trace = traceFlag == 1

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range res.info {
		fmt.Println("# " + line)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]map[string]any{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := []string{batchAnalyze}
	for name := range ingestWorkloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func run(o options) (*result, error) {
	if o.seconds < 1 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	var res *result
	var err error
	if o.workload == batchAnalyze {
		res, err = runAnalyze(o)
	} else if wl, ok := ingestWorkloads[o.workload]; ok {
		res, err = runIngest(o, wl)
	} else {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames())
	}
	if err != nil {
		return nil, err
	}
	res.info = append([]string{environment(o)}, res.info...)
	return res, nil
}
