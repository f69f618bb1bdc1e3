// Command perfbench is the repository's benchmark. It drives the planners,
// the evaluators, the DP memo snapshot store and the serving fleet through
// the public APIs of the internal packages, checks every output, and prints
// one JSON result line:
//
//	bash perfbench/run.sh --workload cold-search --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds every end-to-end metric, measured on the
// workload; with --trace 1 it holds every per-layer metric of a traced
// run, and the run's spans are written under .bench_build/perfbench/.
// README.md beside this file defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// seeded reports whether the inputs derive from --seed; the other
	// workloads run fixed inputs and say so in their output.
	seeded bool
	run    func(b *bench) error
}

var workloads = []workload{
	{name: "cold-search", run: runColdSearch},
	{name: "warm-replan", run: runWarmReplan},
	{name: "fleet-mix", seeded: true, run: runFleetMix},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state: its settings, the operations attempted and
// failed, and what it measured.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration // how long the measured phase runs
	tracing  bool
	rec      *recorder // nil unless tracing
	outDir   string    // scratch space inside the checkout

	attempted, failed int
	metrics           map[string]metric
	samples           map[string]int // sample count behind each median or percentile
	notes             map[string]any // run metadata beyond the metrics
}

// set records a metric.
func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// sampled records how many samples a reported median or percentile rests on.
func (b *bench) sampled(name string, n int) { b.samples[name] = n }

func (b *bench) note(key string, v any) { b.notes[key] = v }

// noteUnits records a repeated unit's times and their spread within the
// run (interquartile range over median).
func (b *bench) noteUnits(key string, times []float64) {
	b.note(key, times)
	if len(times) >= 2 {
		b.note(key+"_spread", spread(times))
	}
}

// maxErrorLines bounds how many failed operations are described on
// standard error; all of them are counted.
const maxErrorLines = 20

// op counts one checked operation; a non-nil err marks it failed.
func (b *bench) op(err error) {
	b.attempted++
	if err == nil {
		return
	}
	b.failed++
	if b.failed <= maxErrorLines {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed operation: %v\n", b.workload, err)
	}
}

// repeatWithin runs unit at least atLeast times, then again while one more
// run, taken to last as long as the previous one, would end within budget.
// It returns each run's wall time.
func repeatWithin(budget time.Duration, atLeast int, unit func() error) ([]float64, error) {
	start := time.Now()
	var times []float64
	for {
		t0 := time.Now()
		if err := unit(); err != nil {
			return times, err
		}
		d := time.Since(t0)
		times = append(times, d.Seconds())
		if len(times) >= atLeast && time.Since(start)+d > budget {
			return times, nil
		}
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}

	b := &bench{
		workload: w.name,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		tracing:  *trace == 1,
		outDir:   filepath.Join(".bench_build", "perfbench"),
		metrics:  make(map[string]metric),
		samples:  make(map[string]int),
		notes:    make(map[string]any),
	}
	if b.tracing {
		b.rec = newRecorder()
		for _, m := range perLayerMetrics {
			// A layer the workload never calls did no work: it reads 0.
			b.set(m.name, m.unit, 0)
		}
	}
	if err := w.run(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if !b.tracing {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		b.set("peak_rss_mb", "MB", rss)
	}
	if err := b.checkVocabulary(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if b.tracing {
		path := filepath.Join(b.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, b.seed))
		if err := b.rec.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		b.note("spans_file", path)
		b.note("spans", len(b.rec.spans))
	}

	inputs := "fixed: the same inputs for every seed"
	if w.seeded {
		inputs = "derived from the seed"
	}
	meta := map[string]any{
		"workload":   w.name,
		"seed":       b.seed,
		"inputs":     inputs,
		"traced":     b.tracing,
		"seconds":    *seconds,
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"samples":    b.samples,
	}
	for k, v := range b.notes {
		meta[k] = v
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Fprintf(stdout, "# %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if data, err := json.Marshal(meta); err == nil {
		fmt.Fprintf(stdout, "# meta %s\n", data)
	}
	out, err := json.Marshal(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// checkVocabulary makes sure the run reports exactly the metrics of its
// table, each in the table's unit, so that a misspelt or forgotten name
// cannot slip into a result. End-to-end values must also be positive and
// finite: every one of them measures work that was done.
func (b *bench) checkVocabulary() error {
	if b.tracing {
		return checkMetrics(b.metrics, perLayerMetrics, false)
	}
	return checkMetrics(b.metrics, endToEndMetrics, true)
}

func checkMetrics(got map[string]metric, table []metricDef, positive bool) error {
	units := make(map[string]string, len(table))
	for _, m := range table {
		units[m.name] = m.unit
	}
	for name, m := range got {
		if u, ok := units[name]; !ok || u != m.Unit {
			return fmt.Errorf("metric %s (%s) is not in the metric table", name, m.Unit)
		}
	}
	for _, m := range table {
		v, ok := got[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if positive && !(v.Value > 0 && !math.IsInf(v.Value, 1)) {
			return fmt.Errorf("metric %s reads %v", m.name, v.Value)
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// commit names the source revision the binary was built from, when the
// build could see it.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built from a git checkout)"
}
