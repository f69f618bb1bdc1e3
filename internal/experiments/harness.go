// Package experiments regenerates every table and figure of the paper's
// evaluation (§7): end-to-end throughput (Figure 6), search times
// (Table 1), branch-count and micro-batch sweeps (Figure 7), the case study
// (Figure 8, §7.5), the ablation (Figure 9), and the sequential-model
// parity check (Appendix A.3). Each driver returns typed rows plus
// trace.CSV tables that cmd/experiments prints.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"graphpipe/internal/baselines"
	"graphpipe/internal/cluster"
	"graphpipe/internal/eval"
	"graphpipe/internal/graph"
	"graphpipe/internal/planner"

	_ "graphpipe/internal/eval/all"    // register the built-in backends
	_ "graphpipe/internal/planner/all" // register the built-in planners
)

// System identifies a planner.
type System string

// The three systems the paper compares.
const (
	GraphPipe System = "graphpipe"
	PipeDream System = "pipedream"
	Piper     System = "piper"
)

// Systems lists the paper's comparison order.
var Systems = []System{Piper, PipeDream, GraphPipe}

// Outcome is one (system, model, devices) measurement.
type Outcome struct {
	System System
	Model  string
	// Backend names the evaluation backend that produced the measurement
	// ("sim" unless overridden).
	Backend    string
	Devices    int
	MiniBatch  int
	SearchTime time.Duration
	// Throughput is simulated samples/second — the y-axis of Figure 6.
	Throughput float64
	// IterationTime is the simulated per-iteration wall time.
	IterationTime float64
	Stages        int
	Depth         int
	// MicroBatch is the (uniform) micro-batch size the planner chose.
	MicroBatch int
	// PeakMemory is the worst per-device memory across stages.
	PeakMemory float64
	// Failed marks the paper's ✗: the planner could not produce a
	// strategy within its budget.
	Failed bool
	Err    error
}

// RunOptions adjusts a single planner invocation.
type RunOptions struct {
	// Backend selects the evaluation backend from the eval registry
	// (default "sim"). Every measurement is reproducible on any backend:
	// the parity tests pin that the backends agree.
	Backend string
	// Planner is handed to the planner as is (Figure 7 right and Figure
	// 9's "Parallel" arm set ForcedMicroBatch, the ablation benchmarks
	// DisableSinkAnchoredSplits, Table 1 Piper's Timeout). RunGrid sets
	// an unset Workers to 1 so a grid already one-job-per-CPU wide does
	// not nest a second CPU-wide pool inside every job.
	Planner planner.Options
}

// Run resolves the system through the planner registry and the evaluation
// backend through the eval registry, plans, and evaluates one training
// iteration, returning the full outcome. A Failed outcome (rather than an
// error) is returned when the planner cannot produce a strategy — the ✗ /
// missing data points of the paper.
func Run(sys System, g *graph.Graph, devices, miniBatch int, opts RunOptions) Outcome {
	backend := opts.Backend
	if backend == "" {
		backend = "sim"
	}
	out := Outcome{System: sys, Model: g.Name(), Backend: backend, Devices: devices, MiniBatch: miniBatch}
	topo := cluster.NewSummitTopology(devices)

	// An unknown backend is a harness-configuration bug, not a data point:
	// a Failed outcome would render as the paper's ✗ (planner could not
	// produce a strategy) across the whole grid. Fail loudly instead, like
	// the registries do on bad registrations.
	ev, err := eval.Get(backend)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	pl, err := planner.Get(string(sys))
	if err != nil {
		out.Err = err
		out.Failed = true
		return out
	}
	start := time.Now()
	st, _, err := pl.Plan(g, topo, miniBatch, opts.Planner)
	out.SearchTime = time.Since(start)
	if err != nil {
		out.Err = err
		out.Failed = true
		return out
	}

	rep, err := ev.Evaluate(g, topo, st, eval.Options{})
	if err != nil {
		out.Err = err
		out.Failed = true
		return out
	}
	out.Throughput = rep.Throughput
	out.IterationTime = rep.IterationTime
	out.Stages = st.NumStages()
	out.Depth = st.Depth()
	out.MicroBatch = st.Stages[0].Config.MicroBatch
	out.PeakMemory = rep.PeakMemory()
	return out
}

// Job is one cell of an experiment grid: a planner on a model at a device
// count.
type Job struct {
	System    System
	Graph     *graph.Graph
	Devices   int
	MiniBatch int
	Opts      RunOptions
}

// RunGrid fans a (model × planner × device-count) grid out across
// goroutines, bounded by one worker per available CPU, and returns the
// outcomes in job order — result ordering is deterministic regardless of
// which job finishes first, so CSV rows never shuffle between runs.
//
// Jobs that do not pin Opts.Planner.Workers plan single-threaded: the grid itself
// saturates the CPUs, and nesting a CPU-wide pool inside every cell would
// oversubscribe the machine quadratically. This also keeps per-cell
// SearchTime measurements comparable across systems — every planner runs
// one cell on one worker. Wall-clock-budgeted cells (Piper's timeout)
// still share the machine with sibling cells, so regenerated ✗ entries
// reflect grid load, not a quiet machine.
func RunGrid(jobs []Job) []Outcome {
	out := make([]Outcome, len(jobs))
	run := func(i int) {
		j := jobs[i]
		if j.Opts.Planner.Workers == 0 {
			j.Opts.Planner.Workers = 1
		}
		out[i] = Run(j.System, j.Graph, j.Devices, j.MiniBatch, j.Opts)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i := range jobs {
			run(i)
		}
		return out
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				run(i)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// IsExplosion reports whether an outcome failed because of Piper's
// exponential state space (as opposed to memory infeasibility).
func IsExplosion(o Outcome) bool {
	return o.Failed && errors.Is(o.Err, baselines.ErrSearchExplosion)
}

// FmtThroughput renders a throughput cell, with ✗ for failures.
func FmtThroughput(o Outcome) string {
	if o.Failed {
		return "✗"
	}
	return fmt.Sprintf("%.0f", o.Throughput)
}

// FmtSearch renders a search-time cell in seconds, with ✗ for failures.
func FmtSearch(o Outcome) string {
	if o.Failed {
		return "✗"
	}
	return fmt.Sprintf("%.3f", o.SearchTime.Seconds())
}

// deviceCounts is the paper's GPU sweep.
var deviceCounts = []int{4, 8, 16, 32}

// DeviceCounts returns the paper's evaluation device counts (4–32 GPUs).
func DeviceCounts() []int { return append([]int(nil), deviceCounts...) }
