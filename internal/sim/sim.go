// Package sim executes a pipeline-parallel training strategy on a simulated
// device cluster and reports iteration time, throughput, and per-device
// memory high-water marks. It substitutes for the paper's FlexFlow-based
// distributed runtime on Summit (§7): every stage processes its scheduled
// forward/backward task order, tasks wait on cross-stage data dependencies
// (activations forward, gradients backward) including the sample-range
// alignment needed when neighboring stages use different micro-batch sizes
// (Figure 5), transfers are charged at the link bandwidth between the
// stages' device groups, and a gradient allreduce closes the iteration.
//
// The simulator is deterministic: it advances stages in rounds, scheduling
// each stage's next task as soon as its dependencies and its devices are
// free. Because every stage's task order is fixed by the planner (C4), this
// greedy relaxation yields the unique earliest-finish execution of the
// schedule.
package sim

import (
	"fmt"
	"math"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/eval"
	"graphpipe/internal/graph"
	"graphpipe/internal/schedule"
	"graphpipe/internal/strategy"
)

// TaskRecord is one executed task in the timeline.
type TaskRecord struct {
	Stage      strategy.StageID
	Task       schedule.Task
	Start, End float64
}

// StageStats aggregates per-stage results.
type StageStats struct {
	ComputeTime float64 // total busy time over the iteration
	IdleTime    float64 // bubbles: iteration span minus busy time
	// PeakMemory is the per-device high-water mark: weights + retained
	// activations at the worst instant.
	PeakMemory float64
	// PeakInFlightSamples is the observed maximum of forwarded-but-not-
	// backwarded samples.
	PeakInFlightSamples int
}

// Result is the outcome of simulating one training iteration.
type Result struct {
	// IterationTime is the wall-clock span from the first task start to
	// the end of the gradient synchronization.
	IterationTime float64
	// Throughput is MiniBatch / IterationTime, the paper's reported
	// samples-per-second metric.
	Throughput float64
	// ComputeSpan is the time until the last backward task finishes
	// (excludes the final allreduce).
	ComputeSpan float64
	// AllreduceTime is the largest per-stage gradient synchronization
	// cost, paid once per iteration after the last backward pass.
	AllreduceTime float64
	Stages        []StageStats
	// Timeline holds every executed task, ordered by start time per stage.
	Timeline []TaskRecord
}

// Simulator executes strategies for one model on one topology.
type Simulator struct {
	g     *graph.Graph
	model costmodel.Model
	topo  *cluster.Topology

	// xfer caches the transfer cost of each stage edge of the strategy
	// currently being simulated.
	xfer map[[2]strategy.StageID]eval.Transfer
}

// New returns a Simulator.
func New(g *graph.Graph, model costmodel.Model) *Simulator {
	return &Simulator{g: g, model: model, topo: model.Topology()}
}

// stageState is the per-stage execution cursor.
type stageState struct {
	st       *strategy.Stage
	next     int     // index of the next task in st.Tasks
	freeAt   float64 // device group busy-until
	fwdTime  float64 // per-micro-batch forward compute time
	bwdTime  float64 // per-micro-batch backward compute time
	arTime   float64 // per-iteration allreduce
	weight   float64 // per-device weight memory
	actPerS  float64 // per-device activation bytes per in-flight sample
	lastDone float64 // finish time of the stage's final task

	// fwdDone[j] / bwdDone[j] record completion times of finished tasks;
	// NaN means not finished.
	fwdDone []float64
	bwdDone []float64

	inFlight     int
	peakInFlight int
}

// Run simulates one synchronous training iteration of s and returns the
// result. The strategy must be valid for the simulator's graph and
// topology.
func (sm *Simulator) Run(st *strategy.Strategy) (*Result, error) {
	if err := st.Validate(sm.g, sm.topo); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	sm.xfer = make(map[[2]strategy.StageID]eval.Transfer)
	n := len(st.Stages)
	states := make([]*stageState, n)
	for i := 0; i < n; i++ {
		stage := &st.Stages[i]
		costs := eval.StageCosts(sm.g, sm.model, stage)
		nMicro := st.MiniBatch / stage.Config.MicroBatch
		ss := &stageState{
			st:      stage,
			fwdTime: costs.ForwardTime,
			bwdTime: costs.BackwardTime,
			arTime:  costs.AllreducePerIter,
			weight:  costs.WeightBytes,
			actPerS: costs.ActivationBytesPerSample,
			fwdDone: make([]float64, nMicro),
			bwdDone: make([]float64, nMicro),
		}
		for j := range ss.fwdDone {
			ss.fwdDone[j] = math.NaN()
			ss.bwdDone[j] = math.NaN()
		}
		states[i] = ss
	}

	var timeline []TaskRecord
	// Greedy relaxation: repeatedly start every stage whose next task is
	// ready. Each round either starts at least one task or the simulation
	// is deadlocked (which Validate's acyclicity should preclude).
	remaining := 0
	for _, ss := range states {
		remaining += len(ss.st.Tasks)
	}
	for remaining > 0 {
		progress := false
		for i, ss := range states {
			for ss.next < len(ss.st.Tasks) {
				task := ss.st.Tasks[ss.next]
				ready, ok := sm.readyAt(st, states, strategy.StageID(i), task)
				if !ok {
					break
				}
				start := math.Max(ready, ss.freeAt)
				var dur float64
				if task.Kind == schedule.Forward {
					dur = ss.fwdTime
				} else {
					dur = ss.bwdTime
				}
				end := start + dur
				ss.freeAt = end
				ss.lastDone = end
				if task.Kind == schedule.Forward {
					ss.fwdDone[task.Index] = end
					ss.inFlight += task.End - task.Start
					if ss.inFlight > ss.peakInFlight {
						ss.peakInFlight = ss.inFlight
					}
				} else {
					ss.bwdDone[task.Index] = end
					ss.inFlight -= task.End - task.Start
				}
				timeline = append(timeline, TaskRecord{
					Stage: strategy.StageID(i), Task: task, Start: start, End: end,
				})
				ss.next++
				remaining--
				progress = true
			}
		}
		if !progress {
			return nil, fmt.Errorf("sim: deadlock with %d tasks remaining", remaining)
		}
	}

	res := &Result{Timeline: timeline, Stages: make([]StageStats, n)}
	var computeSpan, firstStart float64
	firstStart = math.Inf(1)
	for _, tr := range timeline {
		if tr.Start < firstStart {
			firstStart = tr.Start
		}
		if tr.End > computeSpan {
			computeSpan = tr.End
		}
	}
	// Each stage begins its gradient allreduce as soon as its own last
	// backward finishes; the iteration ends when every stage's
	// synchronization completes (matching package runtime's semantics).
	var iterEnd, allreduce float64
	for i, ss := range states {
		busy := float64(len(ss.st.Tasks)/2)*(ss.fwdTime+ss.bwdTime) +
			float64(len(ss.st.Tasks)%2)*ss.fwdTime
		res.Stages[i] = StageStats{
			ComputeTime:         busy,
			IdleTime:            computeSpan - firstStart - busy,
			PeakMemory:          ss.weight + ss.actPerS*float64(ss.peakInFlight),
			PeakInFlightSamples: ss.peakInFlight,
		}
		if ss.arTime > allreduce {
			allreduce = ss.arTime
		}
		if end := ss.lastDone + ss.arTime; end > iterEnd {
			iterEnd = end
		}
	}
	res.ComputeSpan = computeSpan - firstStart
	res.AllreduceTime = allreduce
	res.IterationTime = iterEnd - firstStart
	res.Throughput = float64(st.MiniBatch) / res.IterationTime
	return res, nil
}

// readyAt returns the earliest time the task's cross-stage dependencies are
// satisfied, or ok=false if a dependency has not completed yet.
//
// Forward task j of stage s needs, from every predecessor stage p, the
// forward results covering s's sample range [Start, End), plus the transfer
// time over the p→s link. Backward task j needs s's own forward j and, from
// every successor stage t, the gradient results covering the range, plus
// transfer. Sample-range alignment handles per-stage micro-batch sizes.
func (sm *Simulator) readyAt(st *strategy.Strategy, states []*stageState, sid strategy.StageID, task schedule.Task) (float64, bool) {
	ss := states[sid]
	ready := 0.0
	if task.Kind == schedule.Forward {
		for _, pid := range st.Pred[sid] {
			ps := states[pid]
			done, ok := rangeDone(ps.fwdDone, ps.st.Config.MicroBatch, task.Start, task.End)
			if !ok {
				return 0, false
			}
			t := done + sm.transferTime(st, pid, sid, task.End-task.Start)
			if t > ready {
				ready = t
			}
		}
		return ready, true
	}
	// Backward: own forward must be done.
	own := ss.fwdDone[task.Index]
	if math.IsNaN(own) {
		return 0, false
	}
	ready = own
	for _, tid := range st.Succ[sid] {
		ts := states[tid]
		done, ok := rangeDone(ts.bwdDone, ts.st.Config.MicroBatch, task.Start, task.End)
		if !ok {
			return 0, false
		}
		t := done + sm.transferTime(st, tid, sid, task.End-task.Start)
		if t > ready {
			ready = t
		}
	}
	return ready, true
}

// rangeDone returns the latest completion time among the tasks of a stage
// (with micro-batch size b) covering samples [start, end), or ok=false if
// any is unfinished.
func rangeDone(done []float64, b, start, end int) (float64, bool) {
	lo := start / b
	hi := (end + b - 1) / b
	if hi > len(done) {
		hi = len(done)
	}
	latest := 0.0
	for j := lo; j < hi; j++ {
		if math.IsNaN(done[j]) {
			return 0, false
		}
		if done[j] > latest {
			latest = done[j]
		}
	}
	return latest, true
}

// transferTime charges the activation (or gradient) bytes for `samples`
// samples crossing the from→to stage boundary (eval.EdgeTransfer). Streams
// from different producers proceed in parallel, so each boundary edge is
// charged independently. Edge costs are cached per stage edge.
func (sm *Simulator) transferTime(st *strategy.Strategy, from, to strategy.StageID, samples int) float64 {
	key := [2]strategy.StageID{from, to}
	x, ok := sm.xfer[key]
	if !ok {
		x = eval.EdgeTransfer(sm.g, sm.topo, st, from, to)
		sm.xfer[key] = x
	}
	return x.Time(samples)
}
