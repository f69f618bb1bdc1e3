// Package runtime executes a pipeline-parallel strategy on a concurrent,
// message-passing runtime: one goroutine per pipeline stage (standing in
// for the stage's device group), typed activation and gradient messages
// over channels (standing in for NCCL/MPI transfers), and a distributed
// virtual clock carried on every message.
//
// It substitutes for the paper's FlexFlow-based distributed runtime (§7) at
// the coordination layer: the real system's correctness risks — deadlocks
// from mis-ordered schedules, missing tensors at stage boundaries, stale
// in-flight accounting — are exercised for real here, because stages
// genuinely block on channel receives until their inputs arrive. Only the
// kernel execution is virtual: instead of running CUDA kernels, each task
// advances the stage's virtual clock by the cost model's duration.
//
// The virtual-clock protocol makes the concurrent execution deterministic:
// a task starts at max(own clock, latest input timestamp) and the output
// message carries completion + transfer time — a distributed event-driven
// simulation. Its iteration time therefore must equal the sequential
// simulator's (package sim), which the tests assert; each implementation
// validates the other.
package runtime

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"graphpipe/internal/costmodel"
	"graphpipe/internal/eval"
	"graphpipe/internal/graph"
	"graphpipe/internal/schedule"
	"graphpipe/internal/strategy"
)

// message is one tensor transfer between stages.
type message struct {
	// from identifies the sending stage: a task needs its sample range
	// covered by every relevant neighbor, not just any of them.
	from strategy.StageID
	// start/end is the sample range the tensor covers.
	start, end int
	// readyAt is the virtual time the tensor is available at the
	// receiver, including the transfer time.
	readyAt float64
}

// Options tunes the runtime.
type Options struct {
	// Timeout aborts a deadlocked execution (default 30s of wall time).
	Timeout time.Duration
}

// Result mirrors sim.Result for the fields the runtime can observe.
type Result struct {
	IterationTime float64
	Throughput    float64
	// StageClocks is each stage's final virtual time (before gradient
	// sync).
	StageClocks []float64
	// MessagesSent counts all inter-stage tensor transfers.
	MessagesSent int
	// Timeline holds every executed task, ordered per stage by execution
	// order (concatenated stage by stage, not globally sorted).
	Timeline []eval.TaskRecord
}

// PendingDep is one unsatisfied cross-stage dependency of a blocked task:
// the neighbor stage that has not delivered, and the contiguous sample
// range still missing from its coverage.
type PendingDep struct {
	// From is the neighbor stage the blocked stage is waiting on.
	From strategy.StageID
	// MissingStart/MissingEnd is the first contiguous run of samples
	// [MissingStart, MissingEnd) not yet covered by From's messages.
	MissingStart, MissingEnd int
}

// DeadlockError reports a wall-clock timeout while a stage was blocked on
// channel receives: the stuck stage, the task it could not start, and the
// exact dependencies that never arrived. A mis-ordered schedule (C4
// violations the planner let through, or a hand-edited artifact) surfaces
// here instead of as a bare timeout.
type DeadlockError struct {
	// Stage is the stuck stage.
	Stage strategy.StageID
	// Task is the task the stage could not start.
	Task schedule.Task
	// What names the missing tensor kind: "activations" or "gradients".
	What string
	// Pending lists, per unsatisfied neighbor, the sample ranges still
	// outstanding.
	Pending []PendingDep
}

// Error renders the deadlock with its full dependency diagnosis.
func (e *DeadlockError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "runtime: stage %d deadlocked waiting for %s of samples [%d,%d) for task %s%d",
		e.Stage, e.What, e.Task.Start, e.Task.End, e.Task.Kind, e.Task.Index)
	for i, p := range e.Pending {
		if i == 0 {
			sb.WriteString(": pending ")
		} else {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "samples [%d,%d) from stage %d", p.MissingStart, p.MissingEnd, p.From)
	}
	return sb.String()
}

// Runtime executes strategies for one model on one topology.
type Runtime struct {
	g     *graph.Graph
	model costmodel.Model
	opts  Options
}

// New returns a Runtime.
func New(g *graph.Graph, model costmodel.Model, opts Options) *Runtime {
	if opts.Timeout == 0 {
		opts.Timeout = 30 * time.Second
	}
	return &Runtime{g: g, model: model, opts: opts}
}

// coverage tracks, per sample index, the virtual time its tensor arrived.
type coverage struct {
	readyAt []float64
}

func newCoverage(n int) *coverage {
	c := &coverage{readyAt: make([]float64, n)}
	for i := range c.readyAt {
		c.readyAt[i] = math.NaN()
	}
	return c
}

func (c *coverage) add(m message) {
	for s := m.start; s < m.end && s < len(c.readyAt); s++ {
		if math.IsNaN(c.readyAt[s]) || m.readyAt > c.readyAt[s] {
			c.readyAt[s] = m.readyAt
		}
	}
}

// have reports whether samples [start,end) are all covered and returns the
// latest arrival time.
func (c *coverage) have(start, end int) (float64, bool) {
	latest := 0.0
	for s := start; s < end; s++ {
		if math.IsNaN(c.readyAt[s]) {
			return 0, false
		}
		if c.readyAt[s] > latest {
			latest = c.readyAt[s]
		}
	}
	return latest, true
}

// missing returns the first contiguous run of samples in [start, end) not
// yet covered, or ok=false if the range is fully covered.
func (c *coverage) missing(start, end int) (lo, hi int, ok bool) {
	for s := start; s < end; s++ {
		if !math.IsNaN(c.readyAt[s]) {
			continue
		}
		lo = s
		hi = s + 1
		for hi < end && math.IsNaN(c.readyAt[hi]) {
			hi++
		}
		return lo, hi, true
	}
	return 0, 0, false
}

// stageWorker is the per-stage goroutine state.
type stageWorker struct {
	id    strategy.StageID
	stage *strategy.Stage

	fwdTime, bwdTime float64
	arTime           float64

	// actCh receives activation messages from predecessor stages;
	// gradCh receives gradient messages from successor stages. Capacities
	// cover every possible message, so sends never block (transfers are
	// asynchronous, like the real runtime's communication threads).
	actCh  chan message
	gradCh chan message

	// needsAct / needsGrad: whether the stage has predecessors/successors.
	needsAct  bool
	needsGrad bool

	// Per-neighbor coverage: a forward task must receive its sample range
	// from every predecessor, a backward task from every successor.
	actReady  map[strategy.StageID]*coverage
	gradReady map[strategy.StageID]*coverage

	clock   float64
	sent    int
	records []eval.TaskRecord
}

// Run executes one training iteration of st and returns the observed
// virtual iteration time. It errors on invalid strategies and on deadlock
// (wall-clock timeout while a stage is blocked).
func (rt *Runtime) Run(st *strategy.Strategy) (*Result, error) {
	topo := rt.model.Topology()
	if err := st.Validate(rt.g, topo); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	n := len(st.Stages)

	// Per-sample transfer seconds for each stage edge (same tensor sizes
	// in both directions: gradients mirror activations). Fully precomputed
	// so the map is read-only once the stage goroutines start.
	perSample := make(map[[2]strategy.StageID]float64)
	rate := func(from, to strategy.StageID) float64 {
		bytes := rt.g.CutBytes(st.Stages[from].Ops, st.Stages[to].Ops)
		if bytes == 0 {
			bytes = rt.g.CutBytes(st.Stages[to].Ops, st.Stages[from].Ops)
		}
		if bytes == 0 {
			return 0
		}
		return bytes / topo.GroupBandwidth(st.Stages[from].Devices, st.Stages[to].Devices)
	}
	for i := 0; i < n; i++ {
		for _, succ := range st.Succ[i] {
			a, b := strategy.StageID(i), succ
			perSample[[2]strategy.StageID{a, b}] = rate(a, b)
			perSample[[2]strategy.StageID{b, a}] = rate(b, a)
		}
	}
	edgeRate := func(from, to strategy.StageID) float64 {
		return perSample[[2]strategy.StageID{from, to}]
	}

	workers := make([]*stageWorker, n)
	// Channel capacity: every micro-batch from every neighbor, so senders
	// never block.
	capFor := func(i int) int {
		c := 16
		for _, p := range st.Pred[i] {
			c += st.MiniBatch / st.Stages[p].Config.MicroBatch
		}
		for _, sc := range st.Succ[i] {
			c += st.MiniBatch / st.Stages[sc].Config.MicroBatch
		}
		return c
	}
	for i := 0; i < n; i++ {
		stage := &st.Stages[i]
		costs := eval.StageCosts(rt.g, rt.model, stage)
		workers[i] = &stageWorker{
			id:        strategy.StageID(i),
			stage:     stage,
			fwdTime:   costs.ForwardTime,
			bwdTime:   costs.BackwardTime,
			arTime:    costs.AllreducePerIter,
			actCh:     make(chan message, capFor(i)),
			gradCh:    make(chan message, capFor(i)),
			needsAct:  len(st.Pred[i]) > 0,
			needsGrad: len(st.Succ[i]) > 0,
			actReady:  make(map[strategy.StageID]*coverage),
			gradReady: make(map[strategy.StageID]*coverage),
		}
		for _, pid := range st.Pred[i] {
			workers[i].actReady[pid] = newCoverage(st.MiniBatch)
		}
		for _, sid := range st.Succ[i] {
			workers[i].gradReady[sid] = newCoverage(st.MiniBatch)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(w *stageWorker) {
			defer wg.Done()
			if err := rt.runStage(st, workers, w, edgeRate, topo.LinkLatency); err != nil {
				select {
				case errCh <- err:
				default:
				}
			}
		}(workers[i])
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case err := <-errCh:
		return nil, err
	}
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	res := &Result{StageClocks: make([]float64, n)}
	var iter float64
	for i, w := range workers {
		end := w.clock + w.arTime // gradient sync closes the iteration
		res.StageClocks[i] = w.clock
		if end > iter {
			iter = end
		}
		res.MessagesSent += w.sent
		res.Timeline = append(res.Timeline, w.records...)
	}
	res.IterationTime = iter
	res.Throughput = float64(st.MiniBatch) / iter
	return res, nil
}

// runStage executes one stage's task list, blocking on channel receives
// until each task's inputs have arrived. The wall-clock timeout converts a
// schedule deadlock into an error instead of a hang.
func (rt *Runtime) runStage(st *strategy.Strategy, workers []*stageWorker, w *stageWorker,
	edgeRate func(from, to strategy.StageID) float64, latency float64) error {

	deadline := time.Now().Add(rt.opts.Timeout)
	// awaitRange blocks until every neighbor's coverage includes the
	// sample range, returning the latest arrival time over all of them. On
	// timeout it returns a *DeadlockError diagnosing, per unsatisfied
	// neighbor, exactly which samples never arrived.
	awaitRange := func(ch chan message, covs map[strategy.StageID]*coverage, task schedule.Task, what string) (float64, error) {
		start, end := task.Start, task.End
		for {
			latest, all := 0.0, true
			for _, cov := range covs {
				t, ok := cov.have(start, end)
				if !ok {
					all = false
					break
				}
				if t > latest {
					latest = t
				}
			}
			if all {
				return latest, nil
			}
			select {
			case m := <-ch:
				covs[m.from].add(m)
			case <-time.After(time.Until(deadline)):
				// Drain messages already in flight so the diagnosis
				// reflects everything that was ever going to arrive —
				// and if the drain completed the coverage (the inputs
				// were merely queued when the deadline fired), the task
				// is runnable after all, not deadlocked.
				for {
					select {
					case m := <-ch:
						covs[m.from].add(m)
						continue
					default:
					}
					break
				}
				derr := &DeadlockError{Stage: w.id, Task: task, What: what}
				for _, from := range sortedStageIDs(covs) {
					if lo, hi, missing := covs[from].missing(start, end); missing {
						derr.Pending = append(derr.Pending, PendingDep{
							From: from, MissingStart: lo, MissingEnd: hi,
						})
					}
				}
				if len(derr.Pending) == 0 {
					continue // drained to completion: recheck and run
				}
				return 0, derr
			}
		}
	}

	for _, task := range w.stage.Tasks {
		ready := 0.0
		var err error
		if task.Kind == schedule.Forward && w.needsAct {
			ready, err = awaitRange(w.actCh, w.actReady, task, "activations")
		} else if task.Kind == schedule.Backward && w.needsGrad {
			ready, err = awaitRange(w.gradCh, w.gradReady, task, "gradients")
		}
		if err != nil {
			return err
		}
		start := math.Max(w.clock, ready)
		if task.Kind == schedule.Forward {
			w.clock = start + w.fwdTime
			for _, succ := range st.Succ[w.id] {
				t := w.clock
				if ps := edgeRate(w.id, succ); ps > 0 {
					t += ps*float64(task.End-task.Start) + latency
				}
				workers[succ].actCh <- message{from: w.id, start: task.Start, end: task.End, readyAt: t}
				w.sent++
			}
		} else {
			w.clock = start + w.bwdTime
			for _, pred := range st.Pred[w.id] {
				t := w.clock
				// Gradients flow succ→pred: on asymmetric hierarchies the
				// up-link rate differs from the forward edge's down-link rate.
				if ps := edgeRate(w.id, pred); ps > 0 {
					t += ps*float64(task.End-task.Start) + latency
				}
				workers[pred].gradCh <- message{from: w.id, start: task.Start, end: task.End, readyAt: t}
				w.sent++
			}
		}
		w.records = append(w.records, eval.TaskRecord{Stage: w.id, Task: task, Start: start, End: w.clock})
	}
	return nil
}

// sortedStageIDs returns the coverage map's keys in ascending order so
// deadlock diagnoses are deterministic.
func sortedStageIDs(covs map[strategy.StageID]*coverage) []strategy.StageID {
	ids := make([]strategy.StageID, 0, len(covs))
	for id := range covs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
