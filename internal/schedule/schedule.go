// Package schedule implements GraphPipe's static micro-batch scheduler (§6,
// Algorithm 2, Appendix A.1).
//
// A pipeline stage's schedule is characterized by a configuration
// c = (i, b, k): the number of in-flight samples i, the micro-batch size b,
// and the k of its kFkB schedule. A kFkB schedule starts with ℓ forward
// passes (warm-up), alternates k backward and k forward passes in steady
// state, and ends with ℓ backward passes (cool-down) — footnote 2 of the
// paper. Synchronous 1F1B (k = 1) is the default.
//
// ComputeInFlight reproduces Table 2 exactly: given the current stage's
// (k_x, b_x) and a successor stage's (k_y, b_y, i_y), it returns the minimal
// number of in-flight samples the current stage needs for continuous
// pipelining. With graph-shaped stage dependencies a stage can have several
// successors; the stage then needs the maximum over them (Appendix A.1).
package schedule

import (
	"fmt"
)

// Config is the (b, k) part of a stage's schedule configuration: micro-batch
// size in samples and the k of the kFkB schedule.
type Config struct {
	MicroBatch int // b: samples per micro-batch
	K          int // k: passes per kFkB burst (1 = 1F1B)
}

// Valid reports whether the configuration is well-formed.
func (c Config) Valid() bool { return c.MicroBatch >= 1 && c.K >= 1 }

// String renders the config as in the paper, e.g. "b=4 2F2B".
func (c Config) String() string {
	return fmt.Sprintf("b=%d %dF%dB", c.MicroBatch, c.K, c.K)
}

// Successor bundles the schedule information of a following stage that
// ComputeInFlight consumes: its configuration and its own in-flight sample
// count (i_y), which was already determined because stages are scheduled by
// walking the stage graph backward from the sink (§6).
type Successor struct {
	Config
	InFlight int // i_y: in-flight samples of the successor stage
}

// computeInFlightOne evaluates Table 2 for one successor.
func computeInFlightOne(cur Config, succ Successor) int {
	bx, kx := cur.MicroBatch, cur.K
	by, ky := succ.MicroBatch, succ.K
	iy := succ.InFlight
	mx := kx * bx // k_x · b_x
	my := ky * by // k_y · b_y
	maxB := bx
	if by > maxB {
		maxB = by
	}
	switch {
	case maxB < mx && mx < my:
		return iy + 2*maxB
	case maxB == mx && mx < my:
		return iy + maxB
	case bx <= by && by < my && my < mx:
		return iy + mx - my + 2*by
	case bx <= by && by == my && my < mx:
		return iy + mx
	case by <= bx && bx < my && my < mx:
		return iy + mx - my + 2*bx
	case by <= bx && bx == my && my < mx:
		return iy + mx
	case maxB == my && my == mx:
		return iy + my
	case maxB < my && my == mx:
		return iy + 2*maxB
	case bx <= mx && mx < by && by <= my:
		return iy + by
	case by <= my && my < bx && bx <= mx:
		return iy + mx - my + bx
	}
	// Table 2 is exhaustive for k ≥ 1, b ≥ 1 (verified by property test);
	// reaching here means invalid inputs.
	panic(fmt.Sprintf("schedule: ComputeInFlight conditions not exhaustive for cur=%+v succ=%+v", cur, succ))
}

// ComputeInFlight returns the minimal number of in-flight samples for a
// stage with configuration cur whose successor stages are succs. A stage
// with no successors (the stage containing the model's sink: its backward
// pass starts immediately after its forward pass) keeps k_x·b_x samples in
// flight.
func ComputeInFlight(cur Config, succs []Successor) int {
	if !cur.Valid() {
		panic(fmt.Sprintf("schedule: invalid config %+v", cur))
	}
	if len(succs) == 0 {
		return cur.K * cur.MicroBatch
	}
	max := 0
	for _, s := range succs {
		if !s.Valid() {
			panic(fmt.Sprintf("schedule: invalid successor config %+v", s))
		}
		if v := computeInFlightOne(cur, s); v > max {
			max = v
		}
	}
	return max
}
