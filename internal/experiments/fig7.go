package experiments

import (
	"fmt"

	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/trace"
)

// Fig7BranchRow is one point of Figure 7 (left): CANDLE-Uno variant with a
// given branch count on a given device count; throughputs normalized to
// PipeDream.
type Fig7BranchRow struct {
	Branches int
	Devices  int
	Outcomes map[System]Outcome
	// Normalized is GraphPipe / PipeDream throughput.
	Normalized float64
}

// Fig7Branches regenerates the left sub-figure: throughput versus number of
// parallel branches for the CANDLE-Uno model at 4, 8, and 16 GPUs. The
// paper normalizes to PipeDream; Piper cannot produce strategies here
// (footnote 3), so only the two systems run.
func Fig7Branches(branchCounts, devices []int, miniBatchPerBranchUnit int) ([]Fig7BranchRow, error) {
	if len(branchCounts) == 0 {
		branchCounts = []int{2, 4, 8, 16}
	}
	if len(devices) == 0 {
		devices = []int{4, 8, 16}
	}
	if miniBatchPerBranchUnit == 0 {
		miniBatchPerBranchUnit = 1024
	}
	systems := []System{PipeDream, GraphPipe}
	var rows []Fig7BranchRow
	var jobs []Job
	for _, devs := range devices {
		for _, br := range branchCounts {
			cfg := models.DefaultCANDLEUnoConfig()
			cfg.Branches = br
			g := models.CANDLEUno(cfg)
			// Scale the mini-batch with the device count as in the paper's
			// per-device-count sizing.
			mb := miniBatchPerBranchUnit * devs
			rows = append(rows, Fig7BranchRow{Branches: br, Devices: devs, Outcomes: map[System]Outcome{}})
			for _, sys := range systems {
				jobs = append(jobs, Job{System: sys, Graph: g, Devices: devs, MiniBatch: mb})
			}
		}
	}
	for i, o := range RunGrid(jobs) {
		rows[i/len(systems)].Outcomes[o.System] = o
	}
	for i := range rows {
		gp, pd := rows[i].Outcomes[GraphPipe], rows[i].Outcomes[PipeDream]
		if !gp.Failed && !pd.Failed && pd.Throughput > 0 {
			rows[i].Normalized = gp.Throughput / pd.Throughput
		}
	}
	return rows, nil
}

// Fig7BranchesCSV renders the branch sweep.
func Fig7BranchesCSV(rows []Fig7BranchRow) *trace.CSV {
	c := trace.NewCSV("devices", "branches", "pipedream_samples_per_s",
		"graphpipe_samples_per_s", "graphpipe_normalized")
	for _, r := range rows {
		c.Add(r.Devices, r.Branches,
			FmtThroughput(r.Outcomes[PipeDream]),
			FmtThroughput(r.Outcomes[GraphPipe]),
			fmt.Sprintf("%.2f", r.Normalized))
	}
	return c
}

// Fig7MicroBatchRow is one point of Figure 7 (right): both systems forced
// to a fixed micro-batch size on the four-branch MMT, mini-batch 128,
// 8 GPUs.
type Fig7MicroBatchRow struct {
	MicroBatch int
	Outcomes   map[System]Outcome
}

// Fig7MicroBatch regenerates the right sub-figure. Fixing the micro-batch
// size equalizes operational intensity, so any gap is attributable to
// pipeline depth alone (§7.3).
func Fig7MicroBatch(sizes []int) ([]Fig7MicroBatchRow, error) {
	if len(sizes) == 0 {
		sizes = []int{1, 2, 4, 8, 16}
	}
	g := models.MMT(models.DefaultMMTConfig()) // four branches
	const devices, miniBatch = 8, 128
	systems := []System{PipeDream, GraphPipe}
	var rows []Fig7MicroBatchRow
	var jobs []Job
	for _, b := range sizes {
		if miniBatch%b != 0 {
			return nil, fmt.Errorf("experiments: micro-batch %d does not divide %d", b, miniBatch)
		}
		rows = append(rows, Fig7MicroBatchRow{MicroBatch: b, Outcomes: map[System]Outcome{}})
		for _, sys := range systems {
			jobs = append(jobs, Job{System: sys, Graph: g, Devices: devices, MiniBatch: miniBatch,
				Opts: RunOptions{Planner: planner.Options{ForcedMicroBatch: b}}})
		}
	}
	for i, o := range RunGrid(jobs) {
		rows[i/len(systems)].Outcomes[o.System] = o
	}
	return rows, nil
}

// Fig7MicroBatchCSV renders the fixed micro-batch sweep.
func Fig7MicroBatchCSV(rows []Fig7MicroBatchRow) *trace.CSV {
	c := trace.NewCSV("micro_batch", "pipedream_samples_per_s", "graphpipe_samples_per_s",
		"graphpipe_depth", "pipedream_depth")
	for _, r := range rows {
		c.Add(r.MicroBatch,
			FmtThroughput(r.Outcomes[PipeDream]),
			FmtThroughput(r.Outcomes[GraphPipe]),
			r.Outcomes[GraphPipe].Depth,
			r.Outcomes[PipeDream].Depth)
	}
	return c
}
