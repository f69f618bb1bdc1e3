package experiments

import (
	"strings"
	"testing"

	"graphpipe/internal/models"
	"graphpipe/internal/planner"
)

// TestRunAllSystemsSmall exercises the harness end to end on a small model.
func TestRunAllSystemsSmall(t *testing.T) {
	cfg := models.DefaultMMTConfig()
	cfg.Branches = 2
	cfg.LayersPerBranch = 3
	g := models.MMT(cfg)
	for _, sys := range Systems {
		o := Run(sys, g, 4, 16, RunOptions{})
		if o.Failed {
			t.Errorf("%s failed: %v", sys, o.Err)
			continue
		}
		if o.Throughput <= 0 || o.SearchTime <= 0 {
			t.Errorf("%s outcome incomplete: %+v", sys, o)
		}
		if o.Stages < 1 || o.Depth < 1 || o.Depth > o.Stages {
			t.Errorf("%s stage stats implausible: %+v", sys, o)
		}
	}
}

func TestRunUnknownSystem(t *testing.T) {
	g := models.SequentialTransformer(4)
	o := Run(System("nope"), g, 2, 8, RunOptions{})
	if !o.Failed {
		t.Error("unknown system did not fail")
	}
}

func TestFormatters(t *testing.T) {
	ok := Outcome{Throughput: 123.4, SearchTime: 1500 * 1e6}
	if FmtThroughput(ok) != "123" {
		t.Errorf("FmtThroughput = %q", FmtThroughput(ok))
	}
	bad := Outcome{Failed: true}
	if FmtThroughput(bad) != "✗" || FmtSearch(bad) != "✗" {
		t.Error("failure formatting wrong")
	}
}

func TestPiperExplosionSurfacesAsFailure(t *testing.T) {
	g := models.DLRM(models.DefaultDLRMConfig())
	o := Run(Piper, g, 4, 64, RunOptions{Planner: planner.Options{StateBudget: 10_000}})
	if !o.Failed || !IsExplosion(o) {
		t.Errorf("DLRM should explode Piper: %+v", o)
	}
}

// TestGraphPipeBeatsSPPOnBranches is the reproduction's headline claim at
// the harness level: on a branch-heavy model with enough devices, GraphPipe
// must beat PipeDream, and its pipeline must be shallower.
func TestGraphPipeBeatsSPPOnBranches(t *testing.T) {
	g := models.CANDLEUno(models.DefaultCANDLEUnoConfig())
	gp := Run(GraphPipe, g, 8, 8192, RunOptions{})
	pd := Run(PipeDream, g, 8, 8192, RunOptions{})
	if gp.Failed || pd.Failed {
		t.Fatalf("runs failed: gp=%v pd=%v", gp.Err, pd.Err)
	}
	if gp.Throughput < pd.Throughput {
		t.Errorf("GraphPipe %.0f below PipeDream %.0f on 4-branch model",
			gp.Throughput, pd.Throughput)
	}
	if gp.Depth >= pd.Depth && pd.Depth > 2 {
		t.Errorf("GraphPipe depth %d not below PipeDream %d", gp.Depth, pd.Depth)
	}
}

func TestA3SequentialParity(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Plan only the 4- and 8-device points the assertions read — the full
	// A3Sequential sweep includes 32-device chain DPs that take minutes
	// under the race detector.
	g := models.SequentialTransformer(32)
	for _, devs := range []int{4, 8} {
		mb, err := models.PaperMiniBatch("mmt", devs)
		if err != nil {
			t.Fatal(err)
		}
		outs := RunGrid([]Job{
			{System: PipeDream, Graph: g, Devices: devs, MiniBatch: mb},
			{System: GraphPipe, Graph: g, Devices: devs, MiniBatch: mb},
		})
		pd, gp := outs[0], outs[1]
		if gp.Failed || pd.Failed {
			t.Fatalf("devices=%d failed: %v %v", devs, gp.Err, pd.Err)
		}
		ratio := gp.Throughput / pd.Throughput
		if ratio < 0.9 {
			t.Errorf("devices=%d: GraphPipe %.0f well below PipeDream %.0f on a sequential model",
				devs, gp.Throughput, pd.Throughput)
		}
	}
}

func TestDeviceCountsCopy(t *testing.T) {
	d := DeviceCounts()
	d[0] = 999
	if DeviceCounts()[0] == 999 {
		t.Error("DeviceCounts exposes internal slice")
	}
}

func TestFig6CSVShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// A cut-down Fig6-style result over a small model, exercising the CSV
	// path without the full sweep.
	res := &Fig6Result{Model: "test"}
	g := models.SequentialTransformer(8)
	row := Fig6Row{Devices: 4, MiniBatch: 16, Outcomes: map[System]Outcome{}}
	for _, sys := range []System{PipeDream, GraphPipe} {
		row.Outcomes[sys] = Run(sys, g, 4, 16, RunOptions{})
	}
	row.Outcomes[Piper] = Outcome{Failed: true}
	res.Rows = append(res.Rows, row)
	csv := res.CSV(Systems)
	out := csv.String()
	if !strings.Contains(out, "devices,mini_batch,piper_samples_per_s") {
		t.Errorf("csv header wrong: %s", out)
	}
	if !strings.Contains(out, "✗") {
		t.Errorf("csv missing ✗ for failed piper: %s", out)
	}
}

func TestCaseStudyReport(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := CaseStudy(0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup <= 0 {
		t.Errorf("speedup = %g", r.Speedup)
	}
	if r.GPDepth > r.SPPDepth {
		t.Errorf("GraphPipe depth %d exceeds SPP depth %d", r.GPDepth, r.SPPDepth)
	}
	rep := r.Report()
	for _, want := range []string{"pipeline depth", "micro-batch size", "throughput"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
