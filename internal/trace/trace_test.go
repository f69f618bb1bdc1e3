package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/eval"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"

	_ "graphpipe/internal/eval/all"
	_ "graphpipe/internal/planner/all"
)

func TestGanttAndSummary(t *testing.T) {
	g := models.SequentialTransformer(8)
	st, res := plannedAndEvaluated(t, g, cluster.NewSummitTopology(4), 32)

	gantt := Gantt(st, res, 80)
	lines := strings.Split(strings.TrimRight(gantt, "\n"), "\n")
	if len(lines) != st.NumStages()+1 {
		t.Errorf("gantt rows = %d, want %d stages + axis", len(lines), st.NumStages())
	}
	if !strings.Contains(gantt, "F") {
		t.Error("gantt missing forward marks")
	}
	if !strings.Contains(gantt, "B") {
		t.Error("gantt missing backward marks")
	}

	sum := Summary(st, res)
	for _, want := range []string{"graphpipe", "stages", "depth", "throughput"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q: %s", want, sum)
		}
	}
}

func TestGanttDefaultsAndEmpty(t *testing.T) {
	if out := Gantt(nil, &eval.Report{}, 0); out != "" {
		t.Errorf("empty timeline should render empty, got %q", out)
	}
}

func TestCSV(t *testing.T) {
	c := NewCSV("devices", "graphpipe", "pipedream")
	c.Add(4, 123.456789, 100.0)
	c.Add(8, 250.0, "x")
	s := c.String()
	if !strings.HasPrefix(s, "devices,graphpipe,pipedream\n") {
		t.Errorf("csv header wrong: %q", s)
	}
	if !strings.Contains(s, "4,123.457,100\n") {
		t.Errorf("csv row formatting wrong: %q", s)
	}
	if !strings.Contains(s, "8,250,x\n") {
		t.Errorf("csv mixed row wrong: %q", s)
	}
	md := c.Markdown()
	if !strings.Contains(md, "| devices | graphpipe | pipedream |") ||
		!strings.Contains(md, "|---|---|---|") {
		t.Errorf("markdown wrong: %q", md)
	}
}

func TestChromeTrace(t *testing.T) {
	g := models.SequentialTransformer(8)
	st, res := plannedAndEvaluated(t, g, cluster.NewSummitTopology(4), 32)
	data, err := ChromeTrace(st, res)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	// Metadata per stage + one event per task.
	want := st.NumStages() + len(res.Timeline)
	if len(events) != want {
		t.Errorf("events = %d, want %d", len(events), want)
	}
	counts := map[string]int{}
	for _, e := range events {
		if ph, _ := e["ph"].(string); ph == "X" {
			counts[e["cat"].(string)]++
			if e["dur"].(float64) <= 0 {
				t.Error("zero-duration task event")
			}
		}
	}
	if counts["forward"] == 0 || counts["backward"] == 0 {
		t.Errorf("missing categories: %v", counts)
	}
	if counts["forward"] != counts["backward"] {
		t.Errorf("forward/backward imbalance: %v", counts)
	}
}

// plannedAndEvaluated plans g with the registered GraphPipe planner and
// runs one iteration through the registered sim backend.
func plannedAndEvaluated(t *testing.T, g *graph.Graph, topo *cluster.Topology, miniBatch int) (*strategy.Strategy, *eval.Report) {
	t.Helper()
	pl, err := planner.Get("graphpipe")
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := pl.Plan(g, topo, miniBatch, planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eval.Get("sim")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ev.Evaluate(g, topo, st, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st, rep
}
