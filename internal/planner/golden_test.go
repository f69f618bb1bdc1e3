package planner_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/artifacts.golden from this run's plans")

const artifactGolden = "testdata/artifacts.golden"

// goldenCell is one pinned planning question.
type goldenCell struct {
	planner  string
	model    string
	branches int
	devices  int
	topology string // models.Topology name; empty selects Summit
}

func (c goldenCell) name() string {
	s := fmt.Sprintf("%s/%s", c.planner, c.model)
	if c.branches > 0 {
		s += fmt.Sprintf("-%db", c.branches)
	}
	s += fmt.Sprintf("@%d", c.devices)
	if c.topology != "" {
		s += "/" + c.topology
	}
	return s
}

// goldenCells lists the pinned questions: GraphPipe and PipeDream on the
// three paper models at 4, 8 and 16 Summit devices, Piper on the one
// paper model it can solve (two-branch MMT), GraphPipe and PipeDream on
// one heterogeneous and two hierarchical synth topologies, and GraphPipe
// on the heterogeneous topology at 32 devices, whose blocks form more
// than 256 placement classes across all sizes.
func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, pl := range []string{"graphpipe", "pipedream"} {
		for _, m := range []string{"mmt", "dlrm", "candle-uno"} {
			for _, d := range []int{4, 8, 16} {
				cells = append(cells, goldenCell{planner: pl, model: m, devices: d})
			}
		}
	}
	for _, d := range []int{4, 8} {
		cells = append(cells, goldenCell{planner: "piper", model: "mmt", branches: 2, devices: d})
	}
	for _, pl := range []string{"graphpipe", "pipedream"} {
		cells = append(cells,
			goldenCell{planner: pl, model: "candle-uno", devices: 8, topology: "topo:hetero-speed/seed=7"},
			goldenCell{planner: pl, model: "mmt", devices: 8, topology: "topo:hierarchical/seed=1"},
			goldenCell{planner: pl, model: "mmt", devices: 8, topology: "topo:two-tier/seed=1"})
	}
	cells = append(cells, goldenCell{planner: "graphpipe", model: "candle-uno", devices: 32, topology: "topo:hetero-speed/seed=7"})
	return cells
}

// goldenLine plans one cell and renders its pin: the request fingerprint
// and the SHA-256 of the artifact carrying identity fields only (no
// evaluations, no search statistics), so the line changes exactly when
// the planning question or the chosen strategy does.
func goldenLine(t *testing.T, c goldenCell) string {
	t.Helper()
	g, _, err := models.Build(c.model, c.branches, c.devices)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := models.PaperMiniBatch(c.model, c.devices)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := models.Topology(c.topology, c.devices)
	if err != nil {
		t.Fatal(err)
	}
	p, err := planner.Get(c.planner)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := p.Plan(g, topo, mb, planner.Options{})
	if err != nil {
		t.Fatalf("%s: %v", c.name(), err)
	}
	art := &strategy.Artifact{
		Model:     c.model,
		Branches:  c.branches,
		Devices:   c.devices,
		Topology:  topo.Canonical(),
		MiniBatch: mb,
		Planner:   strategy.PlannerMeta{Name: c.planner},
		Strategy:  st,
	}
	data, err := strategy.EncodeArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%s fp=%s artifact=%s", c.name(), art.Fingerprint(), hex.EncodeToString(sum[:]))
}

// TestArtifactGolden pins every planner's plans on the paper models: the
// request fingerprint and artifact bytes of each cell must match the
// committed golden file. A cost-model or search refactor that claims to
// keep plans unchanged is checked here; one that changes a plan on
// purpose regenerates the file with
//
//	go test ./internal/planner -run TestArtifactGolden -update-golden
//
// and the diff shows which cells moved. Cells above 8 devices are skipped
// under -short.
func TestArtifactGolden(t *testing.T) {
	if *updateGolden && testing.Short() {
		t.Fatal("-update-golden needs every cell; run without -short")
	}
	want := map[string]string{}
	if !*updateGolden {
		data, err := os.ReadFile(artifactGolden)
		if err != nil {
			t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			name, _, _ := strings.Cut(line, " ")
			want[name] = line
		}
	}
	var got []string
	for _, c := range goldenCells() {
		c := c
		t.Run(c.name(), func(t *testing.T) {
			if testing.Short() && c.devices > 8 {
				t.Skip("cells above 8 devices skipped in -short mode")
			}
			line := goldenLine(t, c)
			got = append(got, line)
			if !*updateGolden && line != want[c.name()] {
				t.Errorf("plan drifted from %s:\ngot  %s\nwant %s", artifactGolden, line, want[c.name()])
			}
		})
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(artifactGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(artifactGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", artifactGolden)
	}
}
