package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/strategy"
)

// reuseCase is one (model, devices) cell of the cross-probe-reuse
// equivalence matrix: every planner-relevant evaluation model at the
// paper's smallest and largest cluster sizes.
type reuseCase struct {
	name    string
	build   func() *graph.Graph
	devices int
	// miniBatch for the cell. The 32-device cells use reduced mini-batch
	// sizes (a shorter candidate ladder than the paper's Appendix A.2
	// pairing) so the reference path — a fresh memo per probe, sequential —
	// stays affordable under -race; the DP itself still partitions the full
	// model over 32 devices.
	miniBatch int
}

func reuseCases() []reuseCase {
	mmt := func() *graph.Graph { return models.MMT(models.DefaultMMTConfig()) }
	mmt2b := func() *graph.Graph {
		cfg := models.DefaultMMTConfig()
		cfg.Branches = 2
		return models.MMT(cfg)
	}
	dlrm := func() *graph.Graph { return models.DLRM(models.DefaultDLRMConfig()) }
	candle := func() *graph.Graph { return models.CANDLEUno(models.DefaultCANDLEUnoConfig()) }
	return []reuseCase{
		{"mmt", mmt, 4, 64},
		{"mmt", mmt, 32, 256},
		{"mmt-2b", mmt2b, 4, 64},
		{"mmt-2b", mmt2b, 32, 256},
		{"dlrm", dlrm, 4, 256},
		{"dlrm", dlrm, 32, 512},
		{"candle-uno", candle, 4, 4096},
		{"candle-uno", candle, 32, 4096},
	}
}

// planArtifact plans g and renders the result as a serialized artifact with
// provenance stripped of search statistics, so two planning paths that find
// the same strategy produce byte-identical artifacts.
func planArtifact(t *testing.T, g *graph.Graph, c reuseCase, opts Options) ([]byte, *Result) {
	t.Helper()
	topo := cluster.NewSummitTopology(c.devices)
	p, err := NewPlanner(g, costmodel.NewDefault(topo), opts)
	if err != nil {
		t.Fatalf("%s/%d: NewPlanner: %v", c.name, c.devices, err)
	}
	r, err := p.Plan(c.miniBatch)
	if err != nil {
		t.Fatalf("%s/%d: Plan: %v", c.name, c.devices, err)
	}
	data, err := strategy.EncodeArtifact(&strategy.Artifact{
		Model:     c.name,
		Devices:   c.devices,
		MiniBatch: c.miniBatch,
		Planner:   strategy.PlannerMeta{Name: "graphpipe"},
		Strategy:  r.Strategy,
	})
	if err != nil {
		t.Fatalf("%s/%d: EncodeArtifact: %v", c.name, c.devices, err)
	}
	return data, r
}

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/reuse32.golden from this run's artifacts")

const reuseGolden = "testdata/reuse32.golden"

// TestCrossProbeReuseEquivalence pins the tentpole's correctness claim: the
// probe-spanning memo with monotone validity intervals returns exactly the
// strategy of the reference search (a fresh memo per probe, Workers=1) on
// every planner-relevant model × {4, 32} devices, while recomputing
// strictly fewer DP states. The 32-device artifacts are also pinned by
// SHA-256 against testdata/reuse32.golden (rewritten by -update-golden),
// so a refactor that changes both search paths alike is caught too.
func TestCrossProbeReuseEquivalence(t *testing.T) {
	if *updateGolden && testing.Short() {
		t.Fatal("-update-golden needs the 32-device cells; run without -short")
	}
	want := map[string]string{}
	if !*updateGolden {
		data, err := os.ReadFile(reuseGolden)
		if err != nil {
			t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			name, _, _ := strings.Cut(line, " ")
			want[name] = line
		}
	}
	var pinned []string
	for _, c := range reuseCases() {
		c := c
		t.Run(fmt.Sprintf("%s-%ddev", c.name, c.devices), func(t *testing.T) {
			if testing.Short() && c.devices > 4 {
				t.Skip("32-device cells skipped in -short mode")
			}
			g := c.build()
			refArt, ref := planArtifact(t, g, c, Options{Workers: 1, FreshProbeMemo: true})
			optArt, opt := planArtifact(t, g, c, Options{Workers: 1})
			if !bytes.Equal(refArt, optArt) {
				t.Errorf("artifacts differ between fresh-memo reference and cross-probe reuse:\nref:\n%s\nopt:\n%s",
					refArt, optArt)
			}
			if opt.DPStates >= ref.DPStates {
				t.Errorf("reuse did not reduce DP states: %d (reuse) vs %d (reference)",
					opt.DPStates, ref.DPStates)
			}
			if opt.BinaryIters != ref.BinaryIters {
				t.Errorf("binary-search trajectory diverged: %d iters (reuse) vs %d (reference)",
					opt.BinaryIters, ref.BinaryIters)
			}
			t.Logf("%s/%d: DP states %d -> %d (%.1fx fewer)",
				c.name, c.devices, ref.DPStates, opt.DPStates,
				float64(ref.DPStates)/float64(opt.DPStates))
			if c.devices == 32 {
				sum := sha256.Sum256(optArt)
				cell := fmt.Sprintf("%s@%d", c.name, c.devices)
				line := cell + " artifact=" + hex.EncodeToString(sum[:])
				pinned = append(pinned, line)
				if !*updateGolden && line != want[cell] {
					t.Errorf("artifact drifted from %s:\ngot  %s\nwant %s", reuseGolden, line, want[cell])
				}
			}
		})
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reuseGolden, []byte(strings.Join(pinned, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", reuseGolden)
	}
}
