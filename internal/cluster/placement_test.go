package cluster_test

import (
	"fmt"
	"strings"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/models"
	"graphpipe/internal/synth"
)

func buildTopology(t *testing.T, name string, n int) *cluster.Topology {
	t.Helper()
	if name == "summit" {
		return cluster.NewSummitTopology(n)
	}
	topo, err := synth.BuildTopology(name, n)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// blockSig spells out everything a placement-aware cost can see of a
// block: the level of the link feeding it, its device classes, and the
// levels of its internal links.
func blockSig(topo *cluster.Topology, start, count int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "in%d", topo.InLinkLevel(start))
	for i := start; i < start+count; i++ {
		fmt.Fprintf(&sb, " c%d", topo.ClassOf(cluster.DeviceID(i)))
		if i > start {
			fmt.Fprintf(&sb, "@%d", topo.LinkLevel(cluster.DeviceID(i-1), cluster.DeviceID(i)))
		}
	}
	return sb.String()
}

// TestPlacementClassesStableAcrossSummitSizes pins what lets a memo
// snapshot warm-start summit at another device count without translating
// keys: every block has the same class id at every cluster size that
// contains it.
func TestPlacementClassesStableAcrossSummitSizes(t *testing.T) {
	const maxN = 127
	big := cluster.NewPlacementTable(cluster.NewSummitTopology(maxN))
	for n := 1; n <= 64; n++ {
		pt := cluster.NewPlacementTable(cluster.NewSummitTopology(n))
		for count := 1; count <= n; count++ {
			for start := 0; start+count <= n; start++ {
				if got, want := pt.Class(start, count), big.Class(start, count); got != want {
					t.Fatalf("summit@%d: Block{%d, %d} has class %d, %d at %d devices",
						n, start, count, got, want, maxN)
				}
			}
		}
	}
}

// TestPlacementClassesShareBySignature pins that classes are exactly the
// signature classes of same-size blocks: blocks of one size share a class
// if and only if they share a signature, ids are dense in start order, and
// Rep names the first block of its class.
func TestPlacementClassesShareBySignature(t *testing.T) {
	for _, c := range []struct {
		topo string
		n    int
	}{{"summit", 64}, {"topo:hetero-speed/seed=7", 32}} {
		topo := buildTopology(t, c.topo, c.n)
		pt := cluster.NewPlacementTable(topo)
		shared := false
		for count := 1; count <= c.n; count++ {
			classOf := map[string]int{}
			for start := 0; start+count <= c.n; start++ {
				sig, id := blockSig(topo, start, count), pt.Class(start, count)
				want, seen := classOf[sig]
				if !seen {
					want = len(classOf)
					classOf[sig] = want
					if rep := pt.Rep(id, count); rep != (cluster.Block{Start: start, Count: count}) {
						t.Errorf("%s@%d: Rep(%d, %d) = %+v, want the class's first block at %d",
							c.topo, c.n, id, count, rep, start)
					}
				} else {
					shared = true
				}
				if id != want {
					t.Fatalf("%s@%d: Block{%d, %d} has class %d, want %d (signature %q)",
						c.topo, c.n, start, count, id, want, sig)
				}
			}
			if got := pt.NumClasses(count); got != len(classOf) || got > c.n-count+1 {
				t.Errorf("%s@%d: size %d has %d classes, want %d ≤ %d",
					c.topo, c.n, count, got, len(classOf), c.n-count+1)
			}
		}
		if !shared {
			t.Errorf("%s@%d: no two blocks share a class", c.topo, c.n)
		}
	}
}

// TestPlacementRepresentativesCostAlike pins the soundness of costing a
// stage on its class representative: for every block, the cost model
// returns exactly the costs it returns for the representative.
func TestPlacementRepresentativesCostAlike(t *testing.T) {
	g := models.MMT(models.DefaultMMTConfig())
	ops := g.AllNodes()
	for _, src := range g.Sources() {
		ops.Remove(src) // keep an in-edge, so boundary transfers cost something
	}
	for _, name := range []string{"topo:hetero-speed/seed=7", "topo:hierarchical/seed=1"} {
		topo := buildTopology(t, name, 16)
		pt := cluster.NewPlacementTable(topo)
		model := costmodel.NewDefault(topo)
		stage := func(b cluster.Block) costmodel.StageCosts {
			return model.Stage(g, costmodel.StageConfig{Ops: ops, MicroBatch: 8, DataPar: b.Count, Place: b})
		}
		distinct := map[costmodel.StageCosts]bool{}
		for count := 1; count <= topo.Len(); count++ {
			for start := 0; start+count <= topo.Len(); start++ {
				block := cluster.Block{Start: start, Count: count}
				rep := pt.Rep(pt.Class(start, count), count)
				got, want := stage(block), stage(rep)
				if got != want {
					t.Errorf("%s: %+v costs %+v, its representative %+v costs %+v", name, block, got, rep, want)
				}
				if count == 1 {
					distinct[got] = true
				}
			}
		}
		if len(distinct) < 2 {
			t.Errorf("%s: every single device costs the same; the check compares nothing", name)
		}
	}
}
