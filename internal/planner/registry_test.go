package planner_test

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"

	_ "graphpipe/internal/planner/all"
)

// TestAllPlannersResolvable checks every built-in planner registers under
// its documented name and reports that name back.
func TestAllPlannersResolvable(t *testing.T) {
	for _, name := range []string{"graphpipe", "pipedream", "piper"} {
		p, err := planner.Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("Get(%q).Name() = %q", name, p.Name())
		}
	}
}

func TestUnknownPlannerError(t *testing.T) {
	_, err := planner.Get("no-such-planner")
	if err == nil {
		t.Fatal("Get of unknown planner succeeded")
	}
	// The error must be self-diagnosing: name the culprit and the choices.
	for _, want := range []string{"no-such-planner", "graphpipe", "pipedream", "piper"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	names := planner.Names()
	if len(names) < 3 {
		t.Fatalf("Names() = %v, want at least the three built-ins", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %v", names)
		}
	}
}

// TestMicroBatchCandidates pins the one candidate rule every planner
// searches.
func TestMicroBatchCandidates(t *testing.T) {
	for _, c := range []struct {
		mini, forced, limit int
		want                []int
	}{
		{mini: 48, want: []int{16, 8, 4, 2, 1}},
		{mini: 64, limit: 8, want: []int{8, 4, 2, 1}},
		{mini: 1 << 14, want: []int{4096, 2048, 1024, 512, 256, 128, 64, 32, 16, 8, 4, 2, 1}},
		{mini: 48, forced: 3, want: []int{3}},
		{mini: 48, forced: 5},
	} {
		got := planner.MicroBatchCandidates(c.mini, c.forced, c.limit)
		if !slices.Equal(got, c.want) {
			t.Errorf("MicroBatchCandidates(%d, %d, %d) = %v, want %v", c.mini, c.forced, c.limit, got, c.want)
		}
	}
	// The doubling stops at 2^62, the largest power of two an int holds,
	// instead of overflowing.
	if got := planner.MicroBatchCandidates(1<<62, 0, 1<<62); len(got) != 63 || got[0] != 1<<62 || got[62] != 1 {
		t.Errorf("MicroBatchCandidates(2^62, 0, 2^62) = %v, want the 63 powers of two from 2^62 down to 1", got)
	}
}

// TestRegisterDuplicatePanics pins the fail-loudly contract.
func TestRegisterDuplicatePanics(t *testing.T) {
	p, err := planner.Get("graphpipe")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	planner.Register(p)
}

// TestParallelPlanCalls exercises every registered planner from concurrent
// goroutines on distinct graphs and topologies — the access pattern of the
// experiment grid — so `go test -race` proves Plan is reentrant.
func TestParallelPlanCalls(t *testing.T) {
	cfg := models.DefaultMMTConfig()
	cfg.Branches = 2
	cfg.LayersPerBranch = 3
	var wg sync.WaitGroup
	for _, name := range planner.Names() {
		for _, devices := range []int{2, 4} {
			for rep := 0; rep < 2; rep++ {
				name, devices := name, devices
				wg.Add(1)
				go func() {
					defer wg.Done()
					p, err := planner.Get(name)
					if err != nil {
						t.Error(err)
						return
					}
					g := models.MMT(cfg)
					topo := cluster.NewSummitTopology(devices)
					st, stats, err := p.Plan(g, topo, 16, planner.Options{})
					if err != nil {
						t.Errorf("%s on %d devices: %v", name, devices, err)
						return
					}
					if err := st.Validate(g, topo); err != nil {
						t.Errorf("%s strategy invalid: %v", name, err)
					}
					if stats.BottleneckTPS <= 0 {
						t.Errorf("%s reported BottleneckTPS %g", name, stats.BottleneckTPS)
					}
				}()
			}
		}
	}
	wg.Wait()
}

// TestParallelPlannerDeterministic asserts the parallel search is a pure
// speedup: the same strategy (TPS, stage structure, schedule) comes back
// whether the worker pool has one worker or many.
func TestParallelPlannerDeterministic(t *testing.T) {
	p, err := planner.Get("graphpipe")
	if err != nil {
		t.Fatal(err)
	}
	cfg := models.DefaultMMTConfig() // four branches: plenty of splits to race on
	for _, devices := range []int{4, 8} {
		g := models.MMT(cfg)
		topo := cluster.NewSummitTopology(devices)
		miniBatch := 16 * devices

		seqSt, seqStats, err := p.Plan(g, topo, miniBatch, planner.Options{Workers: 1})
		if err != nil {
			t.Fatalf("sequential plan, %d devices: %v", devices, err)
		}
		parSt, parStats, err := p.Plan(g, topo, miniBatch, planner.Options{Workers: 8})
		if err != nil {
			t.Fatalf("parallel plan, %d devices: %v", devices, err)
		}
		if seqStats.BottleneckTPS != parStats.BottleneckTPS {
			t.Errorf("%d devices: bottleneck TPS diverged: sequential %g, parallel %g",
				devices, seqStats.BottleneckTPS, parStats.BottleneckTPS)
		}
		if seq, par := seqSt.String(), parSt.String(); seq != par {
			t.Errorf("%d devices: strategies diverged:\nsequential:\n%s\nparallel:\n%s",
				devices, seq, par)
		}
	}
}
