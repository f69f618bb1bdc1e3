// DLRM: plan the paper's deep learning recommendation model (7 dense + 7
// sparse feature branches, §A.2) and inspect where the planner places the
// memory-heavy embedding tables, then verify the plan on the concurrent
// message-passing runtime in addition to the simulator.
//
// Run with:
//
//	go run ./examples/dlrm
package main

import (
	"fmt"
	"log"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/runtime"
	"graphpipe/internal/sim"

	_ "graphpipe/internal/planner/all" // register the planners
)

func main() {
	g := models.DLRM(models.DefaultDLRMConfig())
	const devices, miniBatch = 16, 1024

	topo := cluster.NewSummitTopology(devices)
	model := costmodel.NewDefault(topo)

	graphpipe, err := planner.Get("graphpipe")
	if err != nil {
		log.Fatal(err)
	}
	st, _, err := graphpipe.Plan(g, topo, miniBatch, planner.Options{CostModel: model})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DLRM on %d devices, mini-batch %d: %d stages, pipeline depth %d\n\n",
		devices, miniBatch, st.NumStages(), st.Depth())

	// Where did the embedding tables land? Each is 256 MB of parameters;
	// the planner must spread them to respect device memory.
	for i := range st.Stages {
		stage := &st.Stages[i]
		embeds, dense := 0, 0
		for _, id := range stage.Ops.IDs() {
			switch g.Op(id).Kind {
			case graph.OpEmbedding:
				embeds++
			case graph.OpLinear:
				dense++
			}
		}
		fmt.Printf("  S%-2d devices=%v  µB=%-5d embeddings=%d dense-layers=%d\n",
			i, stage.Devices, stage.Config.MicroBatch, embeds, dense)
	}

	simRes, err := sim.New(g, model).Run(st)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulator:  %.0f samples/s (iteration %.2f ms)\n",
		simRes.Throughput, simRes.IterationTime*1e3)

	// Cross-check on the concurrent runtime: goroutine stages exchanging
	// real activation/gradient messages must reproduce the same virtual
	// iteration time.
	rtRes, err := runtime.New(g, model, runtime.Options{}).Run(st)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("runtime:    %.0f samples/s (%d messages exchanged)\n",
		rtRes.Throughput, rtRes.MessagesSent)

	var peak float64
	for _, ss := range simRes.Stages {
		if ss.PeakMemory > peak {
			peak = ss.PeakMemory
		}
	}
	fmt.Printf("peak device memory: %.2f GB of %.0f GB budget\n",
		peak/1e9, topo.MinMemory()/1e9)
}
