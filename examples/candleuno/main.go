// Candleuno: sweep the branch count of the CANDLE-Uno precision-medicine
// model (a miniature of Figure 7 left) — the more parallel branches a DNN
// has, the more pipeline depth graph pipeline parallelism removes.
//
// Run with:
//
//	go run ./examples/candleuno
package main

import (
	"fmt"
	"log"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/sim"

	_ "graphpipe/internal/planner/all" // register the planners
)

func main() {
	const devices, miniBatch = 8, 8192
	topo := cluster.NewSummitTopology(devices)
	model := costmodel.NewDefault(topo)
	opts := planner.Options{CostModel: model}
	graphpipe, err := planner.Get("graphpipe")
	if err != nil {
		log.Fatal(err)
	}
	pipedream, err := planner.Get("pipedream")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-9s %-14s %-14s %-9s %-11s %s\n",
		"branches", "graphpipe", "pipedream", "speedup", "gp depth", "pd depth")
	for _, branches := range []int{2, 4, 8, 16} {
		cfg := models.DefaultCANDLEUnoConfig()
		cfg.Branches = branches
		g := models.CANDLEUno(cfg)
		sm := sim.New(g, model)

		gp, _, err := graphpipe.Plan(g, topo, miniBatch, opts)
		if err != nil {
			log.Fatal(err)
		}
		gpRes, err := sm.Run(gp)
		if err != nil {
			log.Fatal(err)
		}

		pd, _, err := pipedream.Plan(g, topo, miniBatch, opts)
		if err != nil {
			log.Fatal(err)
		}
		pdRes, err := sm.Run(pd)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%-9d %-14.0f %-14.0f %-9.2f %-11d %d\n",
			branches, gpRes.Throughput, pdRes.Throughput,
			gpRes.Throughput/pdRes.Throughput,
			gp.Depth(), pd.Depth())
	}
	fmt.Println("\nGraphPipe's pipeline depth stays flat as branches are added, while")
	fmt.Println("the sequential baseline's depth (and its warm-up/cool-down bubble)")
	fmt.Println("grows — the mechanism behind Figure 7 (left).")
}
