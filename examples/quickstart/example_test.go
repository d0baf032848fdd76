// Quickstart: build the paper's Figure-1 network, run the faithful
// interdomain-routing protocol end to end, and print the green-lit
// routing/pricing tables and realized utilities.
package quickstart

import (
	"fmt"
	"log"
	"maps"
	"slices"

	"repro/internal/faithful"
	"repro/internal/fpss"
	"repro/internal/graph"
)

func Example() {
	// The example network of the paper's Figure 1: six autonomous
	// systems with per-packet transit costs.
	g := graph.Figure1()

	// Run the extended FPSS specification: cost flood, routing and
	// pricing construction mirrored by checker nodes, bank checkpoint,
	// then the execution phase with all-to-all traffic.
	res, err := faithful.Run(faithful.Config{
		Graph:              g,
		Traffic:            fpss.AllToAllTraffic(g.N(), 1),
		DeliveryValue:      10_000,
		UndeliveredPenalty: 10_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("green-lit: %v (construction used %d messages)\n\n",
		res.Completed, res.Construction.Sent)

	// Every node converged to the same answers the centralized VCG
	// mechanism would compute. Show X's view.
	x, _ := g.ByName("X")
	z, _ := g.ByName("Z")
	route := res.Nodes[x].Routing()[z]
	fmt.Printf("X's lowest-cost path to Z: cost=%d via", route.Cost)
	for _, hop := range route.Path {
		fmt.Printf(" %s", g.Name(hop))
	}
	fmt.Println()
	prices := res.Nodes[x].Pricing()[z]
	for _, k := range slices.Sorted(maps.Keys(prices)) {
		fmt.Printf("X pays %s a VCG premium of %d per packet\n", g.Name(k), prices[k].Price)
	}

	fmt.Println("\nrealized utilities (payments - true transit costs + delivery value):")
	for i := 0; i < g.N(); i++ {
		id := graph.NodeID(i)
		fmt.Printf("  %s: %d\n", g.Name(id), res.Utilities[id])
	}

	// Output:
	// green-lit: true (construction used 306 messages)
	//
	// X's lowest-cost path to Z: cost=2 via X D C Z
	// X pays C a VCG premium of 4 per packet
	// X pays D a VCG premium of 4 per packet
	//
	// realized utilities (payments - true transit costs + delivery value):
	//   A: 49513
	//   B: 49602
	//   C: 49628
	//   D: 50880
	//   X: 50344
	//   Z: 49981
}
