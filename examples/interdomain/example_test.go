// Interdomain: reproduce the paper's Example 1 interactively — node C
// lies about its transit cost, which pays off under a naive pricing
// scheme but not under the FPSS VCG mechanism.
package interdomain

import (
	"fmt"
	"log"

	"repro/internal/fpss"
	"repro/internal/graph"
)

func Example() {
	g := graph.Figure1()
	c, _ := g.ByName("C")
	x, _ := g.ByName("X")
	z, _ := g.ByName("Z")

	fmt.Println("Example 1 (paper §4.1): C's true cost is 1.")
	fmt.Println("declared | u(C) naive | u(C) VCG | X→Z goes via C")
	for declared := graph.Cost(1); declared <= 8; declared++ {
		d := declared
		res, err := fpss.Run(fpss.Config{
			Graph: g,
			Strategies: map[graph.NodeID]*fpss.Strategy{
				c: {DeclareCost: func(graph.Cost) graph.Cost { return d }},
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		routing := make(map[graph.NodeID]fpss.RoutingTable)
		pricing := make(map[graph.NodeID]fpss.PricingTable)
		declaredCosts := make(fpss.CostTable)
		trueCosts := make(fpss.CostTable)
		for id, node := range res.Nodes {
			routing[id] = node.Routing()
			pricing[id] = node.Pricing()
			declaredCosts[id] = node.DeclaredCost()
			trueCosts[id] = g.Cost(id)
		}
		var utils [2]int64
		for i, scheme := range []fpss.PricingScheme{fpss.SchemeDeclaredCost, fpss.SchemeVCG} {
			exec, err := fpss.Execute(routing, pricing, fpss.ExecConfig{
				TrueCosts:          trueCosts,
				DeclaredCosts:      declaredCosts,
				Traffic:            fpss.AllToAllTraffic(g.N(), 1),
				DeliveryValue:      10_000,
				UndeliveredPenalty: 10_000,
				Scheme:             scheme,
			})
			if err != nil {
				log.Fatal(err)
			}
			utils[i] = exec.Utilities[c]
		}
		fmt.Printf("%8d | %10d | %8d | %v\n",
			declared, utils[0], utils[1], routing[x][z].Path.Contains(c))
	}
	fmt.Println("\nUnder naive pricing the lie pays; under VCG truth is dominant —")
	fmt.Println("the strategyproofness Proposition 2 builds on.")

	// Output:
	// Example 1 (paper §4.1): C's true cost is 1.
	// declared | u(C) naive | u(C) VCG | X→Z goes via C
	//        1 |      49991 |    49628 | true
	//        2 |      49995 |    49628 | true
	//        3 |      49999 |    49628 | true
	//        4 |      49997 |    49622 | false
	//        5 |      49999 |    49622 | false
	//        6 |      50001 |    49622 | false
	//        7 |      50003 |    49622 | false
	//        8 |      50005 |    49622 | false
	//
	// Under naive pricing the lie pays; under VCG truth is dominant —
	// the strategyproofness Proposition 2 builds on.
}
