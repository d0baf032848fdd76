// Manipulation: inject the paper's §4.3 manipulations against both
// protocol variants and watch what happens — plain FPSS silently
// accepts corrupted state (and payment fraud profits), while the
// extended specification's checkers and bank catch every attempt.
package manipulation

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rational"
)

func Example() {
	g := graph.Figure1()
	params := rational.DefaultParams(g)

	fmt.Println("deviation search on Figure 1 (every node × every catalogued deviation)")

	plain, err := core.CheckFaithfulnessCfg(&rational.PlainSystem{Graph: g, Params: params}, core.CheckConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplain FPSS: %d plays, %d profitable deviations found\n", plain.Checked, len(plain.Violations))
	for _, v := range plain.Violations {
		fmt.Printf("  %s\n", v)
	}
	fmt.Printf("verdict: IC=%v CC=%v AC=%v — not faithful\n", plain.IC(), plain.CC(), plain.AC())

	faithfulRep, err := core.CheckFaithfulnessCfg(&rational.FaithfulSystem{Graph: g, Params: params}, core.CheckConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nextended FPSS: %d plays, %d profitable deviations found\n",
		faithfulRep.Checked, len(faithfulRep.Violations))
	fmt.Printf("verdict: IC=%v CC=%v AC=%v — faithful (Theorem 1)\n",
		faithfulRep.IC(), faithfulRep.CC(), faithfulRep.AC())

	// Output:
	// deviation search on Figure 1 (every node × every catalogued deviation)
	//
	// plain FPSS: 96 plays, 25 profitable deviations found
	//   node 0 gains 144 via "deflate-advertised-prices" (classes [message-passing computation])
	//   node 0 gains 487 via "joint-lie-miscompute-underreport" (classes [information-revelation computation message-passing])
	//   node 0 gains 200 via "miscompute-routing-repel" (classes [computation])
	//   node 0 gains 487 via "underreport-payments-all" (classes [computation])
	//   node 0 gains 244 via "underreport-payments-half" (classes [computation])
	//   node 1 gains 398 via "joint-lie-miscompute-underreport" (classes [information-revelation computation message-passing])
	//   node 1 gains 160 via "miscompute-routing-repel" (classes [computation])
	//   node 1 gains 398 via "underreport-payments-all" (classes [computation])
	//   node 1 gains 200 via "underreport-payments-half" (classes [computation])
	//   node 2 gains 95 via "deflate-advertised-prices" (classes [message-passing computation])
	//   node 2 gains 134 via "miscompute-routing-repel" (classes [computation])
	//   node 2 gains 398 via "underreport-payments-all" (classes [computation])
	//   node 2 gains 200 via "underreport-payments-half" (classes [computation])
	//   node 3 gains 97 via "deflate-advertised-prices" (classes [message-passing computation])
	//   node 3 gains 112 via "underreport-payments-all" (classes [computation])
	//   node 3 gains 57 via "underreport-payments-half" (classes [computation])
	//   node 4 gains 166 via "deflate-advertised-prices" (classes [message-passing computation])
	//   node 4 gains 220 via "joint-lie-miscompute-underreport" (classes [information-revelation computation message-passing])
	//   node 4 gains 2 via "tamper-adverts" (classes [message-passing computation])
	//   node 4 gains 218 via "underreport-payments-all" (classes [computation])
	//   node 4 gains 109 via "underreport-payments-half" (classes [computation])
	//   node 5 gains 19 via "joint-lie-miscompute-underreport" (classes [information-revelation computation message-passing])
	//   node 5 gains 120 via "miscompute-routing-repel" (classes [computation])
	//   node 5 gains 19 via "underreport-payments-all" (classes [computation])
	//   node 5 gains 10 via "underreport-payments-half" (classes [computation])
	// verdict: IC=false CC=false AC=false — not faithful
	//
	// extended FPSS: 120 plays, 0 profitable deviations found
	// verdict: IC=true CC=true AC=true — faithful (Theorem 1)
}
