package hybridnet_test

import (
	"fmt"

	"repro/hybridnet"
)

// ExampleNetwork_Disseminate broadcasts one message per node of a 2-d
// grid with the universally optimal Theorem 1 algorithm and reports the
// governing parameter NQ_k. The run is fully deterministic.
func ExampleNetwork_Disseminate() {
	g := hybridnet.Grid2D(16) // 256-node grid
	net, err := hybridnet.NewNetwork(g, hybridnet.Config{Variant: hybridnet.HYBRID0})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	tokens := make([]int, net.N())
	for v := range tokens {
		tokens[v] = 1
	}
	res, err := net.Disseminate(tokens)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("k=%d tokens reached all %d nodes (NQ_k=%d, %d clusters)\n",
		res.K, net.N(), res.NQ, res.Clusters)
	// Output:
	// k=256 tokens reached all 256 nodes (NQ_k=8, 7 clusters)
}

// ExampleNQ evaluates the neighborhood quality on the two extreme
// families of Theorems 15/16: the path (NQ_k = Θ(√k)) and the 2-d grid
// (NQ_k = Θ(k^{1/3})).
func ExampleNQ() {
	path := hybridnet.Path(1024)
	grid := hybridnet.Grid2D(32)
	qPath, _ := hybridnet.NQ(path, 1024)
	qGrid, _ := hybridnet.NQ(grid, 1024)
	fmt.Printf("NQ_1024(path) = %d, NQ_1024(grid) = %d\n", qPath, qGrid)
	// Output:
	// NQ_1024(path) = 32, NQ_1024(grid) = 12
}

// ExampleNewGraph builds a 4-cycle through the graph builder: AddEdge
// validates each edge, and Build lays them out as an immutable graph.
func ExampleNewGraph() {
	b := hybridnet.NewGraph(4)
	for v := 0; v < 4; v++ {
		if err := b.AddEdge(v, (v+1)%4, 1); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	g := b.Build()
	fmt.Printf("n=%d m=%d D=%d\n", g.N(), g.M(), g.Diameter())
	// Output:
	// n=4 m=4 D=2
}
