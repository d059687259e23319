// VPN overlay routing: organizations augment campus networks with
// internet tunnels (the paper's VPN motivation, Section 1). The campus
// is a long haul of sites (a lollipop: a dense headquarters clique plus
// a chain of branch offices); the VPN is the global mode. The example
// runs the (k,ℓ)-SP pipeline (Theorem 5) so that ℓ monitoring stations
// learn their latency to k servers, then approximates all cut sizes
// (Theorem 9) to find the bottleneck capacity between the two halves of
// the chain.
//
// Run:  go run ./examples/vpnoverlay
package main

import (
	"fmt"
	"math/rand"
	"os"

	"repro/hybridnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vpnoverlay:", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(11))
	g := hybridnet.RandomWeights(hybridnet.Lollipop(16, 240), 20, rng)
	n := g.N()
	net, err := hybridnet.NewNetwork(g, hybridnet.Config{})
	if err != nil {
		return err
	}
	fmt.Printf("campus: %d sites (16-clique HQ + 240-site chain), D=%d, γ=%d\n\n",
		n, g.Diameter(), net.Cap())

	// Theorem 5: k servers (the HQ clique) to ℓ random monitors.
	k := 16
	servers := make([]int, k)
	for i := range servers {
		servers[i] = i
	}
	monitors := hybridnet.SampleNodes(n, 3.0/float64(n), rng)
	if len(monitors) == 0 {
		monitors = []int{n - 1}
	}
	dist, res, err := net.KLSP(servers, monitors, 0.25, hybridnet.KLSPArbitrarySources, rng, true)
	if err != nil {
		return err
	}
	fmt.Printf("Theorem 5 (k=%d servers, ℓ=%d monitors): %d rounds, stretch ≤ %.2f\n",
		k, len(monitors), res.Rounds, res.Stretch)
	for ti, m := range monitors {
		exact := g.Dijkstra(m)
		var worst float64 = 1
		for si, s := range servers {
			if exact[s] > 0 {
				if r := float64(dist[ti][si]) / float64(exact[s]); r > worst {
					worst = r
				}
			}
		}
		fmt.Printf("  monitor %4d: latency to nearest server %d, measured stretch ≤ %.3f\n",
			m, dist[ti][0], worst)
	}

	// Theorem 9: every site learns a (1+ε) sketch of all cut sizes.
	net.ResetRounds()
	sp, cres, err := net.ApproxCuts(0.5, rng)
	if err != nil {
		return err
	}
	side := make([]bool, n)
	for v := 0; v < n/2; v++ {
		side[v] = true
	}
	fmt.Printf("\nTheorem 9 cut sketch: %d rounds, %d sparsifier edges\n", cres.Rounds, cres.SparsifierEdges)
	fmt.Printf("  estimated capacity across the mid-chain cut: %.0f\n", sp.CutValue(side))
	return nil
}
