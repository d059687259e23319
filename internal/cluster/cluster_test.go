package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/nq"
	"repro/internal/rulingset"
)

func build(t *testing.T, g *graph.Graph, k int) (*hybrid.Net, *Clustering) {
	t.Helper()
	net, err := hybrid.New(g, hybrid.Config{Variant: hybrid.VariantHybrid0, TrackKnowledge: g.N() <= 512})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Build(net, k)
	if err != nil {
		t.Fatal(err)
	}
	return net, cl
}

func checkPartition(t *testing.T, g *graph.Graph, cl *Clustering) {
	t.Helper()
	seen := make([]bool, g.N())
	for ci, c := range cl.Clusters {
		if len(c.Members) == 0 {
			t.Fatalf("cluster %d empty", ci)
		}
		foundLeader := false
		for _, v := range c.Members {
			if seen[v] {
				t.Fatalf("node %d in two clusters", v)
			}
			seen[v] = true
			if cl.Of[v] != ci {
				t.Fatalf("Of[%d]=%d, want %d", v, cl.Of[v], ci)
			}
			if v == c.Leader {
				foundLeader = true
			}
		}
		if !foundLeader {
			t.Fatalf("cluster %d: leader %d not a member", ci, c.Leader)
		}
	}
	for v, s := range seen {
		if !s {
			t.Fatalf("node %d unassigned", v)
		}
	}
}

// Lemma 3.5 invariants on several (graph, k) combinations.
func TestLemma35Invariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"path-n", graph.Path(120), 120},
		{"path-smallk", graph.Path(120), 16},
		{"grid-n", graph.Grid(12, 2), 144},
		{"grid-4n", graph.Grid(12, 2), 4 * 144},
		{"cycle", graph.Cycle(90), 90},
		{"random", graph.RandomConnected(100, 0.05, rng), 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, cl := build(t, tc.g, tc.k)
			checkPartition(t, tc.g, cl)
			q := cl.NQ
			wantQ, err := nq.Of(tc.g, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			if q != wantQ {
				t.Fatalf("clustering NQ=%d, want %d", q, wantQ)
			}
			plog := net.PLog()
			// Weak diameter bound 4·NQ_k·⌈log n⌉ (Lemma 3.5).
			wdBound := int64(4 * q * plog)
			for ci, c := range cl.Clusters {
				if wd := WeakDiameter(tc.g, c); wd > wdBound {
					t.Fatalf("cluster %d weak diameter %d > %d", ci, wd, wdBound)
				}
			}
			// Size bounds k/NQ_k ≤ |C| ≤ 2k/NQ_k (non-degenerate case).
			if !cl.Degenerate {
				lo := tc.k / q
				hi := 2 * tc.k / q
				for ci, c := range cl.Clusters {
					if len(c.Members) < lo || len(c.Members) > hi {
						t.Fatalf("cluster %d size %d outside [%d,%d]", ci, len(c.Members), lo, hi)
					}
				}
			}
			// Round budget eÕ(NQ_k).
			budget := 30 * (q + 1) * plog * plog * plog
			if net.Rounds() > budget {
				t.Fatalf("clustering cost %d rounds > eÕ(NQ_k) budget %d", net.Rounds(), budget)
			}
		})
	}
}

func TestMembersKnowEachOther(t *testing.T) {
	net, cl := build(t, graph.Grid(8, 2), 64)
	for _, c := range cl.Clusters {
		for _, v := range c.Members {
			for _, u := range c.Members {
				if !net.Knows(v, u) {
					t.Fatalf("member %d does not know member %d", v, u)
				}
			}
		}
	}
}

func TestMembersBFSOrderFromLeader(t *testing.T) {
	g := graph.Path(60)
	_, cl := build(t, g, 60)
	for ci, c := range cl.Clusters {
		// First member is the BFS start (pre-split leader may differ after
		// splitting, but each part's members must be contiguous in hop
		// distance terms: non-decreasing distance from the first member is
		// not guaranteed after splits, so just check the leader belongs).
		if cl.Of[c.Leader] != ci {
			t.Fatalf("leader %d not in its own cluster", c.Leader)
		}
	}
}

func TestDegenerateSmallDiameter(t *testing.T) {
	// Star: D=2; with k much larger than n·D the NQ value caps at D.
	g := graph.Star(30)
	net, cl := build(t, g, 30*30)
	checkPartition(t, g, cl)
	_ = net
	if !cl.Degenerate {
		t.Log("expected degenerate clustering on star with huge k (NQ=D)")
	}
}

func TestBadK(t *testing.T) {
	net, err := hybrid.New(graph.Path(4), hybrid.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(net, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestLeadersHelper(t *testing.T) {
	_, cl := build(t, graph.Cycle(40), 40)
	leaders := cl.Leaders()
	if len(leaders) != len(cl.Clusters) {
		t.Fatal("Leaders length mismatch")
	}
	for i, l := range leaders {
		if cl.Clusters[i].Leader != l {
			t.Fatal("Leaders mismatch")
		}
	}
}

// assignBellmanFord is the closest-ruler assignment as the Lemma 3.5
// label propagation states it: Bellman–Ford over hop layers with
// lexicographic (hop distance, leader ID) keys for radius rounds. It is
// the oracle for assignClosestRuler's one BFS.
func assignBellmanFord(net *hybrid.Net, rulers []int, radius int) []int {
	g := net.Graph()
	n := g.N()
	dist := make([]int64, n)
	leadID := make([]int64, n)
	leadIdx := make([]int, n)
	for v := 0; v < n; v++ {
		dist[v] = graph.Inf
		leadID[v] = 1<<62 - 1
		leadIdx[v] = -1
	}
	for i, r := range rulers {
		dist[r] = 0
		leadID[r] = net.ID(r)
		leadIdx[r] = i
	}
	for round := 0; round < radius; round++ {
		changed := false
		for v := 0; v < n; v++ {
			if leadIdx[v] < 0 {
				continue
			}
			nd := dist[v] + 1
			row, _ := g.Row(v)
			for _, u := range row {
				if nd < dist[u] || (nd == dist[u] && leadID[v] < leadID[u]) {
					dist[u] = nd
					leadID[u] = leadID[v]
					leadIdx[u] = leadIdx[v]
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return leadIdx
}

// TestAssignClosestRulerMatchesBellmanFord checks the BFS assignment
// against the label-propagation oracle on every family, with HYBRID₀
// identifiers (so identifier order differs from index order), on the
// ruling sets Build computes, and checks that every node's ruler lies
// within α−1 hops.
func TestAssignClosestRulerMatchesBellmanFord(t *testing.T) {
	for _, f := range graph.Families() {
		for _, n := range []int{64, 576} {
			g, err := graph.Build(f, n, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 2, 3} {
				net, err := hybrid.New(g, hybrid.Config{Variant: hybrid.VariantHybrid0, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{g.N() / 4, g.N(), 4 * g.N()} {
					t.Run(fmt.Sprintf("%s/n=%d/seed=%d/k=%d", f, n, seed, k), func(t *testing.T) {
						q, err := nq.Of(g, k)
						if err != nil {
							t.Fatal(err)
						}
						alpha := 2*q + 1
						rulers, err := rulingset.Compute(g, net.SortedIDs(), alpha)
						if err != nil {
							t.Fatal(err)
						}
						got := assignClosestRuler(net, rulers)
						if want := assignBellmanFord(net, rulers, alpha-1); !slices.Equal(got, want) {
							t.Fatalf("BFS assignment differs from the Bellman–Ford oracle")
						}
						hops := make(map[int][]int64)
						for v, ri := range got {
							d, ok := hops[ri]
							if !ok {
								d = g.BFS(rulers[ri])
								hops[ri] = d
							}
							if d[v] > int64(alpha-1) {
								t.Fatalf("node %d is %d hops from its ruler, beyond α−1 = %d", v, d[v], alpha-1)
							}
						}
					})
				}
			}
		}
	}
}

// BenchmarkClusterBuild times one Lemma 3.5 clustering on a fresh
// network per op over a graph whose diameter and ball profiles are
// already attached, as in a report cell: NQ_k by Lemma 3.3, the ruling
// set, closest-ruler assignment, membership and splitting.
func BenchmarkClusterBuild(b *testing.B) {
	for _, f := range []graph.Family{graph.FamilyPath, graph.FamilyGrid2D, graph.FamilyExpander} {
		g, err := graph.Build(f, 576, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{576, 2304} {
			b.Run(fmt.Sprintf("%s/n=576/k=%d", f, k), func(b *testing.B) {
				run := func() {
					net, err := hybrid.New(g, hybrid.Config{})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := Build(net, k); err != nil {
						b.Fatal(err)
					}
				}
				run() // attach the graph's diameter and ball profiles
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
			})
		}
	}
}
