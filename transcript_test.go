package repro_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/apsp"
	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/unicast"
)

// transcriptN is the size of the transcript differential. Every family
// rounds it to an n above ⌈log₂ n⌉², so k = n skips the small-k fast
// paths and clusters.
const transcriptN = 100

// theorem is one measured algorithm of the differential: it runs on a
// network and may draw from rng.
type theorem struct {
	name string
	run  func(net *hybrid.Net, rng *rand.Rand) (any, error)
}

// transcriptTheorems lists Theorems 1–3, 5 and 6 at k = n (Theorem 4 is
// a lower bound and runs on no network). Theorem 1 first aggregates
// over the full overlay tree and Theorem 2 clusters directly, so the
// two reach the nested NQ_k and tree phases from different histories.
func transcriptTheorems(n int) []theorem {
	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	return []theorem{
		{"thm1", func(net *hybrid.Net, _ *rand.Rand) (any, error) {
			tokens := make([]int, n)
			tokens[0] = n
			return broadcast.Disseminate(net, tokens)
		}},
		{"thm2", func(net *hybrid.Net, _ *rand.Rand) (any, error) {
			_, res, err := broadcast.Aggregate(net, n, nil, nil)
			return res, err
		}},
		{"thm3", func(net *hybrid.Net, rng *rand.Rand) (any, error) {
			return unicast.Route(net, unicast.Spec{
				Case:    unicast.ArbitrarySourcesRandomTargets,
				Sources: all,
				Targets: unicast.SampleNodes(n, 4/float64(n), rng),
				K:       n,
				L:       4,
			}, rng)
		}},
		{"thm5", func(net *hybrid.Net, rng *rand.Rand) (any, error) {
			_, res, err := apsp.KLSP(net, all[:n/2], unicast.SampleNodes(n, 4/float64(n), rng), 0.5,
				apsp.KLSPArbitrarySources, rng, false)
			return res, err
		}},
		{"thm6", func(net *hybrid.Net, _ *rand.Rand) (any, error) {
			_, res, err := apsp.Unweighted(net, 0.5, false)
			return res, err
		}},
	}
}

// outcome is everything a theorem run leaves observable.
type outcome struct {
	Result any
	Audit  []hybrid.AuditEntry
	Stats  hybrid.Stats
	Rounds int
	// Next is the caller's next rng draw: a replay must draw exactly
	// what the run drew.
	Next int64
}

func playTheorem(t *testing.T, g *graph.Graph, cfg hybrid.Config, tab *hybrid.Transcripts, th theorem) outcome {
	t.Helper()
	net, err := hybrid.NewWith(g, cfg, tab)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	res, err := th.run(net, rng)
	if err != nil {
		t.Fatalf("%s: %v", th.name, err)
	}
	return outcome{res, net.Audit(), net.Stats(), net.Rounds(), rng.Int63()}
}

// TestTranscriptReplayMatchesRun is the differential of hybrid.Once and
// hybrid.Each: on every family, under HYBRID and HYBRID₀, each theorem
// gives the same result, audit, stats, rounds and next rng draw on a
// fresh network as on one fed the transcripts its siblings recorded in
// a shared table. The table first holds the transcripts of a sibling
// whose global capacity γ is one word, under which every tree level of a
// phase costs more rounds: they must not serve the others.
func TestTranscriptReplayMatchesRun(t *testing.T) {
	for _, fam := range graph.Families() {
		g, err := graph.Build(fam, transcriptN, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		ths := transcriptTheorems(g.N())
		for _, variant := range []hybrid.Variant{hybrid.VariantHybrid, hybrid.VariantHybrid0} {
			cfg := hybrid.Config{Variant: variant, Seed: 5}
			tab := new(hybrid.Transcripts)
			narrow := cfg
			narrow.GlobalWordCap = 1
			for _, th := range ths {
				playTheorem(t, g, narrow, tab, th)
			}
			for _, th := range ths {
				playTheorem(t, g, cfg, tab, th)
			}
			_, before := tab.Runs("cluster")
			// Under HYBRID the identifiers are the indices, so another
			// seed replays the same transcripts.
			fed := cfg
			if variant == hybrid.VariantHybrid {
				fed.Seed = 9
			}
			for _, th := range ths {
				want := playTheorem(t, g, fed, nil, th)
				if got := playTheorem(t, g, fed, tab, th); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s %s: replayed run differs from a fresh one:\n got %+v\nwant %+v", fam, variant, th.name, got, want)
				}
			}
			if _, after := tab.Runs("cluster"); after <= before {
				t.Fatalf("%s %s: no clustering was replayed (replays %d before the fed runs, %d after)", fam, variant, before, after)
			}
		}
	}
}

// TestTranscriptKeys: under HYBRID₀ the seed draws the identifiers, so
// a replay misses unless the seeds are equal; under knowledge tracking
// every phase runs, and the result is a fresh run's.
func TestTranscriptKeys(t *testing.T) {
	g, err := graph.Build(graph.FamilyGrid2D, transcriptN, nil)
	if err != nil {
		t.Fatal(err)
	}
	thm1 := transcriptTheorems(transcriptN)[0]
	tab := new(hybrid.Transcripts)
	for i, c := range []struct {
		seed               int64
		recorded, replayed int
	}{{5, 1, 0}, {6, 2, 0}, {5, 2, 1}} {
		cfg := hybrid.Config{Variant: hybrid.VariantHybrid0, Seed: c.seed}
		want := playTheorem(t, g, cfg, nil, thm1)
		if got := playTheorem(t, g, cfg, tab, thm1); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (seed %d): result differs from a fresh run", i, c.seed)
		}
		if rec, rep := tab.Runs("cluster"); rec != c.recorded || rep != c.replayed {
			t.Fatalf("run %d (seed %d): clustering recorded %d and replayed %d times, want %d and %d",
				i, c.seed, rec, rep, c.recorded, c.replayed)
		}
	}

	tracked := hybrid.Config{Variant: hybrid.VariantHybrid0, TrackKnowledge: true, Seed: 5}
	tab = new(hybrid.Transcripts)
	want := playTheorem(t, g, tracked, nil, thm1)
	for i := 0; i < 2; i++ {
		if got := playTheorem(t, g, tracked, tab, thm1); !reflect.DeepEqual(got, want) {
			t.Fatalf("tracked run %d differs from a fresh run", i)
		}
	}
	for _, name := range []string{"overlay/full-tree", "nq", "cluster", "broadcast/cluster-tree"} {
		if rec, rep := tab.Runs(name); rec != 0 || rep != 0 {
			t.Fatalf("tracked runs recorded %d and replayed %d %s transcripts, want none", rec, rep, name)
		}
	}
}
