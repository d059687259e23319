package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/hybridnet"
	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/overlay"
	"repro/internal/sssp"
)

// auditGolden pins the sha256 of the per-phase round audit
// (Net.FormatAudit) of every hybridsim algorithm on the 64-node grid at
// seed 1, and of the runs that reach the charged phases no hybridsim
// algorithm reaches. A change that must keep every phase label and
// round count leaves these hashes alone.
var auditGolden = map[string]string{
	"MinorAggregation":   "91202672c62bbf280708b3171789832c2cfe3b1c451cf531510b3e3d1ee19efc",
	"NaiveTreeBroadcast": "299c18a4cca129a3541993d80f38342b18d5268837c2736933fb0b6735dbfd15",
	"OracleEuler":        "36a56657a9569f7b549a6cb5881ef82f0c16e1a3a8b144b19f5a60e96468b3bc",
	"aggregate":          "f4bac9c8030004d7d7dd86a6ea8eb983bae507134f89648a5e24948fffdfb82f",
	"apsp-skeleton":      "7b60c2b92a62674f94480fccc0d41c1ef16ace614bdb1add422d6de86b5dad38",
	"apsp-spanner":       "6206eed00e997e46907cd1a5ccbe2037cf13382854ec10f9a9668c658382885a",
	"apsp-sparse":        "6ebbd7fd28a5bf86d117152856c91cdd817cab1902ceb1ea2c90481152341d05",
	"apsp-unweighted":    "644d0ec853accd90e21c751422daa26ecf2e837556b996a693f4b7f2c1fc5b4a",
	"bcc":                "8b7cb231ef1b28aaf781efa57e48368f83e36917562e6a592717d6a3d15893f6",
	"cuts":               "f65413a2d53a0a0bcb4c71044eb6e00b80371ae971aa361500e81764545d7dc9",
	"disseminate":        "7147e7d3cc205aa6362eea082ab32a514525df7a79015462bcde3ad7eaff42e9",
	"klsp":               "905be4f61e1c13b505d5a2b5c4d05719cbdb55cee8bbc077985eff7a220734be",
	"kssp":               "20059c65c1440f0db028b8b36930a9ca3e66ade95d1dc9bd9138fcf2ccc4a948",
	"kssp/chlp21":        "0883022227256e3cbfa80a5e33b1692102ffadb9683ae49f50e833f8304d4e09",
	"kssp/parallel":      "2de98c7b1b84a1b42843a70426808db4f9f4b89f826a87f23e8e6ac966597cac",
	"kssp/proxy":         "2d440f8a4ea84e5adeea74645d8da10fd52d142b29f1a22d3a2024a91bcc48ca",
	"overlay.Prune":      "dcf264bdb4b0c65a7f437a13437ca636657ab50a6fd4775a1759d785a54e2005",
	"route":              "abe2cb103e23b2d79c814719e672e49dfb63f7d4016e63437c77c90a7dde66db",
	"route/lemma54":      "7065f29d47773e3440b0c23729aa5fffe11490be13b1461d561e093a934ae9ed",
	"route/reversed":     "ead2dee75b568374d1bc4e0377944e0c4b8d96f63f8f746e7a08b6a6f2ce04eb",
	"sssp":               "68fe0532a9609a7c3db26115fa8e54129c02078ae34004faf004ff1b9c5e7e68",
}

// auditRuns returns the audit text of each pinned run by name.
func auditRuns(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, algo := range []string{"disseminate", "aggregate", "route", "bcc", "sssp", "kssp",
		"apsp-unweighted", "apsp-sparse", "apsp-spanner", "apsp-skeleton", "klsp", "cuts"} {
		var buf bytes.Buffer
		if err := run([]string{"-algo", algo, "-family", "grid2d", "-n", "64", "-k", "8", "-seed", "1"}, &buf); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		_, audit, ok := strings.Cut(buf.String(), "\nround audit:\n")
		if !ok {
			t.Fatalf("%s: no round audit in:\n%s", algo, buf.String())
		}
		out[algo] = audit
	}

	g, err := graph.Build(graph.FamilyGrid2D, 64, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	newNet := func() *hybrid.Net {
		net, err := hybrid.New(g, hybrid.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	nodes := func(lo, hi int) []int {
		s := make([]int, 0, hi-lo)
		for v := lo; v < hi; v++ {
			s = append(s, v)
		}
		return s
	}
	kssp := func(name string, sources []int, random bool) {
		net := newNet()
		if _, _, err := sssp.KSSP(net, sources, 0.5, random, rand.New(rand.NewSource(1)), false); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = net.FormatAudit()
	}
	kssp("kssp/parallel", nodes(0, 3), true)
	kssp("kssp/proxy", nodes(0, 12), false)
	kssp("kssp/chlp21", nodes(0, 20), true) // k ≥ n^{2/3} = 16

	net := newNet()
	tree := overlay.Build(net, "prune-test")
	if _, err := overlay.Prune(net, tree, func(v int) bool { return v%3 == 0 }, "prune-test"); err != nil {
		t.Fatal(err)
	}
	out["overlay.Prune"] = net.FormatAudit()

	net = newNet()
	edges := g.Edges()
	contract := make([]bool, len(edges))
	for i := range contract {
		contract[i] = i%2 == 0
	}
	value := make([]int64, g.N())
	for v := range value {
		value[v] = int64(v)
	}
	if _, _, err := sssp.NewMinorAggregation(net).Round(contract, value, func(a, b int64) int64 { return min(a, b) }); err != nil {
		t.Fatal(err)
	}
	out["MinorAggregation"] = net.FormatAudit()

	net = newNet()
	if _, err := sssp.OracleEuler(net, graph.Cycle(g.N())); err != nil {
		t.Fatal(err)
	}
	out["OracleEuler"] = net.FormatAudit()

	net = newNet()
	baseline.NaiveTreeBroadcast(net, 64)
	out["NaiveTreeBroadcast"] = net.FormatAudit()

	route := func(name string, spec hybridnet.RoutingSpec) {
		hn, err := hybridnet.NewNetwork(g, hybridnet.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hn.Route(spec, rand.New(rand.NewSource(1))); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = hn.Audit()
	}
	route("route/reversed", hybridnet.RoutingSpec{Case: hybridnet.RandomSourcesArbitraryTargets, Sources: nodes(0, 4), Targets: nodes(0, 32)})
	route("route/lemma54", hybridnet.RoutingSpec{Case: hybridnet.RandomSourcesRandomTargets, Sources: nodes(0, 64), Targets: nodes(0, 4)})
	return out
}

func TestAuditGolden(t *testing.T) {
	runs := auditRuns(t)
	for name, audit := range runs {
		sum := sha256.Sum256([]byte(audit))
		if got := hex.EncodeToString(sum[:]); got != auditGolden[name] {
			t.Errorf("%s: audit hash %s, want %s; audit:\n%s", name, got, auditGolden[name], audit)
		}
	}
	if len(runs) != len(auditGolden) {
		t.Errorf("%d runs, %d pinned hashes", len(runs), len(auditGolden))
	}

	// Every entry of the charge table is charged by some pinned run; an
	// entry whose phase starts with "/" is recorded under its caller's.
	charged := make(map[string]bool)
	for _, audit := range runs {
		for _, line := range strings.Split(audit, "\n") {
			if strings.HasSuffix(line, "(charged)") {
				charged[strings.Fields(line)[0]] = true
			}
		}
	}
	phases := costPhases(t)
	if len(phases) == 0 {
		t.Fatal("no entries parsed from the charge table")
	}
	for _, p := range phases {
		found := charged[p]
		for c := range charged {
			found = found || strings.HasPrefix(p, "/") && strings.HasSuffix(c, p)
		}
		if !found {
			t.Errorf("charge table entry %q is charged by no pinned run", p)
		}
	}
}

// costPhases returns the phase of every entry of the charge table, the
// &Cost{phase, …} literals of internal/hybrid/costs.go.
func costPhases(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../../internal/hybrid/costs.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if id, ok := lit.Type.(*ast.Ident); !ok || id.Name != "Cost" {
			return true
		}
		phase, err := strconv.Unquote(lit.Elts[0].(*ast.BasicLit).Value)
		if err != nil {
			t.Fatal(err)
		}
		phases = append(phases, phase)
		return false
	})
	return phases
}
