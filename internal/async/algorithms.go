// Ports of the paper's algorithm workloads onto the async backend
// (DESIGN.md §13): distance computation by asynchronous distributed
// relaxation (the async counterparts of sssp.ExactBFS and the
// Theorem 13 Approx pipeline) and k-token dissemination by monotone
// set gossip (the async counterpart of broadcast.Disseminate,
// Definition 1.1). All three are self-stabilizing under the engine's
// crash/recovery semantics: state is monotone (distances only
// decrease, token sets only grow), restarts rebuild from durable
// inputs, and a hello/state exchange with neighbors recovers what a
// crash destroyed, so the converged outputs are fault-independent —
// the property the differential harness certifies.

package async

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/sssp"
)

// Message kinds of the built-in algorithm ports.
const (
	// kindHello announces a (re)booted node's state to its neighbors
	// and asks each for its state in return.
	kindHello uint8 = iota + 1
	// kindState carries the sender's current state (a distance or a
	// token set).
	kindState
)

// Options parameterizes one algorithm run on the async backend.
type Options struct {
	// Seed drives the fault layer (0 means 1).
	Seed int64
	// Workers bounds concurrent node handlers (≤ 0 = GOMAXPROCS);
	// outputs are identical at any value.
	Workers int
	// Faults selects the fault profile (zero value = fault-free).
	Faults Faults
	// MaxEvents overrides the quiescence guard (0 = DefaultMaxEvents).
	MaxEvents int64
	// FullTrace selects the forensic full-fidelity trace mode (see
	// Config.FullTrace).
	FullTrace bool
}

func (o Options) config() Config {
	return Config{Seed: o.Seed, Workers: o.Workers, Faults: o.Faults, MaxEvents: o.MaxEvents, FullTrace: o.FullTrace}
}

// distNode computes single-source distances by asynchronous
// relaxation: it keeps the best distance offer seen so far and
// announces every strict improvement to all neighbors. hop selects
// unit weights (BFS hop distances); otherwise edge weights apply
// (asynchronous Bellman–Ford). The source flag is durable input —
// a crashed source restarts at distance 0.
type distNode struct {
	src bool
	hop bool
	// dist is the learned state: the node's current distance estimate.
	dist int64
}

func (nd *distNode) offer(ctx *Context, from int, a int64) int64 {
	if a >= graph.Inf {
		return graph.Inf
	}
	w := int64(1)
	if !nd.hop {
		ew, ok := ctx.Graph().EdgeWeight(from, ctx.ID())
		if !ok {
			return graph.Inf
		}
		w = ew
	}
	return a + w
}

func (nd *distNode) announce(ctx *Context, kind uint8) {
	v := ctx.ID()
	ctx.Graph().ForEachNeighbor(v, func(u int, _ int64) {
		ctx.Send(Message{To: u, Mode: ModeLocal, Kind: kind, A: nd.dist})
	})
}

func (nd *distNode) Start(ctx *Context, restart bool) {
	nd.dist = graph.Inf
	if nd.src {
		nd.dist = 0
	}
	// Boot/recovery handshake: announce the durable state and solicit
	// every neighbor's (kindHello receivers reply with kindState).
	nd.announce(ctx, kindHello)
}

func (nd *distNode) Deliver(ctx *Context, local, global []Message) {
	improved := false
	for i := range local {
		m := &local[i]
		if d := nd.offer(ctx, m.From, m.A); d < nd.dist {
			nd.dist = d
			improved = true
		}
	}
	if improved {
		// A strict improvement is announced to every neighbor, which
		// also answers any hello in this batch.
		nd.announce(ctx, kindState)
		return
	}
	for i := range local {
		m := &local[i]
		if m.Kind == kindHello && nd.dist < graph.Inf {
			ctx.Send(Message{To: m.From, Mode: ModeLocal, Kind: kindState, A: nd.dist})
		}
	}
}

// runDist executes a distance relaxation over g and returns the
// converged per-node estimates.
func runDist(g *graph.Graph, src int, hop bool, opt Options) ([]int64, *Report, error) {
	if src < 0 || src >= g.N() {
		return nil, nil, fmt.Errorf("async: source %d out of range", src)
	}
	nodes := make([]*distNode, g.N())
	sim, err := New(g, opt.config(), func(v int) Node {
		nodes[v] = &distNode{src: v == src, hop: hop}
		return nodes[v]
	})
	if err != nil {
		return nil, nil, err
	}
	rep, err := sim.Run()
	if err != nil {
		return nil, nil, err
	}
	dist := make([]int64, len(nodes))
	for v, nd := range nodes {
		dist[v] = nd.dist
	}
	return dist, rep, nil
}

// BFS computes exact hop distances from src by asynchronous flooding —
// the async counterpart of sssp.ExactBFS. On a connected graph the
// converged distances equal the synchronous engine's and the oracle's
// under every fault profile the transport can deliver through.
func BFS(g *graph.Graph, src int, opt Options) ([]int64, *Report, error) {
	return runDist(g, src, true, opt)
}

// SSSP computes exact weighted distances from src by asynchronous
// distributed Bellman–Ford relaxation.
func SSSP(g *graph.Graph, src int, opt Options) ([]int64, *Report, error) {
	return runDist(g, src, false, opt)
}

// Approx computes the Theorem 13 (1+eps)-approximate SSSP on the async
// backend: exact asynchronous relaxation followed by the same
// sssp.Quantizer rounding the synchronous sssp.Approx applies, so the two
// backends' outputs are byte-identical wherever both converge.
func Approx(g *graph.Graph, src int, eps float64, opt Options) ([]int64, *Report, error) {
	if eps <= 0 {
		return nil, nil, fmt.Errorf("async: eps=%v must be positive", eps)
	}
	dist, rep, err := SSSP(g, src, opt)
	if err != nil {
		return nil, nil, err
	}
	quant := sssp.NewQuantizer(eps)
	for v, d := range dist {
		dist[v] = quant.Up(d)
	}
	return dist, rep, nil
}

// tokenNode disseminates tokens by monotone set gossip: the node's
// token set only grows, every strict growth is gossiped to all
// neighbors over the local inbox and to a fixed global peer (the
// successor ring over the global network, exercising the NCC mode),
// and the boot/recovery hello solicits neighbor state. Initial tokens
// are durable input.
type tokenNode struct {
	k       int
	initial []int
	peer    int
	// set is the learned state.
	set bitset.Set
}

func (nd *tokenNode) payload() bitset.Set { return nd.set.Clone() }

func (nd *tokenNode) gossip(ctx *Context, kind uint8) {
	v := ctx.ID()
	ctx.Graph().ForEachNeighbor(v, func(u int, _ int64) {
		ctx.Send(Message{To: u, Mode: ModeLocal, Kind: kind, Set: nd.payload()})
	})
	if nd.peer != v {
		ctx.Send(Message{To: nd.peer, Mode: ModeGlobal, Kind: kind, Set: nd.payload()})
	}
}

func (nd *tokenNode) Start(ctx *Context, restart bool) {
	nd.set = bitset.New(nd.k)
	for _, t := range nd.initial {
		nd.set.Add(t)
	}
	nd.gossip(ctx, kindHello)
}

func (nd *tokenNode) Deliver(ctx *Context, local, global []Message) {
	before := nd.set.Count()
	for i := range local {
		if local[i].Set.Len() > 0 {
			nd.set.UnionWith(local[i].Set)
		}
	}
	for i := range global {
		if global[i].Set.Len() > 0 {
			nd.set.UnionWith(global[i].Set)
		}
	}
	if nd.set.Count() > before {
		nd.gossip(ctx, kindState)
		return
	}
	reply := func(m *Message) {
		if m.Kind == kindHello && nd.set.Count() > 0 {
			ctx.Send(Message{To: m.From, Mode: m.Mode, Kind: kindState, Set: nd.payload()})
		}
	}
	for i := range local {
		reply(&local[i])
	}
	for i := range global {
		reply(&global[i])
	}
}

// Disseminate solves k-dissemination (Definition 1.1) on the async
// backend: tokensAt[v] is the number of tokens initially held by node
// v (token identities are assigned in node order, exactly as
// broadcast.Disseminate does). It returns each node's converged token
// set; on a connected graph with a deliverable fault profile every set
// holds all k tokens — the certificate the differential harness
// checks against the synchronous engine.
func Disseminate(g *graph.Graph, tokensAt []int, opt Options) ([]bitset.Set, *Report, error) {
	n := g.N()
	if len(tokensAt) != n {
		return nil, nil, fmt.Errorf("async: tokensAt has %d entries, want %d", len(tokensAt), n)
	}
	k := 0
	for v, c := range tokensAt {
		if c < 0 {
			return nil, nil, fmt.Errorf("async: negative token count at node %d", v)
		}
		k += c
	}
	initial := make([][]int, n)
	tid := 0
	for v := 0; v < n; v++ {
		for j := 0; j < tokensAt[v]; j++ {
			initial[v] = append(initial[v], tid)
			tid++
		}
	}
	nodes := make([]*tokenNode, n)
	sim, err := New(g, opt.config(), func(v int) Node {
		nodes[v] = &tokenNode{k: k, initial: initial[v], peer: (v + 1) % n}
		return nodes[v]
	})
	if err != nil {
		return nil, nil, err
	}
	rep, err := sim.Run()
	if err != nil {
		return nil, nil, err
	}
	sets := make([]bitset.Set, n)
	for v, nd := range nodes {
		sets[v] = nd.set
	}
	return sets, rep, nil
}
