package main

// The sweep rebuilt from the public pieces hybridnet.Server composes:
// a one-worker runner.Pool, the results namespace behind a timing
// CellCache, GraphCache and ProfileCache over timing BlobStores (on
// disk-backed namespaces when the workload has a disk tier),
// experiments.Generate, and runner.WriteTable into the format sinks.
// It renders byte-identical documents to the server's, which the gate
// checks, and it is where the traced run records its spans.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/nq"
	"repro/internal/runner"
)

// Namespace names and the version key prefix, as hybridnet.Server lays
// out its store.
const (
	graphNamespace   = "graphs"
	profileNamespace = "profiles"
	sweepNamespace   = "sweeps"
)

// formats are the static result documents; "sse" is the reassembled
// live stream, which must equal "jsonl".
var formats = []string{"md", "csv", "jsonl"}

// topo is one distinct topology coordinate a sweep touches.
type topo struct {
	family   graph.Family
	n        int
	seed     int64
	profiles bool  // the sweep attaches ball profiles to it
	ks       []int // k-points of its cells (nq.Of probes)
}

func (t topo) key() string { return runner.GraphKey(t.family, t.n, t.seed) }

// sweepSpec is one scenario sweep of a workload.
type sweepSpec struct {
	scenario string
	n        int
}

// reference is what the untraced reference composition establishes:
// the digest of every document and the topologies of every sweep.
type reference struct {
	docs   digests
	topos  map[string][]topo // per scenario, first-use order
	cells  int               // cells per full sweep of the workload
	unique int               // distinct topologies across the workload
}

// timedStore adapts an artifact namespace to runner.CellCache and
// runner.BlobStore, recording artifact.get / artifact.put spans.
type timedStore struct {
	ns     *artifact.Namespace
	prefix string
	tr     *tracer
}

func (s timedStore) Get(key string) ([]byte, bool) {
	start := time.Now()
	v, ok := s.ns.Get(s.prefix + key)
	s.tr.leaf("artifact.get", start)
	return v, ok
}

func (s timedStore) Put(key string, value []byte) {
	start := time.Now()
	s.ns.Put(s.prefix+key, value)
	s.tr.leaf("artifact.put", start)
}

// round is one pass over every sweep of the workload: Generate each
// scenario, then render the listed formats.
type round struct {
	prepass bool // resolve graphs and profiles before Generate
	formats []string
}

// composeOpts selects the composition's store and rounds.
type composeOpts struct {
	dir     string // disk tier directory; "" = memory only
	version string
	req     string // request id of the pass span
	rounds  []round
}

// composeOut is one composition's digests and counters.
type composeOut struct {
	docs             map[string][]digest // per doc key, one per round rendering it
	computed, cached int
	graphs           runner.GraphCacheStats
	profiles         runner.ProfileCacheStats
	store            artifact.StoreStats
	topos            map[string][]topo
	wall             float64
	root             int // the "pass" span
}

// compose runs the sweeps of one workload through the public pieces.
// With ref non-nil the topologies of each sweep are resolved ahead of
// Generate inside their own spans (the cells then find them shared);
// without it the topologies are recorded for later reference.
func compose(cfg *config, sweeps []sweepSpec, ref *reference, tr *tracer, o composeOpts) (*composeOut, error) {
	out := &composeOut{docs: map[string][]digest{}, topos: map[string][]topo{}}
	start := time.Now()
	root := tr.begin("pass", o.req)
	defer tr.end(root)
	out.root = root

	sp := tr.begin("artifact.open", "")
	var store *artifact.Store
	if o.dir != "" {
		s, err := artifact.NewStoreWithDisk(0, o.dir)
		if err != nil {
			tr.end(sp)
			return nil, fmt.Errorf("opening disk tier: %w", err)
		}
		store = s
		prefix := "v=" + o.version + "/"
		store.SetGC(artifact.GCConfig{Retain: func(ns, key string) bool {
			if ns == artifact.DefaultNamespace || ns == sweepNamespace {
				return strings.HasPrefix(key, prefix)
			}
			return true
		}})
	} else {
		store = artifact.NewStore(0)
	}
	tr.end(sp)
	defer store.Close()

	results := timedStore{ns: store.Namespace(artifact.DefaultNamespace), prefix: "v=" + o.version + "/", tr: tr}
	gcache, pcache := runner.NewGraphCache(nil, 0), runner.NewProfileCache(nil, 0)
	if o.dir != "" {
		gns, pns := store.Namespace(graphNamespace), store.Namespace(profileNamespace)
		gns.SetDiskOnlyPuts(true)
		pns.SetDiskOnlyPuts(true)
		gcache = runner.NewGraphCache(timedStore{ns: gns, tr: tr}, 0)
		pcache = runner.NewProfileCache(timedStore{ns: pns, tr: tr}, 0)
	}
	var recorded map[string][]topo
	var attached *keyRecorder
	if ref == nil {
		// Recording mode: profiles the sweep asks the cache for show as
		// lookups of their content address.
		recorded = out.topos
		attached = &keyRecorder{keys: map[string]bool{}}
		pcache = runner.NewProfileCache(attached, 0)
	}
	index := map[string]int{} // scenario and topology key → position in recorded
	current := ""
	pool := runner.NewPool(1)
	defer pool.Close()

	r := &runner.Runner{
		Pool: pool, Cache: results, CacheVersion: o.version, Graphs: gcache, Profiles: pcache,
		Observer: func(ev runner.CellEvent) {
			if ev.Cached {
				out.cached++
			} else {
				out.computed++
			}
			if recorded != nil && !ev.Cached {
				c := ev.Cell
				t := topo{family: c.Family, n: c.N, seed: c.GraphSeed()}
				k := current + "\x00" + t.key()
				i, ok := index[k]
				if !ok {
					i = len(recorded[current])
					index[k] = i
					recorded[current] = append(recorded[current], t)
				}
				if c.Point.K > 0 {
					recorded[current][i].ks = append(recorded[current][i].ks, c.Point.K)
				}
			}
			tr.cell(ev.Cached)
		},
	}

	for _, rd := range o.rounds {
		for _, sw := range sweeps {
			current = sw.scenario
			if rd.prepass && ref != nil {
				for _, t := range ref.topos[sw.scenario] {
					sp := tr.begin("runner.graph_get", "")
					g, err := gcache.Get(t.family, t.n, t.seed)
					tr.end(sp)
					if err != nil {
						return nil, err
					}
					if t.profiles {
						sp := tr.begin("runner.profile_attach", "")
						pcache.Attach(g, t.family, t.n, t.seed)
						tr.end(sp)
					}
				}
			}
			rcfg := experiments.ReportConfig{N: sw.n, Seed: requestSeed(cfg.seed)}
			sp := tr.begin("experiments.generate", "")
			tables, err := experiments.Generate(sw.scenario, rcfg, r)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			if recorded != nil {
				list := recorded[sw.scenario]
				for i := range list {
					list[i].profiles = attached.seen(runner.ProfileKey(list[i].family, list[i].n, list[i].seed))
				}
			}
			for _, f := range rd.formats {
				sp := tr.begin("runner.render", "")
				d, err := render(tables, f)
				tr.end(sp)
				if err != nil {
					return nil, err
				}
				out.docs[docKey(sw.scenario, f)] = append(out.docs[docKey(sw.scenario, f)], d)
			}
		}
	}
	out.wall = time.Since(start).Seconds()
	out.graphs, out.profiles, out.store = gcache.Stats(), pcache.Stats(), store.Stats()
	return out, nil
}

// keyRecorder is a BlobStore that stores nothing and remembers which
// keys were looked up.
type keyRecorder struct {
	mu   sync.Mutex
	keys map[string]bool
}

func (k *keyRecorder) Get(key string) ([]byte, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.keys[key] = true
	return nil, false
}

func (k *keyRecorder) Put(string, []byte) {}

func (k *keyRecorder) seen(key string) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.keys[key]
}

// render digests tables in one format through the runner sinks, the
// path Server.WriteResults takes.
func render(tables []*runner.Table, format string) (digest, error) {
	h := newHasher()
	sink, err := (&experiments.ReportConfig{Format: format}).NewSink(h)
	if err != nil {
		return digest{}, err
	}
	for _, t := range tables {
		if err := runner.WriteTable(sink, t); err != nil {
			return digest{}, err
		}
	}
	return h.digest(), nil
}

// requestSeed is the seed a SweepRequest carries: the server maps 0 to
// the report default, and so must the composition.
func requestSeed(seed int64) int64 {
	if seed == 0 {
		return experiments.DefaultSeed
	}
	return seed
}

// buildReference runs the workload's sweeps once, untraced and without
// a disk tier, and records their documents and topologies.
func buildReference(cfg *config, sweeps []sweepSpec) (*reference, error) {
	out, err := compose(cfg, sweeps, nil, nil, composeOpts{
		version: runner.CodeVersion, rounds: []round{{formats: formats}},
	})
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	ref := &reference{docs: digests{}, topos: out.topos, cells: out.computed + out.cached}
	for k, ds := range out.docs {
		ref.docs[k] = ds[0]
	}
	for _, sw := range sweeps {
		ref.docs[docKey(sw.scenario, "sse")] = ref.docs[docKey(sw.scenario, "jsonl")]
	}
	unique := map[string]bool{}
	for _, list := range ref.topos {
		for _, t := range list {
			unique[t.key()] = true
		}
	}
	ref.unique = len(unique)
	return ref, nil
}

// probeRepeats is how often the probe times its functions; each
// graph-layer metric is the median over the repeats.
const probeRepeats = 3

// probeTopologies times the graph-layer functions the workload's path
// calls on each of its distinct topologies, once per repeat, each
// repeat under its own "probe" span. Every path builds its topologies,
// takes their diameter and computes the ball profiles and NQ_k its
// sweep uses. With a disk tier (disk) the build is CSR-encoded, and
// what a restore pays is timed instead of the built graph's diameter:
// the decode and the exact diameter of the decoded instance. Without
// one, encode and decode are never called and get no span. It returns
// the heap held by the largest built topology, in MB.
func probeTopologies(tr *tracer, ref *reference, disk bool) (roots []int, residentMB float64, err error) {
	for r := 0; r < probeRepeats; r++ {
		root, held, err := probeOnce(tr, ref, disk, fmt.Sprintf("probe-%d", r))
		roots = append(roots, root)
		if err != nil {
			return roots, 0, err
		}
		residentMB = max(residentMB, held)
	}
	return roots, residentMB, nil
}

func probeOnce(tr *tracer, ref *reference, disk bool, req string) (root int, residentMB float64, err error) {
	root = tr.begin("probe", req)
	defer tr.end(root)
	done := map[string]bool{}
	for _, list := range ref.topos {
		for _, t := range list {
			if done[t.key()] {
				continue
			}
			done[t.key()] = true
			before := heapLiveMB()
			sp := tr.begin("graph.build", "")
			g, err := graph.Build(t.family, t.n, rand.New(rand.NewSource(t.seed)))
			tr.end(sp)
			if err != nil {
				return root, 0, err
			}
			if held := heapLiveMB() - before; held > residentMB {
				residentMB = held
			}
			if disk {
				sp = tr.begin("graph.encode", "")
				blob, err := graph.EncodeCSR(g)
				tr.end(sp)
				if err != nil {
					return root, 0, err
				}
				sp = tr.begin("graph.decode", "")
				g, err = graph.DecodeCSR(blob)
				tr.end(sp)
				if err != nil {
					return root, 0, err
				}
			}
			sp = tr.begin("graph.diameter", "")
			diam := g.Diameter()
			tr.end(sp)
			if !t.profiles {
				continue
			}
			sp = tr.begin("graph.profiles", "")
			g.AttachProfiles(g.BallProfiles(graph.ProfileRadius(g.N(), diam)))
			tr.end(sp)
			for _, k := range t.ks {
				sp = tr.begin("nq.of", "")
				_, err := nq.Of(g, k)
				tr.end(sp)
				if err != nil {
					return root, 0, err
				}
			}
		}
	}
	return root, residentMB, nil
}
