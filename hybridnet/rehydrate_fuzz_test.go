package hybridnet

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/runner"
)

// FuzzRehydrate feeds the persisted-sweep decoder arbitrary records
// under arbitrary ids: rehydrate must never panic, and a record it
// accepts must be a normalized request whose sweep ID is the id it was
// stored under, with 0 ≤ cached ≤ cells. A rejected record registers
// no sweep. The seeds are the records real sweeps persisted.
func FuzzRehydrate(f *testing.F) {
	srv, err := NewServer(ServerConfig{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	var ids []string
	for _, req := range []SweepRequest{
		{Scenario: "nq", Families: []string{"path"}, N: 64},
		{Scenario: "table3", Families: []string{"path", "cycle"}, N: 32, Seed: 7},
		{Scenario: "nq", N: 16},
	} {
		st, err := srv.Submit(req)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := srv.Wait(st.ID); err != nil {
			f.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for i, id := range ids {
		blob, ok := srv.sweepsNS.Get(srv.vprefix + id)
		if !ok {
			f.Fatalf("sweep %s persisted no record", id)
		}
		f.Add(id, blob)
		f.Add(ids[(i+1)%len(ids)], blob) // a real record under another sweep's id
	}
	f.Add(ids[0], []byte(`{"scenario":"nq","families":["path"],"n":64,"seed":1,"cells":4,"cached_cells":5}`))
	f.Add(ids[0], []byte(`{"scenario":"nq","families":["moebius"],"n":64}`))
	f.Add(ids[0], []byte(`null`))

	// forget drops id's sweep from the registry and the finished LRU and
	// returns it, so every input starts from an evicted sweep.
	forget := func(id string) *sweep {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		sw := srv.sweeps[id]
		if sw != nil {
			if sw.el != nil {
				srv.finished.Remove(sw.el)
			}
			delete(srv.sweeps, id)
		}
		return sw
	}
	f.Fuzz(func(t *testing.T, id string, blob []byte) {
		srv.sweepsNS.Put(srv.vprefix+id, blob)
		forget(id)
		sw, ok := srv.rehydrate(id)
		registered := forget(id)
		if !ok {
			if registered != nil {
				t.Fatalf("rejected record %q registered sweep %s", blob, id)
			}
			return
		}
		if registered != sw {
			t.Fatalf("accepted record %q is not the registered sweep", blob)
		}
		req := sw.req
		fams, err := srv.normalize(&req)
		if err != nil || !reflect.DeepEqual(req, sw.req) {
			t.Fatalf("accepted record %q: request %+v is not normalized (%v)", blob, sw.req, err)
		}
		if got := runner.SweepID(srv.version, req.Scenario, fams, req.N, req.Seed); got != id {
			t.Fatalf("record %q stored under %s rehydrated as sweep %s", blob, id, got)
		}
		var rec sweepRecord
		if err := json.Unmarshal(blob, &rec); err != nil || sw.cells != rec.Cells || sw.cached != rec.Cached ||
			sw.cached < 0 || sw.cached > sw.cells || sw.state != SweepDone {
			t.Fatalf("accepted record %q: sweep state %s, %d of %d cells cached", blob, sw.state, sw.cached, sw.cells)
		}
	})
}
