package hybridnet

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/runner"
)

// FuzzSweepRequest drives request validation with arbitrary JSON bodies:
// normalize must never panic, and a request it accepts must be a fixed
// point of normalize with the same families and the same sweep ID, so
// equivalent submissions share one content address.
func FuzzSweepRequest(f *testing.F) {
	f.Add([]byte(`{"scenario":"table1"}`))
	f.Add([]byte(`{"scenario":"nq","families":["path","moebius"],"n":64}`))
	f.Add([]byte(`{"scenario":"table3","families":["grid2d"],"n":-1}`))
	f.Add([]byte(`{"scenario":"figure1","n":1048577,"seed":9,"fresh":true}`))
	srv, err := NewServer(ServerConfig{Workers: 1, CacheBytes: -1})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		fams, err := srv.normalize(&req)
		if err != nil {
			return
		}
		again := req
		fams2, err := srv.normalize(&again)
		if err != nil {
			t.Fatalf("normalized request %+v rejected on a second pass: %v", req, err)
		}
		if !reflect.DeepEqual(again, req) || !reflect.DeepEqual(fams2, fams) {
			t.Fatalf("normalize is not idempotent: %+v/%v, then %+v/%v", req, fams, again, fams2)
		}
		id := runner.SweepID(srv.version, req.Scenario, fams, req.N, req.Seed)
		if id2 := runner.SweepID(srv.version, again.Scenario, fams2, again.N, again.Seed); id2 != id {
			t.Fatalf("sweep ID changed across normalize: %s, then %s", id, id2)
		}
	})
}
