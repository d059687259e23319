package peer

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
)

// pingReply is what the fuzzed peer answers a ping with.
type pingReply struct {
	code int
	body []byte
}

// FuzzPeerPing hardens the liveness probe against whatever a peer
// answers on /v1/peer/ping: probe must return nil exactly when the
// status is 200, the body decodes as the ping document, and its version
// is empty or ours, and it must never panic. The corpus is seeded with
// a body a live hybridd served, and variants of it.
func FuzzPeerPing(f *testing.F) {
	const version = "2026-07-repro-3"
	served := []byte("{\n  \"self\": \"127.0.0.1:8097\",\n  \"version\": \"" + version + "\"\n}\n")
	f.Add(uint16(200), served)
	f.Add(uint16(200), bytes.Replace(served, []byte(version), []byte("2026-06-other"), 1))
	f.Add(uint16(200), bytes.Replace(served, []byte(version), nil, 1))
	f.Add(uint16(200), served[:len(served)/2])
	f.Add(uint16(200), []byte("null"))
	f.Add(uint16(200), []byte(`{"self": 7}`))
	f.Add(uint16(200), []byte{})
	f.Add(uint16(503), served)
	f.Add(uint16(404), []byte(`{"error": "not found"}`))

	var reply atomic.Pointer[pingReply]
	addr := testPeer(f, func(w http.ResponseWriter, r *http.Request) {
		rp := reply.Load()
		w.WriteHeader(rp.code)
		w.Write(rp.body)
	})
	reg, err := NewRegistry(Config{Self: "self:0", Peers: []string{"self:0", addr}, Version: version})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, status uint16, body []byte) {
		// 2xx to 5xx: a 1xx is informational, and net/http answers
		// the request itself with a 200 after it.
		code := 200 + int(status)%400
		reply.Store(&pingReply{code: code, body: body})
		err := reg.probe(context.Background(), addr)

		var pb pingBody
		decodes := json.NewDecoder(bytes.NewReader(body)).Decode(&pb) == nil
		want := code == http.StatusOK && decodes && (pb.Version == "" || pb.Version == version)
		if (err == nil) != want {
			t.Fatalf("status %d, body %q: probe error %v, want success=%v", code, body, err, want)
		}
	})
}
