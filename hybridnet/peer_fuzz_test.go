package hybridnet_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/hybridnet"
	"repro/internal/peer"
)

// FuzzPeerArtifactPut drives the replication push endpoint with
// arbitrary (namespace, key, body, digest header) inputs: it must never
// panic, answer 204 only for a clustered namespace whose advertised
// digest is the body's lowercase sha256 hex, serve an accepted blob
// back byte for byte with its digest, and store nothing it rejects.
func FuzzPeerArtifactPut(f *testing.F) {
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	blob := []byte("cluster blob")
	f.Add("results", "cafe0123", blob, digest(blob))
	f.Add("graphs", "beef", blob, digest(blob))
	f.Add("profiles", "a/b", []byte{}, digest(nil))
	f.Add("sweeps", "cafe0123", blob, digest(blob))
	f.Add("results", "cafe0123", blob, "")
	f.Add("results", "cafe0123", blob, strings.ToUpper(digest(blob)))
	f.Add("../results", "x", blob, digest(blob))

	srv, err := hybridnet.NewServer(hybridnet.ServerConfig{
		Workers:           1,
		CacheDir:          f.TempDir(),
		Peers:             []string{"127.0.0.1:1", "127.0.0.1:2"},
		Self:              "127.0.0.1:1",
		PeerProbeInterval: time.Hour, // no background probe noise
	})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	var seq atomic.Uint64

	f.Fuzz(func(t *testing.T, ns, key string, body []byte, header string) {
		// A fresh prefix per input keeps earlier inputs from answering
		// this one's reads; the version prefix keeps result keys live
		// under the disk tier's GC.
		key = fmt.Sprintf("v=%s/f%d-%s", srv.Version(), seq.Add(1), key)
		target := "/v1/peer/artifact/" + url.PathEscape(ns) + "/" + url.PathEscape(key)

		put := httptest.NewRequest(http.MethodPut, target, bytes.NewReader(body))
		put.Header.Set(peer.DigestHeader, header)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, put)

		get := httptest.NewRecorder()
		h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, target, nil))

		if rec.Code != http.StatusNoContent {
			if get.Code == http.StatusOK {
				t.Fatalf("PUT %s = %d, yet GET serves %q", target, rec.Code, get.Body.Bytes())
			}
			return
		}
		switch ns {
		case "results", "graphs", "profiles":
		default:
			t.Fatalf("PUT %s accepted into namespace %q", target, ns)
		}
		if header != digest(body) {
			t.Fatalf("PUT %s accepted digest header %q for a body hashing to %s", target, header, digest(body))
		}
		if get.Code != http.StatusOK || !bytes.Equal(get.Body.Bytes(), body) {
			t.Fatalf("GET %s after PUT = %d %q, want 200 %q", target, get.Code, get.Body.Bytes(), body)
		}
		if d := get.Header().Get(peer.DigestHeader); d != header {
			t.Fatalf("GET %s digest = %q, want %q", target, d, header)
		}
	})
}
