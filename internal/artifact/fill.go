package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
)

// FillFunc is the remote-fill hook: called on a double (memory + disk)
// local miss with the key, it returns the blob fetched from whichever
// peer owns it plus the peer-advertised sha256 hex digest. Returning
// ErrFillUnavailable means "no remote source has it" (a clean miss,
// not a failure); any other error counts toward FillErrors. The
// returned blob is only trusted after its bytes re-hash to the
// advertised digest — a corrupt or truncated peer response must never
// poison a content-addressed store.
type FillFunc func(key string) (blob []byte, sha256hex string, err error)

// ReplicateFunc is the replication hook: called by Put (never
// PutLocal) with every locally computed blob so the cluster layer can
// push it to its ring owner asynchronously.
type ReplicateFunc func(key string, value []byte)

// ErrFillUnavailable is the FillFunc sentinel for "the key has no
// remote source" — the owner is this process, the owner answered an
// authoritative 404, or the store is not clustered. It turns the Get
// into an ordinary miss without error accounting.
var ErrFillUnavailable = errors.New("artifact: no remote source for key")

// errFillRejected reports a fetched blob whose bytes do not re-hash to
// the advertised digest.
var errFillRejected = errors.New("artifact: fetched blob failed its digest check")

// SetFill installs (or, with nil, removes) the remote-fill hook.
func (ns *Namespace) SetFill(f FillFunc) {
	if f == nil {
		ns.fillFn.Store(nil)
		return
	}
	ns.fillFn.Store(&f)
}

// SetReplicate installs (or, with nil, removes) the replication hook.
func (ns *Namespace) SetReplicate(f ReplicateFunc) {
	if f == nil {
		ns.replFn.Store(nil)
		return
	}
	ns.replFn.Store(&f)
}

// fillThrough runs the fill hook under the namespace's per-key
// singleflight: the first miss becomes the leader and fetches;
// followers block on the leader's result. A verified blob is written
// through to the local tiers (PutLocal — replication must not echo a
// fetched blob back), so the next restart or LRU eviction is served
// locally: ownership migration is self-healing because any peer that
// ever served a key keeps it.
func (ns *Namespace) fillThrough(key string, fill FillFunc) ([]byte, bool) {
	if ns.testHookMissed != nil {
		ns.testHookMissed(key)
	}
	blob, err, _ := ns.flight.Do(key, func() ([]byte, error) {
		// The caller's local miss happened outside the flight, so a
		// previous leader may have written the blob through and
		// retired in between. Look in the local tiers once more before
		// fetching.
		if v, ok := ns.getLocal(key); ok {
			return v, nil
		}
		blob, digest, err := fill(key)
		if err != nil {
			if !errors.Is(err, ErrFillUnavailable) {
				ns.fillErrors.Add(1)
			}
			return nil, err
		}
		sum := sha256.Sum256(blob)
		if digest == "" || !strings.EqualFold(hex.EncodeToString(sum[:]), digest) {
			ns.fillRejects.Add(1)
			return nil, errFillRejected
		}
		ns.fills.Add(1)
		ns.PutLocal(key, blob)
		return blob, nil
	})
	return blob, err == nil
}
