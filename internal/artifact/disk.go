package artifact

// The disk tier: an append-only log of binary segments shared by every
// namespace. Each record is one little-endian frame
//
//	crc32c u32 | nsLen u16 | keyLen u16 | valLen u32 | ns | key | value
//
// whose CRC-32C (Castagnoli) covers every byte after itself; segments
// rotate at a size threshold so a long-lived service never grows one
// unbounded file. On open every segment is streamed once to build the
// in-memory index — only records whose CRC verifies are indexed, later
// records shadow earlier ones (the log is the source of truth, the
// index a cache of offsets), a fully framed record that fails its CRC
// is skipped as dead bytes, and a record running past EOF (a torn
// write) ends the scan. The newest segment is truncated to the end of
// its last whole record before it is reopened for appending, so a new
// record never lands glued to torn bytes. Gets then read exactly one
// frame back via ReadAt and verify its CRC, namespace and key; a
// mismatch is a miss that drops the index entry (DiskStats
// .CorruptRecords), so the caller's recompute re-appends the record.
// Writes and index mutations are serialized by one mutex — the heavy
// work (simulation, topology construction) happens far above this layer.
//
// Segments of the retired JSONL format (seg-*.jsonl) are deleted on
// open and counted in DiskStats.SegmentsDropped: the tier is a
// recomputable cache, so there is one record format and one reader.
//
// Garbage collection (DESIGN.md §11): shadowed records, records whose
// keys fail the configured retain filter (rows orphaned by a
// CodeVersion bump), and torn or corrupt frames are dead bytes that an
// append-only log never reclaims on its own. The tier therefore keeps
// per-segment live-byte accounts and, after each rotation (and on
// Store.CompactDisk), rewrites sealed segments whose live ratio has
// dropped below the threshold: live records are verified and re-appended
// to the active segment — always a higher-numbered file, so a crash
// mid-pass leaves duplicates that reindexing resolves by its existing
// later-shadows-earlier rule — and the old file is deleted. A total
// byte bound is enforced last by dropping whole oldest segments (the
// store is a cache; dropped records are recomputable). Concurrent
// readers are safe: a Get races the pass only between its index lookup
// and its ReadAt, fails the read (the file is gone), and retries through
// the updated index.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// defaultSegmentBytes is the rotation threshold for segment files.
const defaultSegmentBytes = 4 << 20

// defaultLiveRatio is the compaction threshold: a sealed segment whose
// live bytes fall below this fraction of its size is rewritten.
const defaultLiveRatio = 0.5

// segmentFormat names segment files (fmt verb for the id); segmentGlob
// matches them, and legacySegmentGlob the retired JSONL segments.
const (
	segmentFormat     = "seg-%06d.log"
	segmentGlob       = "seg-*.log"
	legacySegmentGlob = "seg-*.jsonl"
)

// frameHeader is the fixed prefix of a record frame: crc32c u32,
// nsLen u16, keyLen u16, valLen u32.
const frameHeader = 12

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// GCConfig parameterizes the disk tier's garbage collector
// (Store.SetGC). The zero value enables compaction at the defaults
// with no byte bound and no retain filter.
type GCConfig struct {
	// MaxBytes bounds the total size of all segment files; 0 means
	// unbounded. The bound is enforced after compaction by dropping
	// whole oldest segments, live records included — acceptable for a
	// content-addressed cache, whose records are recomputable.
	MaxBytes int64
	// LiveRatio is the compaction threshold: sealed segments whose
	// live-byte fraction is below it are rewritten (0 means
	// defaultLiveRatio; negative disables compaction).
	LiveRatio float64
	// Retain, when non-nil, marks which records are still worth
	// keeping: keys for which it returns false are dropped from the
	// index immediately and never rewritten by compaction. The sweep
	// service uses it to age out result rows content-addressed under an
	// old CodeVersion, which no future Get can ever request.
	Retain func(ns, key string) bool
	// SegmentBytes overrides the rotation threshold (0 means the 4 MiB
	// default); tests use small segments to exercise rotation and GC.
	SegmentBytes int64
}

// loc addresses one record inside the segment set.
type loc struct {
	seg int
	off int64
	len int
}

// segInfo is one segment file's byte accounting.
type segInfo struct {
	bytes int64 // file size
	live  int64 // bytes of records the index still points at
}

type diskTier struct {
	mu           sync.Mutex
	dir          string
	index        map[memKey]loc
	segs         map[int]*segInfo
	cur          *os.File // append handle of the active segment
	curID        int
	reindexed    int // records recovered from pre-existing segments at open
	segmentBytes int64
	broken       bool // a write failed; stop appending, keep serving reads
	corrupt      int  // records dropped because their frame failed verification

	// GC configuration (SetGC) and counters.
	maxBytes      int64
	liveRatio     float64
	retain        func(ns, key string) bool
	compactions   int // GC passes that rewrote or dropped at least one segment
	segCompacted  int
	segDropped    int
	recsCollected int // dead records reclaimed (shadowed, torn, or retain-filtered)
}

func segmentName(id int) string { return fmt.Sprintf(segmentFormat, id) }

func segmentPath(dir string, id int) string { return filepath.Join(dir, segmentName(id)) }

// appendFrame appends the record frame of (ns, key, value) to dst. The
// caller guarantees the lengths fit the header fields.
func appendFrame(dst []byte, ns, key string, value []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // CRC, patched below
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ns)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(key)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(value)))
	dst = append(dst, ns...)
	dst = append(dst, key...)
	dst = append(dst, value...)
	binary.LittleEndian.PutUint32(dst[start:], crc32.Checksum(dst[start+4:], castagnoli))
	return dst
}

// frameValue verifies one whole frame read back from a segment — its
// length, CRC, namespace and key — and returns its value as a subslice
// of frame.
func frameValue(frame []byte, ns, key string) ([]byte, bool) {
	if len(frame) < frameHeader {
		return nil, false
	}
	nsLen := int(binary.LittleEndian.Uint16(frame[4:]))
	keyLen := int(binary.LittleEndian.Uint16(frame[6:]))
	valLen := int64(binary.LittleEndian.Uint32(frame[8:]))
	if nsLen != len(ns) || keyLen != len(key) || int64(len(frame)) != frameHeader+int64(nsLen+keyLen)+valLen {
		return nil, false
	}
	if binary.LittleEndian.Uint32(frame) != crc32.Checksum(frame[4:], castagnoli) {
		return nil, false
	}
	body := frame[frameHeader:]
	if string(body[:nsLen]) != ns || string(body[nsLen:nsLen+keyLen]) != key {
		return nil, false
	}
	return body[nsLen+keyLen:], true
}

// openDiskTier deletes retired JSONL segments, indexes every existing
// segment under dir (creating the directory if needed), truncates the
// newest one to its last whole record and opens it for appending.
func openDiskTier(dir string) (*diskTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &diskTier{
		dir:          dir,
		index:        make(map[memKey]loc),
		segs:         make(map[int]*segInfo),
		segmentBytes: defaultSegmentBytes,
		liveRatio:    defaultLiveRatio,
	}
	legacy, err := filepath.Glob(filepath.Join(dir, legacySegmentGlob))
	if err != nil {
		return nil, err
	}
	for _, name := range legacy {
		if err := os.Remove(name); err != nil {
			return nil, err
		}
		d.segDropped++
	}
	names, err := filepath.Glob(filepath.Join(dir, segmentGlob))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	r := bufio.NewReaderSize(nil, 1<<16)
	maxID, maxEnd := 0, int64(0)
	for _, name := range names {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(name), segmentFormat, &id); err != nil {
			continue
		}
		end, err := d.indexSegment(r, name, id)
		if err != nil {
			return nil, fmt.Errorf("artifact: indexing %s: %w", name, err)
		}
		info := d.segs[id]
		if st, err := os.Stat(name); err == nil {
			info.bytes = st.Size()
		}
		if id > maxID {
			maxID, maxEnd = id, end
		}
	}
	d.reindexed = len(d.index)
	d.curID = maxID
	if d.curID == 0 {
		d.curID = 1
	}
	path := segmentPath(dir, d.curID)
	if info := d.segs[d.curID]; info != nil && info.bytes > maxEnd {
		// A torn tail: cut it off so the next append starts a whole frame.
		if err := os.Truncate(path, maxEnd); err != nil {
			return nil, err
		}
		info.bytes = maxEnd
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	d.cur = f
	if d.segs[d.curID] == nil {
		d.segs[d.curID] = &segInfo{bytes: st.Size()}
	}
	return d, nil
}

// indexSegment streams one segment through r, recording the offsets and
// live-byte accounts of every record whose CRC verifies, and returns
// the end offset of the last whole frame. Values are fed into the CRC
// chunk by chunk, so memory stays O(index) however large the blobs.
// A fully framed record that fails its CRC is skipped; a frame running
// past EOF (a crashed writer) ends the scan. Both count as dead bytes
// the collector may reclaim. A read error other than EOF is returned.
func (d *diskTier) indexSegment(r *bufio.Reader, path string, id int) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r.Reset(f)
	info := d.segs[id]
	if info == nil {
		info = &segInfo{}
		d.segs[id] = info
	}
	var (
		off  int64
		hdr  [frameHeader]byte
		name []byte
	)
	// stop ends the scan at off: cleanly at EOF, which (mid-frame) is a
	// torn tail, and with the error otherwise — a read failure must not
	// pass for a torn tail, or open would truncate intact records.
	stop := func(err error) (int64, error) {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return off, nil
		}
		return off, err
	}
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return stop(err)
		}
		nsLen := int(binary.LittleEndian.Uint16(hdr[4:]))
		keyLen := int(binary.LittleEndian.Uint16(hdr[6:]))
		valLen := int64(binary.LittleEndian.Uint32(hdr[8:]))
		if need := nsLen + keyLen; cap(name) < need {
			name = make([]byte, need)
		} else {
			name = name[:need]
		}
		if _, err := io.ReadFull(r, name); err != nil {
			return stop(err)
		}
		crc := crc32.Update(0, castagnoli, hdr[4:])
		crc = crc32.Update(crc, castagnoli, name)
		for rem := valLen; rem > 0; {
			chunk, err := r.Peek(int(min(rem, int64(r.Size()))))
			crc = crc32.Update(crc, castagnoli, chunk)
			r.Discard(len(chunk)) // cannot fail: chunk is buffered
			if err != nil {
				return stop(err)
			}
			rem -= int64(len(chunk))
		}
		n := frameHeader + int64(nsLen+keyLen) + valLen
		if crc == binary.LittleEndian.Uint32(hdr[:]) {
			k := memKey{ns: string(name[:nsLen]), key: string(name[nsLen:])}
			if old, ok := d.index[k]; ok {
				d.segs[old.seg].live -= int64(old.len) // shadowed
			}
			d.index[k] = loc{seg: id, off: off, len: int(n)}
			info.live += n
		}
		off += n
	}
}

// get returns the record stored under (ns, key). A read that races a
// compaction pass (the segment was rewritten and deleted between the
// index lookup and the ReadAt) retries once through the updated index.
// A frame that reads back whole but fails verification is corrupt: it
// is dropped from the index and the Get misses.
func (d *diskTier) get(ns, key string) ([]byte, bool) {
	k := memKey{ns: ns, key: key}
	for attempt := 0; attempt < 2; attempt++ {
		d.mu.Lock()
		l, ok := d.index[k]
		d.mu.Unlock()
		if !ok {
			return nil, false
		}
		frame, ok := d.readAt(l)
		if !ok {
			continue
		}
		if v, ok := frameValue(frame, ns, key); ok {
			return v, true
		}
		d.mu.Lock()
		if cur, ok := d.index[k]; ok && cur == l {
			d.dropCorruptLocked(k, l)
		}
		d.mu.Unlock()
		return nil, false
	}
	return nil, false
}

// readAt reads the frame at l with one ReadAt.
func (d *diskTier) readAt(l loc) ([]byte, bool) {
	f, err := os.Open(segmentPath(d.dir, l.seg))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	buf := make([]byte, l.len)
	if _, err := f.ReadAt(buf, l.off); err != nil {
		return nil, false
	}
	return buf, true
}

// dropCorruptLocked forgets a record whose frame failed verification.
// The caller holds d.mu.
func (d *diskTier) dropCorruptLocked(k memKey, l loc) {
	delete(d.index, k)
	d.segs[l.seg].live -= int64(l.len)
	d.corrupt++
}

// put appends one record and reports whether it was durably written.
// Crossing the rotation threshold seals the active segment and runs a
// GC pass over the sealed set.
func (d *diskTier) put(ns, key string, value []byte) bool {
	if len(ns) > math.MaxUint16 || len(key) > math.MaxUint16 || uint64(len(value)) > math.MaxUint32 {
		return false // does not fit the frame header
	}
	frame := appendFrame(make([]byte, 0, frameHeader+len(ns)+len(key)+len(value)), ns, key, value)
	d.mu.Lock()
	defer d.mu.Unlock()
	// An existing key is appended again (shadowing the old record on
	// the next reopen, and re-pointing the index now) rather than
	// skipped: identical content addresses normally carry identical
	// values, but a Put over an existing key only happens when the old
	// record failed to decode — skipping would make corruption
	// permanent, and the memory tier already holds the new value.
	rotated, ok := d.appendLocked(memKey{ns: ns, key: key}, frame)
	if ok && rotated {
		d.gcLocked()
	}
	return ok
}

// appendLocked writes one prepared frame to the active segment,
// rotating first when the threshold would be crossed, and repoints the
// index. It never triggers GC — put does that, so the collector's own
// re-appends cannot recurse. Reports (rotated, ok).
func (d *diskTier) appendLocked(k memKey, frame []byte) (rotated, ok bool) {
	if d.cur == nil || d.broken {
		return false, false
	}
	info := d.segs[d.curID]
	if info.bytes > 0 && info.bytes+int64(len(frame)) > d.segmentBytes {
		if err := d.rotate(); err != nil {
			d.broken = true
			return false, false
		}
		rotated = true
		info = d.segs[d.curID]
	}
	if _, err := d.cur.Write(frame); err != nil {
		d.broken = true
		return rotated, false
	}
	if old, exists := d.index[k]; exists {
		d.segs[old.seg].live -= int64(old.len) // shadowed
	}
	d.index[k] = loc{seg: d.curID, off: info.bytes, len: len(frame)}
	info.bytes += int64(len(frame))
	info.live += int64(len(frame))
	return rotated, true
}

func (d *diskTier) rotate() error {
	if err := d.cur.Close(); err != nil {
		return err
	}
	d.curID++
	f, err := os.OpenFile(segmentPath(d.dir, d.curID), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		d.cur = nil
		return err
	}
	d.cur = f
	d.segs[d.curID] = &segInfo{}
	return nil
}

// setGC installs the GC configuration and runs an immediate pass, so a
// reopened store ages out rows orphaned by a version bump right away.
func (d *diskTier) setGC(cfg GCConfig) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.maxBytes = cfg.MaxBytes
	switch {
	case cfg.LiveRatio < 0:
		d.liveRatio = 0
	case cfg.LiveRatio == 0:
		d.liveRatio = defaultLiveRatio
	default:
		d.liveRatio = cfg.LiveRatio
	}
	d.retain = cfg.Retain
	if cfg.SegmentBytes > 0 {
		d.segmentBytes = cfg.SegmentBytes
	}
	d.gcLocked()
}

// compact forces a GC pass now (Store.CompactDisk).
func (d *diskTier) compact() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gcLocked()
}

// gcLocked is one garbage-collection pass over the sealed segments:
// (1) drop index entries failing the retain filter, (2) rewrite sealed
// segments below the live-ratio threshold into the active segment and
// delete them, (3) enforce the total byte bound by dropping whole
// oldest segments. The caller holds d.mu.
func (d *diskTier) gcLocked() {
	if d.cur == nil || d.broken {
		return
	}
	worked := false

	// (1) Age out records no future Get can want (orphaned versions).
	if d.retain != nil {
		for k, l := range d.index {
			if !d.retain(k.ns, k.key) {
				d.segs[l.seg].live -= int64(l.len)
				delete(d.index, k)
				d.recsCollected++
			}
		}
	}

	// (2) Compact sealed segments whose live ratio dropped below the
	// threshold. Keys are grouped per segment in one index scan; the
	// live records are verified and re-appended to the active (always
	// higher-numbered) segment, so even a crash between the copy and
	// the delete reindexes correctly — the copies shadow the originals.
	// A record that fails verification is dropped, not copied forward.
	if d.liveRatio > 0 {
		victims := make(map[int][]memKey)
		for k, l := range d.index {
			if l.seg != d.curID {
				victims[l.seg] = append(victims[l.seg], k)
			}
		}
		ids := make([]int, 0, len(d.segs))
		for id := range d.segs {
			if id != d.curID {
				ids = append(ids, id)
			}
		}
		sort.Ints(ids)
		for _, id := range ids {
			info := d.segs[id]
			if float64(info.live) >= d.liveRatio*float64(info.bytes) {
				continue
			}
			ok := true
			if keys := victims[id]; len(keys) > 0 {
				f, err := os.Open(segmentPath(d.dir, id))
				if err != nil {
					continue
				}
				for _, k := range keys {
					l := d.index[k]
					frame := make([]byte, l.len)
					if _, err := f.ReadAt(frame, l.off); err != nil {
						ok = false
						break
					}
					if _, valid := frameValue(frame, k.ns, k.key); !valid {
						d.dropCorruptLocked(k, l)
						continue
					}
					if _, wok := d.appendLocked(k, frame); !wok {
						ok = false
						break
					}
				}
				f.Close()
			}
			if !ok {
				continue // keep the segment; a later pass retries
			}
			os.Remove(segmentPath(d.dir, id))
			delete(d.segs, id)
			d.segCompacted++
			worked = true
		}
	}

	// (3) Enforce the byte bound: drop whole oldest sealed segments.
	if d.maxBytes > 0 {
		for d.totalBytesLocked() > d.maxBytes {
			oldest := -1
			for id := range d.segs {
				if id != d.curID && (oldest < 0 || id < oldest) {
					oldest = id
				}
			}
			if oldest < 0 {
				break // only the active segment remains; rotation bounds it
			}
			for k, l := range d.index {
				if l.seg == oldest {
					delete(d.index, k)
					d.recsCollected++
				}
			}
			os.Remove(segmentPath(d.dir, oldest))
			delete(d.segs, oldest)
			d.segDropped++
			worked = true
		}
	}
	if worked {
		d.compactions++
	}
}

func (d *diskTier) totalBytesLocked() int64 {
	var total int64
	for _, info := range d.segs {
		total += info.bytes
	}
	return total
}

func (d *diskTier) stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	var live int64
	for _, info := range d.segs {
		live += info.live
	}
	return DiskStats{
		Segments:          len(d.segs),
		Bytes:             d.totalBytesLocked(),
		LiveBytes:         live,
		Entries:           len(d.index),
		Reindexed:         d.reindexed,
		Compactions:       d.compactions,
		SegmentsCompacted: d.segCompacted,
		SegmentsDropped:   d.segDropped,
		RecordsCollected:  d.recsCollected,
		CorruptRecords:    d.corrupt,
	}
}

func (d *diskTier) close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cur == nil {
		return nil
	}
	err := d.cur.Close()
	d.cur = nil
	return err
}
