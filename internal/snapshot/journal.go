package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"road/internal/core"
	"road/internal/graph"
)

// JournalMagic identifies a ROAD write-ahead journal file.
var JournalMagic = [8]byte{'R', 'O', 'A', 'D', 'J', 'R', 'N', 'L'}

// JournalVersion is the current journal format version.
const JournalVersion = 1

// OpKind enumerates the maintenance operations the journal records — the
// full mutation surface of the framework (§5.1 object updates, §5.2
// network updates).
type OpKind uint8

const (
	// OpSetDistance re-weights an edge (Value = new distance).
	OpSetDistance OpKind = 1
	// OpClose removes an edge (road closure).
	OpClose OpKind = 2
	// OpReopen restores a previously closed edge.
	OpReopen OpKind = 3
	// OpAddRoad inserts a new edge U–V (Value = distance).
	OpAddRoad OpKind = 4
	// OpInsertObject places an object on Edge (Value = offset from U).
	OpInsertObject OpKind = 5
	// OpDeleteObject removes Object.
	OpDeleteObject OpKind = 6
	// OpSetObjectAttr changes Object's attribute to Attr.
	OpSetObjectAttr OpKind = 7
)

// String names the op for logs and errors.
func (k OpKind) String() string {
	switch k {
	case OpSetDistance:
		return "set-distance"
	case OpClose:
		return "close"
	case OpReopen:
		return "reopen"
	case OpAddRoad:
		return "add-road"
	case OpInsertObject:
		return "insert-object"
	case OpDeleteObject:
		return "delete-object"
	case OpSetObjectAttr:
		return "set-attr"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one journaled maintenance operation. Unused fields are zero.
type Op struct {
	Kind   OpKind
	Edge   graph.EdgeID
	U, V   graph.NodeID
	Object graph.ObjectID
	Attr   int32
	// Value carries the op's scalar: distance for OpSetDistance/OpAddRoad,
	// offset for OpInsertObject.
	Value float64
}

// entrySize is the fixed on-disk size of one journal entry:
// seq(8) + kind(1) + edge(4) + u(4) + v(4) + object(4) + attr(4) +
// value(8) + crc(4).
const entrySize = 8 + 1 + 4 + 4 + 4 + 4 + 4 + 8 + 4

// journalHeaderSize is magic(8) + version(4) + base stamp: the sequence
// number (8) and state fingerprint (8) of the base state the journal was
// first attached to. Zeros until stamped (see BindBase).
const journalHeaderSize = 8 + 4 + 8 + 8

// Journal is an append-only write-ahead log of maintenance operations.
// Each op is appended — and optionally fsynced — BEFORE it is applied to
// the framework, so a crash mid-apply is recovered by replaying the entry
// on top of the last snapshot (ops are deterministic, and re-applying an
// op that failed live fails identically, converging to the same state).
// Entries carry a strictly increasing sequence number; a snapshot records
// the highest sequence it includes, and replay skips entries at or below
// that watermark.
//
// Append is safe for one writer at a time (the stores append under their
// own write locks); the internal mutex additionally guards against
// misuse.
type Journal struct {
	// SyncEachAppend fsyncs after every append, making the journal
	// durable against machine crashes, not just process crashes, at a
	// per-op latency cost. Off by default.
	SyncEachAppend bool

	mu      sync.Mutex
	f       *os.File
	path    string
	lastSeq uint64
	size    int64

	// stampSeq/stampFP bind the journal to the base state it was first
	// attached to (stampFP == 0 means unstamped). Replay over a base at
	// exactly stampSeq verifies the fingerprint, turning a journal paired
	// with the wrong build or snapshot into a descriptive error instead
	// of silently mutating the wrong roads.
	stampSeq uint64
	stampFP  uint64
}

// OpenJournal opens (or creates) the journal at path, validates its
// header, scans existing entries to find the last sequence number, and
// truncates a torn tail entry left by a crash mid-append.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, path: path}
	if err := j.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// recover validates the header (writing a fresh one into an empty file)
// and scans entries, truncating after the last intact one.
func (j *Journal) recover() error {
	info, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if info.Size() == 0 {
		var header [journalHeaderSize]byte
		copy(header[:], JournalMagic[:])
		binary.LittleEndian.PutUint32(header[8:], JournalVersion)
		// Base stamp stays zero until BindBase.
		if _, err := j.f.Write(header[:]); err != nil {
			return fmt.Errorf("journal: writing header: %w", err)
		}
		j.size = journalHeaderSize
		return nil
	}
	var header [journalHeaderSize]byte
	if _, err := io.ReadFull(io.NewSectionReader(j.f, 0, journalHeaderSize), header[:]); err != nil {
		return fmt.Errorf("journal: truncated header: %w", err)
	}
	if [8]byte(header[:8]) != JournalMagic {
		return fmt.Errorf("journal: bad magic %q: not a ROAD journal", header[:8])
	}
	if v := binary.LittleEndian.Uint32(header[8:]); v == 0 || v > JournalVersion {
		return fmt.Errorf("journal: format version %d not supported (this build reads ≤ %d)", v, JournalVersion)
	}
	j.stampSeq = binary.LittleEndian.Uint64(header[12:])
	j.stampFP = binary.LittleEndian.Uint64(header[20:])
	offset := int64(journalHeaderSize)
	var buf [entrySize]byte
	for {
		if _, err := j.f.ReadAt(buf[:], offset); err != nil {
			break // clean EOF or a partial final record
		}
		seq, _, ok := decodeEntry(buf[:])
		if !ok || seq <= j.lastSeq {
			// A crash mid-append can only damage the FINAL record. A bad or
			// out-of-order entry with further entries behind it is mid-file
			// corruption: truncating would silently discard committed
			// (possibly fsynced) ops, so refuse to open instead.
			if info.Size()-offset > entrySize {
				return fmt.Errorf("journal: corrupt entry at offset %d with %d bytes after it (not a torn tail); refusing to open",
					offset, info.Size()-offset-entrySize)
			}
			break // torn tail: drop the damaged final record
		}
		j.lastSeq = seq
		offset += entrySize
	}
	if offset < info.Size() {
		if err := j.f.Truncate(offset); err != nil {
			return fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	j.size = offset
	return nil
}

// LastSeq returns the sequence number of the most recent entry (0 when
// the journal is empty).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastSeq
}

// Size returns the journal file's current size in bytes (header
// included). roadd's -journal-max-bytes auto-snapshot trigger polls it.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Rotate compacts the journal after a successful snapshot save: entries
// with sequence numbers at or below upTo — all included in the snapshot —
// are dropped, and the journal is re-stamped so a later replay refuses
// any base state older than upTo (those ops are gone). The rewrite is
// crash-safe: a fresh journal is assembled in a temp file and atomically
// renamed over the old one.
//
// f must be the framework the journal is attached to, in its current
// state. When the rotation drops every entry (upTo == LastSeq(), the
// normal snapshot-then-rotate flow under one write lock), the new base
// stamp carries f's fingerprint; when entries survive, the at-upTo state
// no longer exists to fingerprint, so only the watermark guard is kept.
func (j *Journal) Rotate(f *core.Framework, upTo uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if upTo > j.lastSeq {
		return fmt.Errorf("journal: rotate watermark %d beyond last sequence %d", upTo, j.lastSeq)
	}
	if j.path == "" {
		return fmt.Errorf("journal: not file-backed")
	}

	var fp uint64
	if upTo == j.lastSeq {
		fp = Fingerprint(f)
	}
	var header [journalHeaderSize]byte
	copy(header[:], JournalMagic[:])
	binary.LittleEndian.PutUint32(header[8:], JournalVersion)
	binary.LittleEndian.PutUint64(header[12:], upTo)
	binary.LittleEndian.PutUint64(header[20:], fp)

	tmpPath := j.path + ".rotate"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rotating: %w", err)
	}
	cleanup := func() { tmp.Close(); os.Remove(tmpPath) }
	if _, err := tmp.Write(header[:]); err != nil {
		cleanup()
		return fmt.Errorf("journal: rotating: %w", err)
	}
	// Copy surviving entries (seq > upTo) verbatim.
	kept := int64(0)
	var buf [entrySize]byte
	for offset := int64(journalHeaderSize); offset+entrySize <= j.size; offset += entrySize {
		if _, err := j.f.ReadAt(buf[:], offset); err != nil {
			cleanup()
			return fmt.Errorf("journal: rotating: reading entry at %d: %w", offset, err)
		}
		seq, _, ok := decodeEntry(buf[:])
		if !ok {
			cleanup()
			return fmt.Errorf("journal: rotating: corrupt entry at offset %d", offset)
		}
		if seq <= upTo {
			continue
		}
		if _, err := tmp.Write(buf[:]); err != nil {
			cleanup()
			return fmt.Errorf("journal: rotating: %w", err)
		}
		kept++
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("journal: rotating: %w", err)
	}
	if err := os.Rename(tmpPath, j.path); err != nil {
		cleanup()
		return fmt.Errorf("journal: rotating: %w", err)
	}
	// Keep writing through the already-open tmp handle: after the rename
	// it IS the file at j.path (same inode), so there is no reopen that
	// could fail and leave the journal appending to an unlinked file.
	j.f.Close()
	j.f = tmp
	j.size = journalHeaderSize + kept*entrySize
	j.stampSeq = upTo
	j.stampFP = fp
	// lastSeq is unchanged: the sequence space keeps counting forward.
	return nil
}

// Entries iterates the journal's intact entries with sequence numbers
// greater than afterSeq, in order, invoking fn for each. A non-nil error
// from fn aborts the iteration and is returned verbatim; read or
// corruption errors abort with a descriptive error. Unlike Replay it
// applies nothing and performs no base-stamp validation — callers that
// replay through their own apply path (the sharded router) must run
// CheckBase first.
func (j *Journal) Entries(afterSeq uint64, fn func(seq uint64, op Op) error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var buf [entrySize]byte
	for offset := int64(journalHeaderSize); offset+entrySize <= j.size; offset += entrySize {
		if _, err := j.f.ReadAt(buf[:], offset); err != nil {
			return fmt.Errorf("journal: reading entry at %d: %w", offset, err)
		}
		seq, op, ok := decodeEntry(buf[:])
		if !ok {
			return fmt.Errorf("journal: corrupt entry at offset %d", offset)
		}
		if seq <= afterSeq {
			continue
		}
		if err := fn(seq, op); err != nil {
			return err
		}
	}
	return nil
}

// CheckBase validates that a base state (watermark afterSeq, framework f)
// is a legal replay target for this journal — the same guard Replay runs
// internally, exposed for callers that iterate with Entries.
func (j *Journal) CheckBase(f *core.Framework, afterSeq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkBaseLocked(f, afterSeq)
}

func (j *Journal) checkBaseLocked(f *core.Framework, afterSeq uint64) error {
	if j.stampSeq == 0 && j.stampFP == 0 {
		return nil // never stamped
	}
	// A base OLDER than the journal's stamped watermark is missing the
	// ops 1..stampSeq that lived before this journal existed (rotated
	// away, or recorded before the journal was created) — replaying the
	// tail onto it would produce silently wrong roads.
	if afterSeq < j.stampSeq {
		return fmt.Errorf("journal: base state watermark %d predates the journal's base %d: the ops in between are not in this journal (rotated away?)", afterSeq, j.stampSeq)
	}
	if afterSeq == j.stampSeq && j.stampFP != 0 {
		if fp := Fingerprint(f); fp != j.stampFP {
			return fmt.Errorf("journal: base state fingerprint %016x does not match the journal's %016x (journal was recorded against a different build or snapshot)", fp, j.stampFP)
		}
	}
	return nil
}

// Fingerprint computes a cheap identity of the framework's current
// state: graph shape, a topology/weight sample, object ID watermark and
// epoch. Two states with different builds (other flags, seeds, datasets)
// fingerprint differently; the same state restored from a snapshot
// fingerprints identically. Never returns 0 (0 marks "unstamped").
func Fingerprint(f *core.Framework) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= prime64
			v >>= 8
		}
	}
	g := f.Graph()
	mix(uint64(g.NumNodes()))
	mix(uint64(g.NumEdges()))
	mix(uint64(f.Objects().NextID()))
	mix(f.Epoch())
	for e := 0; e < g.NumEdges() && e < 64; e++ {
		ed := g.Edge(graph.EdgeID(e))
		mix(uint64(uint32(ed.U))<<32 | uint64(uint32(ed.V)))
		mix(math.Float64bits(ed.Weight))
	}
	if h == 0 {
		h = 1
	}
	return h
}

// BindBase stamps an empty, unstamped journal with the identity of the
// base state it is being attached to: the watermark sequence and the
// state fingerprint. Already-stamped or non-empty journals are left
// untouched (their binding happened when they were first used).
func (j *Journal) BindBase(f *core.Framework, baseSeq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.stampFP != 0 || j.size > journalHeaderSize {
		return nil
	}
	var stamp [16]byte
	fp := Fingerprint(f)
	binary.LittleEndian.PutUint64(stamp[:], baseSeq)
	binary.LittleEndian.PutUint64(stamp[8:], fp)
	if _, err := j.f.WriteAt(stamp[:], 12); err != nil {
		return fmt.Errorf("journal: stamping base: %w", err)
	}
	j.stampSeq = baseSeq
	j.stampFP = fp
	return nil
}

// EnsureSeq fast-forwards the sequence counter to at least seq, without
// writing anything. A DB whose state already includes journal sequence N
// (from a loaded snapshot) must attach a fresh or rotated journal with
// EnsureSeq(N), so new appends land at N+1 and a later replay-after-N
// does not skip them.
func (j *Journal) EnsureSeq(seq uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq > j.lastSeq {
		j.lastSeq = seq
	}
}

// Append writes op as the next entry and returns its sequence number.
// Call it BEFORE applying the op (write-ahead ordering).
func (j *Journal) Append(op Op) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	seq := j.lastSeq + 1
	buf := encodeEntry(seq, op)
	if _, err := j.f.WriteAt(buf, j.size); err != nil {
		return 0, fmt.Errorf("journal: appending op %s: %w", op.Kind, err)
	}
	if j.SyncEachAppend {
		if err := j.f.Sync(); err != nil {
			return 0, fmt.Errorf("journal: syncing: %w", err)
		}
	}
	j.lastSeq = seq
	j.size += entrySize
	return seq, nil
}

// Sync flushes buffered journal writes to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Sync()
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// OpError reports a journal entry whose application failed during
// replay. It is EXPECTED, not fatal: an op that failed when first
// executed fails identically on replay (ops are deterministic), leaving
// the same state behind. Callers distinguish it from fatal replay errors
// (unreadable file, corrupt entry — the journal could not be fully
// processed) with errors.As.
type OpError struct {
	Seq uint64
	Op  Op
	Err error
}

func (e *OpError) Error() string {
	return fmt.Sprintf("journal: replaying seq %d (%s): %v", e.Seq, e.Op.Kind, e.Err)
}

func (e *OpError) Unwrap() error { return e.Err }

// Replay applies every entry with sequence number greater than afterSeq
// to f, in order, and returns how many were applied. A non-nil error is
// either a *OpError (the last expected per-op failure; replay completed)
// or a fatal read/corruption error (replay aborted mid-journal — the
// framework is missing the remaining ops and must not serve).
func (j *Journal) Replay(f *core.Framework, afterSeq uint64) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Guard the base pairing: the base must not predate the journal's
	// stamp (rotation discards older ops), and a base exactly AT the
	// stamp must fingerprint-match the state the journal was bound to.
	if err := j.checkBaseLocked(f, afterSeq); err != nil {
		return 0, err
	}
	applied := 0
	var lastOpErr error
	offset := int64(journalHeaderSize)
	var buf [entrySize]byte
	for offset+entrySize <= j.size {
		if _, err := j.f.ReadAt(buf[:], offset); err != nil {
			return applied, fmt.Errorf("journal: reading entry at %d: %w", offset, err)
		}
		offset += entrySize
		seq, op, ok := decodeEntry(buf[:])
		if !ok {
			return applied, fmt.Errorf("journal: corrupt entry at offset %d", offset-entrySize)
		}
		if seq <= afterSeq {
			continue
		}
		if err := ApplyOp(f, op); err != nil {
			lastOpErr = &OpError{Seq: seq, Op: op, Err: err}
			continue
		}
		applied++
	}
	return applied, lastOpErr
}

// ErrUnknownOp reports a journal entry whose kind this build cannot apply.
var ErrUnknownOp = errors.New("journal: unknown op kind")

// ApplyOp executes one journaled operation against the framework, through
// the exact same entry points live maintenance uses. IDs are bounds-
// checked first: the graph layer indexes dense arrays and would panic on
// an edge ID from a journal paired with the wrong (smaller) base state,
// and replay promises descriptive errors, never panics.
func ApplyOp(f *core.Framework, op Op) error {
	checkEdge := func(e graph.EdgeID) error {
		if e < 0 || int(e) >= f.Graph().NumEdges() {
			return fmt.Errorf("edge %d outside base state (%d edges): journal does not match this snapshot/build", e, f.Graph().NumEdges())
		}
		return nil
	}
	switch op.Kind {
	case OpSetDistance:
		if err := checkEdge(op.Edge); err != nil {
			return err
		}
		_, err := f.SetEdgeWeight(op.Edge, op.Value)
		return err
	case OpClose:
		if err := checkEdge(op.Edge); err != nil {
			return err
		}
		_, err := f.DeleteEdge(op.Edge)
		return err
	case OpReopen:
		if err := checkEdge(op.Edge); err != nil {
			return err
		}
		_, err := f.RestoreEdge(op.Edge)
		return err
	case OpAddRoad:
		_, _, err := f.AddEdge(op.U, op.V, op.Value)
		return err
	case OpInsertObject:
		if err := checkEdge(op.Edge); err != nil {
			return err
		}
		_, err := f.InsertObject(op.Edge, op.Value, op.Attr)
		return err
	case OpDeleteObject:
		return f.DeleteObject(op.Object)
	case OpSetObjectAttr:
		return f.UpdateObjectAttr(op.Object, op.Attr)
	}
	return fmt.Errorf("%w: %d", ErrUnknownOp, op.Kind)
}

// encodeEntry serializes one entry with its trailing CRC.
func encodeEntry(seq uint64, op Op) []byte {
	buf := make([]byte, entrySize)
	binary.LittleEndian.PutUint64(buf[0:], seq)
	buf[8] = byte(op.Kind)
	binary.LittleEndian.PutUint32(buf[9:], uint32(op.Edge))
	binary.LittleEndian.PutUint32(buf[13:], uint32(op.U))
	binary.LittleEndian.PutUint32(buf[17:], uint32(op.V))
	binary.LittleEndian.PutUint32(buf[21:], uint32(op.Object))
	binary.LittleEndian.PutUint32(buf[25:], uint32(op.Attr))
	binary.LittleEndian.PutUint64(buf[29:], math.Float64bits(op.Value))
	crc := crc32.Checksum(buf[:entrySize-4], crcTable)
	binary.LittleEndian.PutUint32(buf[entrySize-4:], crc)
	return buf
}

// decodeEntry parses one entry, reporting ok=false on checksum mismatch
// or an unknown op kind.
func decodeEntry(buf []byte) (uint64, Op, bool) {
	crc := binary.LittleEndian.Uint32(buf[entrySize-4:])
	if crc32.Checksum(buf[:entrySize-4], crcTable) != crc {
		return 0, Op{}, false
	}
	seq := binary.LittleEndian.Uint64(buf[0:])
	op := Op{
		Kind:   OpKind(buf[8]),
		Edge:   graph.EdgeID(binary.LittleEndian.Uint32(buf[9:])),
		U:      graph.NodeID(binary.LittleEndian.Uint32(buf[13:])),
		V:      graph.NodeID(binary.LittleEndian.Uint32(buf[17:])),
		Object: graph.ObjectID(binary.LittleEndian.Uint32(buf[21:])),
		Attr:   int32(binary.LittleEndian.Uint32(buf[25:])),
		Value:  math.Float64frombits(binary.LittleEndian.Uint64(buf[29:])),
	}
	if op.Kind < OpSetDistance || op.Kind > OpSetObjectAttr {
		return 0, Op{}, false
	}
	return seq, op, true
}
