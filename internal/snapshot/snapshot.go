// Package snapshot persists a built ROAD index to disk and reopens it
// without rebuilding. It defines a versioned, checksummed binary snapshot
// format (see FORMAT.md) holding the graph, the Rnet hierarchy with its
// shortcuts and build-time leaf assignments, the object set, and the
// Association Directory — plus a write-ahead journal of maintenance
// operations (journal.go) that is appended before each mutation is applied
// and replayed on top of a loaded snapshot to recover post-snapshot state.
//
// Restart cost drops from O(index build) — partitioning, hierarchical
// shortcut computation, directory construction, the paper's
// index-construction metric — to O(load): a sequential read plus
// checksum verification and reassembly of derived structures.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"road/internal/core"
	"road/internal/geom"
	"road/internal/graph"
	"road/internal/rnet"
	"road/internal/storage"
)

// Magic identifies a ROAD snapshot file.
var Magic = [8]byte{'R', 'O', 'A', 'D', 'S', 'N', 'A', 'P'}

// FormatVersion is the current snapshot format version. Load rejects
// snapshots written by a newer version; older versions are migrated
// per-section as the format evolves (none exist yet).
const FormatVersion = 1

// Section tags, in required file order.
var (
	tagMeta      = [4]byte{'M', 'E', 'T', 'A'}
	tagGraph     = [4]byte{'G', 'R', 'P', 'H'}
	tagObjects   = [4]byte{'O', 'B', 'J', 'S'}
	tagHierarchy = [4]byte{'R', 'N', 'E', 'T'}
	tagShortcuts = [4]byte{'S', 'H', 'C', 'T'}
	tagDirectory = [4]byte{'A', 'D', 'I', 'R'}
	tagPageLayts = [4]byte{'P', 'G', 'L', 'Y'}
)

var sectionOrder = [][4]byte{tagMeta, tagGraph, tagObjects, tagHierarchy, tagShortcuts, tagDirectory, tagPageLayts}

// maxSections bounds the section table so corrupt counts cannot trigger
// huge allocations.
const maxSections = 64

var crcTable = crc32.IEEETable

// Save serializes the framework and the journal watermark it includes
// (the last applied journal sequence number, 0 when no journal is in use)
// to w. The caller must exclude concurrent mutations — roadd snapshots
// inside the store's Exclusive so the image is epoch-consistent.
func Save(f *core.Framework, lastSeq uint64, w io.Writer) error {
	sections := make([][]byte, len(sectionOrder))
	sections[0] = encodeMeta(f, lastSeq)
	sections[1] = encodeGraph(f.Graph())
	sections[2] = encodeObjects(f.Objects())
	hs := f.Hierarchy().ExportState()
	sections[3] = encodeHierarchy(hs)
	sections[4] = encodeShortcuts(hs)
	sections[5] = encodeDirectory(f.Directory().ExportState())
	sections[6] = encodePageLayouts(f)

	var header bytes.Buffer
	header.Write(Magic[:])
	writeU32(&header, FormatVersion)
	writeU32(&header, uint32(len(sections)))
	for i, payload := range sections {
		header.Write(sectionOrder[i][:])
		writeU64(&header, uint64(len(payload)))
		writeU32(&header, crc32.Checksum(payload, crcTable))
	}
	writeU32(&header, crc32.Checksum(header.Bytes(), crcTable))

	if _, err := w.Write(header.Bytes()); err != nil {
		return fmt.Errorf("snapshot: writing header: %w", err)
	}
	for i, payload := range sections {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("snapshot: writing section %s: %w", sectionOrder[i], err)
		}
	}
	return nil
}

// SaveFile atomically writes a snapshot to path: the image lands in a
// temporary file in the same directory and is renamed into place, so a
// crash mid-save never clobbers the previous snapshot.
func SaveFile(f *core.Framework, lastSeq uint64, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".roadsnap-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := Save(f, lastSeq, tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Load reads a snapshot and reassembles a live Framework, returning the
// journal sequence watermark recorded at save time. Any corruption —
// truncation, bit flips, a foreign file, a future format version — yields
// a descriptive error, never a panic.
func Load(r io.Reader) (*core.Framework, uint64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, fmt.Errorf("snapshot: reading: %w", err)
	}
	return loadBytes(data)
}

// LoadFile loads a snapshot from path in one stat-sized read, with no
// second copy of the image.
func LoadFile(path string) (*core.Framework, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("snapshot: %w", err)
	}
	return loadBytes(data)
}

// loadBytes parses and reassembles a snapshot already in memory.
// Derived search state is deliberately NOT part of the image: core.Restore
// rebuilds the CSR slabs from the restored hierarchy, so the format is
// indifferent to hot-path representation changes.
func loadBytes(data []byte) (*core.Framework, uint64, error) {
	sections, err := parseContainer(data)
	if err != nil {
		return nil, 0, err
	}

	meta, err := decodeMeta(sections[0])
	if err != nil {
		return nil, 0, err
	}
	g, err := decodeGraph(sections[1])
	if err != nil {
		return nil, 0, err
	}
	objects, err := decodeObjects(sections[2], g)
	if err != nil {
		return nil, 0, err
	}
	hs, err := decodeHierarchy(sections[3])
	if err != nil {
		return nil, 0, err
	}
	if err := decodeShortcuts(sections[4], hs); err != nil {
		return nil, 0, err
	}
	h, err := rnet.ImportHierarchy(g, hs)
	if err != nil {
		return nil, 0, fmt.Errorf("snapshot: %w", err)
	}
	dir, err := decodeDirectory(sections[5])
	if err != nil {
		return nil, 0, err
	}
	order, allocated, roLayout, adLayout, err := decodePageLayouts(sections[6])
	if err != nil {
		return nil, 0, err
	}
	f, err := core.Restore(core.RestoreSpec{
		Graph:          g,
		Objects:        objects,
		Hierarchy:      h,
		Dir:            dir,
		BufferPages:    meta.bufferPages,
		StoreAllocated: allocated,
		OverlayLayout:  roLayout,
		DirLayout:      adLayout,
		OverlayOrder:   order,
		Epoch:          meta.epoch,
		BuildTime:      time.Duration(meta.buildTimeNS),
	})
	if err != nil {
		return nil, 0, fmt.Errorf("snapshot: %w", err)
	}
	return f, meta.lastSeq, nil
}

// parseContainer validates magic, version, section table and checksums,
// returning the six section payloads in canonical order.
func parseContainer(data []byte) ([][]byte, error) {
	headFixed := len(Magic) + 4 + 4
	if len(data) < headFixed {
		return nil, fmt.Errorf("snapshot: truncated header (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:len(Magic)], Magic[:]) {
		return nil, fmt.Errorf("snapshot: bad magic %q: not a ROAD snapshot", data[:len(Magic)])
	}
	version := binary.LittleEndian.Uint32(data[len(Magic):])
	if version == 0 || version > FormatVersion {
		return nil, fmt.Errorf("snapshot: format version %d not supported (this build reads ≤ %d)", version, FormatVersion)
	}
	count := binary.LittleEndian.Uint32(data[len(Magic)+4:])
	if count == 0 || count > maxSections {
		return nil, fmt.Errorf("snapshot: implausible section count %d", count)
	}
	if int(count) != len(sectionOrder) {
		return nil, fmt.Errorf("snapshot: %d sections, format v%d requires %d", count, version, len(sectionOrder))
	}
	const entrySize = 4 + 8 + 4
	tableEnd := headFixed + int(count)*entrySize
	if len(data) < tableEnd+4 {
		return nil, fmt.Errorf("snapshot: truncated section table")
	}
	gotCRC := binary.LittleEndian.Uint32(data[tableEnd:])
	if want := crc32.Checksum(data[:tableEnd], crcTable); gotCRC != want {
		return nil, fmt.Errorf("snapshot: header checksum mismatch (file %08x, computed %08x)", gotCRC, want)
	}

	sections := make([][]byte, count)
	offset := tableEnd + 4
	for i := 0; i < int(count); i++ {
		entry := data[headFixed+i*entrySize:]
		var tag [4]byte
		copy(tag[:], entry[:4])
		if tag != sectionOrder[i] {
			return nil, fmt.Errorf("snapshot: section %d is %q, want %q", i, tag, sectionOrder[i])
		}
		length := binary.LittleEndian.Uint64(entry[4:])
		crc := binary.LittleEndian.Uint32(entry[12:])
		if length > uint64(len(data)-offset) {
			return nil, fmt.Errorf("snapshot: section %q truncated: need %d bytes, %d remain", tag, length, len(data)-offset)
		}
		payload := data[offset : offset+int(length)]
		if got := crc32.Checksum(payload, crcTable); got != crc {
			return nil, fmt.Errorf("snapshot: section %q checksum mismatch (file %08x, computed %08x)", tag, crc, got)
		}
		sections[i] = payload
		offset += int(length)
	}
	if offset != len(data) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after last section", len(data)-offset)
	}
	return sections, nil
}

// --- META section ---

type metaState struct {
	epoch       uint64
	lastSeq     uint64
	buildTimeNS int64
	bufferPages int
}

func encodeMeta(f *core.Framework, lastSeq uint64) []byte {
	var b bytes.Buffer
	writeU64(&b, f.Epoch())
	writeU64(&b, lastSeq)
	writeU64(&b, uint64(f.BuildTime.Nanoseconds()))
	writeI32(&b, int32(f.BufferPages()))
	return b.Bytes()
}

func decodeMeta(payload []byte) (metaState, error) {
	d := newDecoder("META", payload)
	var m metaState
	m.epoch = d.u64()
	m.lastSeq = d.u64()
	m.buildTimeNS = int64(d.u64())
	m.bufferPages = int(d.i32())
	if err := d.finish(); err != nil {
		return metaState{}, err
	}
	return m, nil
}

// --- GRPH section ---

func encodeGraph(g *graph.Graph) []byte {
	var b bytes.Buffer
	writeU32(&b, uint32(g.NumNodes()))
	for n := 0; n < g.NumNodes(); n++ {
		p := g.Coord(graph.NodeID(n))
		writeF64(&b, p.X)
		writeF64(&b, p.Y)
	}
	writeU32(&b, uint32(g.NumEdges()))
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		writeI32(&b, ed.U)
		writeI32(&b, ed.V)
		writeF64(&b, ed.Weight)
		if ed.Removed {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
	}
	return b.Bytes()
}

func decodeGraph(payload []byte) (*graph.Graph, error) {
	d := newDecoder("GRPH", payload)
	numNodes := d.count(16)
	g := graph.New(numNodes, 0)
	for i := 0; i < numNodes; i++ {
		g.AddNode(geom.Point{X: d.f64(), Y: d.f64()})
	}
	// Edge count arrives after the node block; graph capacity for it is a
	// hint only, so sizing it late is fine.
	numEdges := d.count(17)
	g.ReserveEdges(numEdges)
	var removed []graph.EdgeID
	for i := 0; i < numEdges; i++ {
		u, v := d.i32(), d.i32()
		w := d.f64()
		isRemoved := d.u8() != 0
		if d.err != nil {
			break
		}
		id, err := g.AddEdge(u, v, w)
		if err != nil {
			return nil, fmt.Errorf("snapshot: GRPH: edge %d: %w", i, err)
		}
		if int(id) != i {
			return nil, fmt.Errorf("snapshot: GRPH: edge %d assigned ID %d", i, id)
		}
		if isRemoved {
			removed = append(removed, id)
		}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	for _, e := range removed {
		if err := g.RemoveEdge(e); err != nil {
			return nil, fmt.Errorf("snapshot: GRPH: %w", err)
		}
	}
	return g, nil
}

// --- OBJS section ---

func encodeObjects(set *graph.ObjectSet) []byte {
	var b bytes.Buffer
	writeI32(&b, set.NextID())
	objs := set.All()
	writeU32(&b, uint32(len(objs)))
	for _, o := range objs {
		writeI32(&b, o.ID)
		writeI32(&b, o.Edge)
		writeF64(&b, o.DU)
		writeF64(&b, o.DV)
		writeI32(&b, o.Attr)
	}
	return b.Bytes()
}

func decodeObjects(payload []byte, g *graph.Graph) (*graph.ObjectSet, error) {
	d := newDecoder("OBJS", payload)
	nextID := d.i32()
	count := d.count(28)
	set := graph.NewObjectSet(g)
	for i := 0; i < count; i++ {
		o := graph.Object{ID: d.i32(), Edge: d.i32(), DU: d.f64(), DV: d.f64(), Attr: d.i32()}
		if d.err != nil {
			break
		}
		if err := set.RestoreObject(o); err != nil {
			return nil, fmt.Errorf("snapshot: OBJS: %w", err)
		}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	if nextID < set.NextID() {
		return nil, fmt.Errorf("snapshot: OBJS: stored next ID %d below restored objects", nextID)
	}
	set.SetNextID(nextID)
	return set, nil
}

// --- RNET section ---

func encodeHierarchy(hs *rnet.HierarchyState) []byte {
	var b bytes.Buffer
	cfg := hs.Config
	writeI32(&b, int32(cfg.Fanout))
	writeI32(&b, int32(cfg.Levels))
	writeI32(&b, int32(cfg.KLPasses))
	writeU64(&b, uint64(cfg.Seed))
	if cfg.StorePaths {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
	writeI32(&b, int32(cfg.PruneMaxBorders))
	writeU32(&b, uint32(len(hs.Rnets)))
	for i := range hs.Rnets {
		r := &hs.Rnets[i]
		writeI32(&b, int32(r.Level))
		writeI32(&b, r.Parent)
		writeU32(&b, uint32(len(r.Children)))
		for _, c := range r.Children {
			writeI32(&b, c)
		}
		writeU32(&b, uint32(len(r.Borders)))
		for _, n := range r.Borders {
			writeI32(&b, n)
		}
		writeU32(&b, uint32(len(r.Edges)))
		for _, e := range r.Edges {
			writeI32(&b, e)
		}
	}
	writeU32(&b, uint32(len(hs.LeafOf)))
	for _, r := range hs.LeafOf {
		writeI32(&b, r)
	}
	writeU32(&b, uint32(len(hs.OriginLeaf)))
	for _, r := range hs.OriginLeaf {
		writeI32(&b, r)
	}
	return b.Bytes()
}

func decodeHierarchy(payload []byte) (*rnet.HierarchyState, error) {
	d := newDecoder("RNET", payload)
	hs := &rnet.HierarchyState{}
	hs.Config.Fanout = int(d.i32())
	hs.Config.Levels = int(d.i32())
	hs.Config.KLPasses = int(d.i32())
	hs.Config.Seed = int64(d.u64())
	hs.Config.StorePaths = d.u8() != 0
	hs.Config.PruneMaxBorders = int(d.i32())
	numRnets := d.count(20)
	hs.Rnets = make([]rnet.Rnet, 0, numRnets)
	for i := 0; i < numRnets; i++ {
		r := rnet.Rnet{ID: rnet.RnetID(i)}
		r.Level = int(d.i32())
		r.Parent = d.i32()
		r.Children = d.i32s(d.count(4))
		r.Borders = d.i32s(d.count(4))
		r.Edges = d.i32s(d.count(4))
		if d.err != nil {
			break
		}
		hs.Rnets = append(hs.Rnets, r)
	}
	hs.LeafOf = d.i32s(d.count(4))
	hs.OriginLeaf = d.i32s(d.count(4))
	if err := d.finish(); err != nil {
		return nil, err
	}
	return hs, nil
}

// --- SHCT section ---

func encodeShortcuts(hs *rnet.HierarchyState) []byte {
	var b bytes.Buffer
	writeU32(&b, uint32(len(hs.Shortcuts)))
	for _, set := range hs.Shortcuts {
		writeU32(&b, uint32(len(set.Entries)))
		for _, entry := range set.Entries {
			writeI32(&b, entry.From)
			writeU32(&b, uint32(len(entry.Shortcuts)))
			for _, sc := range entry.Shortcuts {
				writeI32(&b, sc.To)
				writeF64(&b, sc.Dist)
				writeU32(&b, uint32(len(sc.Via)))
				for _, via := range sc.Via {
					writeI32(&b, via)
				}
			}
		}
	}
	return b.Bytes()
}

func decodeShortcuts(payload []byte, hs *rnet.HierarchyState) error {
	d := newDecoder("SHCT", payload)
	numSets := d.count(4)
	hs.Shortcuts = make([]rnet.ShortcutSet, 0, numSets)
	for i := 0; i < numSets && d.err == nil; i++ {
		set := rnet.ShortcutSet{}
		numEntries := d.count(8)
		set.Entries = make([]rnet.ShortcutEntry, 0, numEntries)
		for j := 0; j < numEntries && d.err == nil; j++ {
			entry := rnet.ShortcutEntry{From: d.i32()}
			numScs := d.count(16)
			entry.Shortcuts = make([]rnet.Shortcut, 0, numScs)
			for s := 0; s < numScs && d.err == nil; s++ {
				sc := rnet.Shortcut{From: entry.From, To: d.i32(), Dist: d.f64()}
				sc.Via = d.i32s(d.count(4))
				entry.Shortcuts = append(entry.Shortcuts, sc)
			}
			set.Entries = append(set.Entries, entry)
		}
		hs.Shortcuts = append(hs.Shortcuts, set)
	}
	return d.finish()
}

// --- ADIR section ---

func encodeDirectory(st *core.AssocDirState) []byte {
	var b bytes.Buffer
	writeI32(&b, int32(st.Kind))
	writeU32(&b, uint32(len(st.Nodes)))
	for _, entry := range st.Nodes {
		writeI32(&b, entry.Node)
		writeU32(&b, uint32(len(entry.Assocs)))
		for _, a := range entry.Assocs {
			writeI32(&b, a.Obj)
			writeF64(&b, a.Dist)
			writeI32(&b, a.Attr)
		}
	}
	writeU32(&b, uint32(len(st.Abstracts)))
	for _, entry := range st.Abstracts {
		writeI32(&b, int32(entry.Rnet))
		writeU32(&b, uint32(len(entry.Counts)))
		for _, c := range entry.Counts {
			writeI32(&b, c.Attr)
			writeI32(&b, c.Count)
		}
	}
	return b.Bytes()
}

func decodeDirectory(payload []byte) (*core.AssocDirState, error) {
	d := newDecoder("ADIR", payload)
	st := &core.AssocDirState{Kind: core.AbstractKind(d.i32())}
	numNodes := d.count(8)
	for i := 0; i < numNodes && d.err == nil; i++ {
		entry := core.NodeAssocState{Node: d.i32()}
		numAssocs := d.count(16)
		for j := 0; j < numAssocs && d.err == nil; j++ {
			entry.Assocs = append(entry.Assocs, core.ObjAssocState{
				Obj: d.i32(), Dist: d.f64(), Attr: d.i32(),
			})
		}
		st.Nodes = append(st.Nodes, entry)
	}
	numAbstracts := d.count(8)
	for i := 0; i < numAbstracts && d.err == nil; i++ {
		entry := core.AbstractState{Rnet: d.i32()}
		numCounts := d.count(8)
		for j := 0; j < numCounts && d.err == nil; j++ {
			entry.Counts = append(entry.Counts, core.AttrCount{Attr: d.i32(), Count: d.i32()})
		}
		st.Abstracts = append(st.Abstracts, entry)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return st, nil
}

// --- PGLY section ---

// encodePageLayouts serializes the simulated-store bookkeeping: the
// overlay's record clustering order (Hilbert/CCAM), the page allocation
// watermark and the overlay/directory record layouts. Without these, a
// load would have to re-rank every coordinate and rebuild every shortcut
// tree just to re-derive page placement — the dominant costs of
// reconstruction.
func encodePageLayouts(f *core.Framework) []byte {
	var b bytes.Buffer
	order := f.OverlayOrder()
	writeU32(&b, uint32(len(order)))
	for _, n := range order {
		writeI32(&b, n)
	}
	allocated, overlay, dir := f.ExportLayouts()
	if overlay == nil {
		b.WriteByte(0) // I/O simulation disabled
		return b.Bytes()
	}
	b.WriteByte(1)
	writeU64(&b, uint64(allocated))
	encodeLayout(&b, overlay)
	encodeLayout(&b, dir)
	return b.Bytes()
}

func encodeLayout(b *bytes.Buffer, st *storage.LayoutState) {
	writeU64(b, uint64(st.First))
	writeU64(b, uint64(st.CurPage))
	writeU32(b, uint32(st.CurUsed))
	writeU64(b, uint64(st.Bytes))
	writeU32(b, uint32(len(st.Spans)))
	for _, sp := range st.Spans {
		writeU64(b, uint64(sp.Key))
		writeU64(b, uint64(sp.First))
		writeU32(b, uint32(sp.Pages))
	}
}

func decodePageLayouts(payload []byte) (order []graph.NodeID, allocated storage.PageID, overlay, dir *storage.LayoutState, err error) {
	d := newDecoder("PGLY", payload)
	order = d.i32s(d.count(4))
	if d.u8() == 0 {
		return order, 0, nil, nil, d.finish()
	}
	allocated = storage.PageID(d.u64())
	overlay = decodeLayout(d)
	dir = decodeLayout(d)
	if err := d.finish(); err != nil {
		return nil, 0, nil, nil, err
	}
	return order, allocated, overlay, dir, nil
}

func decodeLayout(d *decoder) *storage.LayoutState {
	st := &storage.LayoutState{
		First:   storage.PageID(d.u64()),
		CurPage: storage.PageID(d.u64()),
		CurUsed: int(d.u32()),
		Bytes:   int64(d.u64()),
	}
	n := d.count(20)
	st.Spans = make([]storage.SpanState, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		st.Spans = append(st.Spans, storage.SpanState{
			Key:   int64(d.u64()),
			First: storage.PageID(d.u64()),
			Pages: int32(d.u32()),
		})
	}
	return st
}

// --- encoding primitives ---

func writeU32(b *bytes.Buffer, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	b.Write(buf[:])
}

func writeU64(b *bytes.Buffer, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.Write(buf[:])
}

func writeI32(b *bytes.Buffer, v int32) { writeU32(b, uint32(v)) }

func writeF64(b *bytes.Buffer, v float64) { writeU64(b, math.Float64bits(v)) }

// decoder reads little-endian primitives from a section payload with
// sticky error handling: the first short read or implausible count poisons
// the decoder, subsequent reads return zero values, and finish() reports
// the error (or leftover bytes).
type decoder struct {
	section string
	data    []byte
	off     int
	err     error
}

func newDecoder(section string, data []byte) *decoder {
	return &decoder{section: section, data: data}
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: %s: %s", d.section, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.data) {
		d.fail("truncated at byte %d (need %d more)", d.off, d.off+n-len(d.data))
		return nil
	}
	out := d.data[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) i32() int32 { return int32(d.u32()) }

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads an element count and sanity-checks it against the bytes
// remaining: each element needs at least minElemSize bytes, so a count
// beyond remaining/minElemSize proves corruption without allocating.
func (d *decoder) count(minElemSize int) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if minElemSize > 0 && int(n) > (len(d.data)-d.off)/minElemSize {
		d.fail("implausible count %d at byte %d (%d bytes remain)", n, d.off-4, len(d.data)-d.off)
		return 0
	}
	return int(n)
}

func (d *decoder) i32s(n int) []int32 {
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = d.i32()
	}
	return out
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("snapshot: %s: %d trailing bytes", d.section, len(d.data)-d.off)
	}
	return nil
}
