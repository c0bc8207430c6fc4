package kg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"slices"
	"strings"
)

// Binary graph snapshots.
//
// A snapshot is the storage form of a built Graph: the CSR arrays, the
// interned name/type/predicate tables and the derived search indexes
// (NodePreds CSR, normalized-name/initials/prefix), serialized so that a
// load is a few large sequential reads plus integer decoding — no TSV
// parsing, no strutil.Normalize/Initials over the vocabulary, no sort.
// The normalized-name and initials tables load as they are stored, sorted
// tables checked for order as they are parsed. The only per-entry work
// beyond that is rebuilding the exact-name maps (hash inserts) and
// re-threading the adjacency halves from the edge list, both pure
// integer/hash work that benchmarks an order of magnitude faster than
// ReadTriples + Build (see kgbench -exp ingest).
//
// Layout (all integers little-endian):
//
//	magic   [8]byte  "SEMKGSNP"
//	version uint32   (currently 1)
//	payload          sections below
//	crc     uint32   CRC-32C (Castagnoli) of the payload
//
// Payload sections, in order: node/edge/type/predicate counts; the three
// string tables (names, type names, predicate names; each string is a
// uint32 length plus bytes); per-node types; the edge list (src, dst, pred
// per edge); the adjacency offsets; the NodePreds CSR; and the two name
// indexes (normalized-name and initials tables for nodes, then for types),
// each written in strictly ascending key order with strictly ascending id
// lists, so identical graphs serialize to identical bytes.
const (
	snapshotMagic   = "SEMKGSNP"
	snapshotVersion = 1
)

// Typed snapshot errors, matched with errors.Is. ReadSnapshot never
// panics on malformed input: a damaged file yields one of these.
var (
	// ErrSnapshotMagic: the input does not start with the snapshot magic —
	// it is not a snapshot at all (possibly a TSV triple file; ReadGraph
	// auto-detects).
	ErrSnapshotMagic = errors.New("kg: not a graph snapshot (bad magic)")
	// ErrSnapshotVersion: the snapshot was written by an unknown format
	// version.
	ErrSnapshotVersion = errors.New("kg: unsupported snapshot version")
	// ErrSnapshotTruncated: the input ended before the encoded structures
	// were complete (includes an empty file).
	ErrSnapshotTruncated = errors.New("kg: truncated snapshot")
	// ErrSnapshotChecksum: the payload does not match its CRC.
	ErrSnapshotChecksum = errors.New("kg: snapshot checksum mismatch")
	// ErrSnapshotCorrupt: the payload decoded but violates structural
	// invariants (out-of-range ids, non-monotone offsets, index tables
	// out of order).
	ErrSnapshotCorrupt = errors.New("kg: corrupt snapshot")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteSnapshot serializes g in the versioned, checksummed binary snapshot
// format read by ReadSnapshot. Output is deterministic: the same graph
// always produces the same bytes.
func WriteSnapshot(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], snapshotVersion)
	if _, err := bw.Write(u32[:]); err != nil {
		return err
	}

	crc := crc32.New(castagnoli)
	e := &snapEncoder{w: io.MultiWriter(bw, crc)}

	n, m := len(g.names), len(g.edges)
	e.u32(uint32(n))
	e.u32(uint32(m))
	e.u32(uint32(len(g.typeNames)))
	e.u32(uint32(len(g.predNames)))
	e.strings(g.names)
	e.strings(g.typeNames)
	e.strings(g.predNames)
	for _, t := range g.types {
		e.i32(int32(t))
	}
	for _, ed := range g.edges {
		e.i32(int32(ed.Src))
		e.i32(int32(ed.Dst))
		e.i32(int32(ed.Pred))
	}
	e.i32s(g.adjOff)
	e.i32s(g.nodePredOff)
	e.u32(uint32(len(g.nodePreds)))
	for _, p := range g.nodePreds {
		e.i32(int32(p))
	}
	e.nameIndex(g.nameIdx)
	e.nameIndex(g.typeIdx)
	if e.err != nil {
		return e.err
	}

	binary.LittleEndian.PutUint32(u32[:], crc.Sum32())
	if _, err := bw.Write(u32[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// snapEncoder writes the payload primitives, latching the first error.
type snapEncoder struct {
	w   io.Writer
	buf [4]byte
	err error
}

func (e *snapEncoder) u32(v uint32) {
	if e.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:])
}

func (e *snapEncoder) i32(v int32) { e.u32(uint32(v)) }

func (e *snapEncoder) i32s(vs []int32) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.i32(v)
	}
}

func (e *snapEncoder) str(s string) {
	e.u32(uint32(len(s)))
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

func (e *snapEncoder) strings(ss []string) {
	for _, s := range ss {
		e.str(s)
	}
}

// nameIndex writes the vocabulary's logical tables, whatever layers hold
// them: the norm table, then the initials table, each in its sorted key
// order, so identical graphs serialize to identical bytes.
func (e *snapEncoder) nameIndex(index nameIndex) {
	norm, initials := index.flat()
	e.table(norm)
	e.table(initials)
}

func (e *snapEncoder) table(t table) {
	e.u32(uint32(len(t.keys)))
	for i, key := range t.keys {
		e.str(key)
		e.i32s(t.ids[i])
	}
}

// ReadSnapshot loads a graph written by WriteSnapshot. Malformed input
// returns a typed error (ErrSnapshotMagic, ErrSnapshotVersion,
// ErrSnapshotTruncated, ErrSnapshotChecksum, ErrSnapshotCorrupt) — never a
// panic. The loaded graph is indistinguishable from the one that was
// saved: identical ids, adjacency order and index contents, so searches
// over it are bit-identical. Decoding uses GOMAXPROCS workers; use
// ReadSnapshotWorkers to pin the count.
func ReadSnapshot(r io.Reader) (*Graph, error) { return ReadSnapshotWorkers(r, 0) }

// ReadSnapshotWorkers is ReadSnapshot with an explicit decode worker
// count. workers == 1 decodes fully serially — the cold-start baseline
// kgbench -exp load compares against; zero or negative means GOMAXPROCS.
// Every worker count yields a structurally identical graph.
func ReadSnapshotWorkers(r io.Reader, workers int) (*Graph, error) {
	var header [len(snapshotMagic) + 4]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, fmt.Errorf("%w: %d-byte header unreadable", ErrSnapshotTruncated, len(header))
	}
	if string(header[:len(snapshotMagic)]) != snapshotMagic {
		return nil, ErrSnapshotMagic
	}
	if v := binary.LittleEndian.Uint32(header[len(snapshotMagic):]); v != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d (supported: %d)", ErrSnapshotVersion, v, snapshotVersion)
	}
	body, err := readBody(r)
	if err != nil {
		return nil, fmt.Errorf("kg: reading snapshot: %w", err)
	}
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: no checksum trailer", ErrSnapshotTruncated)
	}
	payload, trailer := body[:len(body)-4], body[len(body)-4:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, ErrSnapshotChecksum
	}
	return decodeSnapshot(payload, normWorkers(workers))
}

// readBody slurps the remaining stream. Readers that know their length
// (bytes.Reader, strings.Reader) get an exact-size single read, and
// stat-able readers (*os.File — the semkgd -snapshot and kgsearch cold
// starts) get a size-hinted buffer; only unknown-length streams fall
// back to io.ReadAll's grow-and-copy loop.
func readBody(r io.Reader) ([]byte, error) {
	if lr, ok := r.(interface{ Len() int }); ok {
		body := make([]byte, lr.Len())
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	if st, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if info, err := st.Stat(); err == nil && info.Mode().IsRegular() && info.Size() > 0 {
			// The header was already consumed from r, so Size() slightly
			// over-allocates; the capacity hint still avoids regrowth.
			buf := bytes.NewBuffer(make([]byte, 0, info.Size()))
			if _, err := buf.ReadFrom(r); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		}
	}
	return io.ReadAll(r)
}

// snapDecoder reads payload primitives from one in-memory buffer. String
// sections are converted to shared backing strings per table (not per
// string, and not the whole payload — the loaded graph must not pin the
// integer sections, which dominate the file, for its lifetime).
type snapDecoder struct {
	data []byte
	off  int
}

func (d *snapDecoder) need(n int) error {
	if d.off+n > len(d.data) {
		return fmt.Errorf("%w: need %d bytes at offset %d, have %d",
			ErrSnapshotTruncated, n, d.off, len(d.data)-d.off)
	}
	return nil
}

func (d *snapDecoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v, nil
}

func (d *snapDecoder) i32() (int32, error) {
	v, err := d.u32()
	return int32(v), err
}

// count reads a u32 length field, bounding it by what the remaining bytes
// could possibly encode (each element takes at least min bytes) so a
// corrupt count cannot trigger a huge allocation.
func (d *snapDecoder) count(min int) (int, error) {
	v, err := d.u32()
	if err != nil {
		return 0, err
	}
	n := int(v)
	if min > 0 && n > (len(d.data)-d.off)/min {
		return 0, fmt.Errorf("%w: count %d exceeds remaining payload", ErrSnapshotTruncated, n)
	}
	return n, nil
}

// block reserves n*4 payload bytes and returns them raw; callers decode
// little-endian int32s out of the returned slice. One bounds check per
// section, not per element.
func (d *snapDecoder) block(n int) ([]byte, error) {
	if err := d.need(4 * n); err != nil {
		return nil, err
	}
	buf := d.data[d.off : d.off+4*n]
	d.off += 4 * n
	return buf, nil
}

// idBlock decodes n int32-backed ids directly into their typed slice —
// no intermediate []int32 allocation.
func idBlock[T ~int32](d *snapDecoder, n int) ([]T, error) {
	buf, err := d.block(n)
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out, nil
}

func (d *snapDecoder) i32s() ([]int32, error) {
	n, err := d.count(4)
	if err != nil {
		return nil, err
	}
	return idBlock[int32](d, n)
}

// strings decodes n length-prefixed strings with one local cursor. All
// strings of one table share a single backing string converted from the
// table's byte region, so the table costs one allocation (plus the
// negligible 4-byte length prefixes it pins).
func (d *snapDecoder) strings(n int) ([]string, error) {
	data, start := d.data, d.off
	off := start
	for i := 0; i < n; i++ {
		if off+4 > len(data) {
			return nil, fmt.Errorf("%w: string table ends at entry %d", ErrSnapshotTruncated, i)
		}
		l := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if l < 0 || l > len(data)-off {
			return nil, fmt.Errorf("%w: string of %d bytes at offset %d", ErrSnapshotTruncated, l, off)
		}
		off += l
	}
	blob := string(data[start:off])
	out := make([]string, n)
	p := 0
	for i := range out {
		l := int(binary.LittleEndian.Uint32(data[start+p:]))
		p += 4
		out[i] = blob[p : p+l]
		p += l
	}
	d.off = off
	return out, nil
}

// table parses one serialized table straight into its in-memory form.
// Index ids flow straight into g.names/g.typeNames lookups at query time
// and the lookups binary-search the keys, so it rejects what WriteSnapshot
// never writes: keys not in strictly ascending order, and id lists that
// are empty, not strictly ascending or outside [0, limit).
func (d *snapDecoder) table(limit int) (table, error) {
	n, err := d.count(8) // key len + id count per entry
	if err != nil {
		return table{}, err
	}
	// All id lists of one table share a single arena allocation, and all
	// keys share one backing string (a strings.Builder, so the integer id
	// bytes are not pinned). Offsets are recorded first because append
	// may move the arena while growing.
	offs := make([]int32, n+1)
	arena := make([]int32, 0, n)
	keyEnds := make([]int, n)
	var keys strings.Builder
	var prev []byte
	data, off := d.data, d.off
	for i := 0; i < n; i++ {
		if off+4 > len(data) {
			return table{}, fmt.Errorf("%w: index table ends at entry %d", ErrSnapshotTruncated, i)
		}
		l := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if l < 0 || l > len(data)-off {
			return table{}, fmt.Errorf("%w: index key of %d bytes at offset %d", ErrSnapshotTruncated, l, off)
		}
		key := data[off : off+l]
		if i > 0 && bytes.Compare(prev, key) >= 0 {
			return table{}, fmt.Errorf("%w: index key %q does not follow %q", ErrSnapshotCorrupt, key, prev)
		}
		prev = key
		keys.Write(key)
		keyEnds[i] = keys.Len()
		off += l
		if off+4 > len(data) {
			return table{}, fmt.Errorf("%w: index entry %d has no id count", ErrSnapshotTruncated, i)
		}
		c := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if c < 0 || c > (len(data)-off)/4 {
			return table{}, fmt.Errorf("%w: index entry %d claims %d ids", ErrSnapshotTruncated, i, c)
		}
		if c == 0 {
			return table{}, fmt.Errorf("%w: index key %q has no ids", ErrSnapshotCorrupt, key)
		}
		for j := 0; j < c; j++ {
			id := int32(binary.LittleEndian.Uint32(data[off+4*j:]))
			if id < 0 || int(id) >= limit || j > 0 && id <= arena[len(arena)-1] {
				return table{}, fmt.Errorf("%w: index key %q holds id %d of %d out of order or range",
					ErrSnapshotCorrupt, key, id, limit)
			}
			arena = append(arena, id)
		}
		off += 4 * c
		offs[i+1] = int32(len(arena))
	}
	d.off = off
	blob := keys.String()
	t := table{keys: make([]string, n), ids: make([][]int32, n)}
	start := 0
	for i := range t.keys {
		t.keys[i] = blob[start:keyEnds[i]]
		start = keyEnds[i]
		t.ids[i] = arena[offs[i]:offs[i+1]:offs[i+1]]
	}
	return t, nil
}

// nameLayer parses one vocabulary's norm and initials tables into a layer
// over ids [0, limit); the caller adds the layer's name -> id map.
func (d *snapDecoder) nameLayer(limit int) (*nameLayer, error) {
	l := &nameLayer{}
	var err error
	if l.norm, err = d.table(limit); err == nil {
		l.initials, err = d.table(limit)
	}
	return l, err
}

func decodeSnapshot(payload []byte, workers int) (*Graph, error) {
	d := &snapDecoder{data: payload}
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	m, err := d.count(0)
	if err != nil {
		return nil, err
	}
	nTypes, err := d.count(0)
	if err != nil {
		return nil, err
	}
	nPreds, err := d.count(0)
	if err != nil {
		return nil, err
	}
	if m > (len(payload)-d.off)/12 || nTypes > len(payload) || nPreds > len(payload) {
		return nil, fmt.Errorf("%w: counts exceed payload", ErrSnapshotTruncated)
	}

	g := &Graph{}
	if g.names, err = d.strings(n); err != nil {
		return nil, err
	}
	if g.typeNames, err = d.strings(nTypes); err != nil {
		return nil, err
	}
	if g.predNames, err = d.strings(nPreds); err != nil {
		return nil, err
	}
	if g.types, err = idBlock[TypeID](d, n); err != nil {
		return nil, err
	}
	var corrupt firstErr
	parspan(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if t := g.types[i]; t != NoType && (t < 0 || int(t) >= nTypes) {
				corrupt.set(fmt.Errorf("%w: node %d has type %d of %d", ErrSnapshotCorrupt, i, t, nTypes))
				return
			}
		}
	})
	edgeBuf, err := d.block(3 * m)
	if err != nil {
		return nil, err
	}
	g.edges = make([]Edge, m)
	parspan(workers, m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			src := int32(binary.LittleEndian.Uint32(edgeBuf[12*i:]))
			dst := int32(binary.LittleEndian.Uint32(edgeBuf[12*i+4:]))
			pred := int32(binary.LittleEndian.Uint32(edgeBuf[12*i+8:]))
			if src < 0 || int(src) >= n || dst < 0 || int(dst) >= n || pred < 0 || int(pred) >= nPreds {
				corrupt.set(fmt.Errorf("%w: edge %d <%d,%d,%d> out of range", ErrSnapshotCorrupt, i, src, pred, dst))
				return
			}
			g.edges[i] = Edge{Src: NodeID(src), Dst: NodeID(dst), Pred: PredID(pred)}
		}
	})
	if err := corrupt.get(); err != nil {
		return nil, err
	}
	if g.adjOff, err = d.i32s(); err != nil {
		return nil, err
	}
	if g.nodePredOff, err = d.i32s(); err != nil {
		return nil, err
	}
	npCount, err := d.count(4)
	if err != nil {
		return nil, err
	}
	if err := checkOffsets(g.nodePredOff, n, npCount); err != nil {
		return nil, fmt.Errorf("node-predicate %w", err)
	}
	if g.nodePreds, err = idBlock[PredID](d, npCount); err != nil {
		return nil, err
	}
	parspan(workers, npCount, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if v := g.nodePreds[i]; v < 0 || int(v) >= nPreds {
				corrupt.set(fmt.Errorf("%w: node-predicate %d out of range", ErrSnapshotCorrupt, v))
				return
			}
		}
	})
	if err := corrupt.get(); err != nil {
		return nil, err
	}

	// Derived structures that are cheaper to re-thread than to store:
	// lookup maps (hash inserts), the per-type node lists, the predicate
	// edge counts and the adjacency halves (cursor fill, as in Build).
	// They are mutually independent, and independent of the four index
	// tables, which one task parses in order; so a cold start uses every
	// core, and workers == 1 runs them strictly in sequence.
	tg := newTaskGroup(workers)
	var nameIDs map[string]int32
	tg.run(func() { nameIDs = labelIndex[int32](g.names) })
	tg.run(func() { g.predIndex = labelIndex[PredID](g.predNames) })
	tg.run(func() {
		g.byType = make([][]NodeID, nTypes)
		for id, t := range g.types {
			if t != NoType {
				g.byType[t] = append(g.byType[t], NodeID(id))
			}
		}
		g.predCount = make([]int, nPreds)
		for i := range g.edges {
			g.predCount[g.edges[i].Pred]++
		}
	})
	tg.run(func() {
		// The stored offsets must be the degree prefix sum of the edge
		// list: threadHalves writes each node's halves from its offset on.
		if !slices.Equal(g.adjOff, adjOffsets(n, g.edges)) {
			corrupt.set(fmt.Errorf("%w: adjacency offsets inconsistent with the edge list's degrees", ErrSnapshotCorrupt))
			return
		}
		g.halves = make([]Half, 2*m)
		threadHalves(g, workers)
	})
	tg.run(func() {
		nodes, err := d.nameLayer(n)
		if err != nil {
			corrupt.set(err)
			return
		}
		types, err := d.nameLayer(nTypes)
		if err != nil {
			corrupt.set(err)
			return
		}
		types.ids = labelIndex[int32](g.typeNames)
		g.nameIdx = nameIndex{layers: []*nameLayer{nodes}}
		g.typeIdx = nameIndex{layers: []*nameLayer{types}}
	})
	tg.wait()
	if err := corrupt.get(); err != nil {
		return nil, err
	}
	if d.off != len(d.data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(d.data)-d.off)
	}
	g.nameIdx.layers[0].ids = nameIDs
	return g, nil
}

// checkOffsets validates one CSR offset array: length n+1, starting at 0,
// non-decreasing, ending at total.
func checkOffsets(off []int32, n, total int) error {
	if len(off) != n+1 {
		return fmt.Errorf("%w: offsets have length %d, want %d", ErrSnapshotCorrupt, len(off), n+1)
	}
	if off[0] != 0 || int(off[n]) != total {
		return fmt.Errorf("%w: offsets span [%d,%d], want [0,%d]", ErrSnapshotCorrupt, off[0], off[n], total)
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			return fmt.Errorf("%w: offsets decrease at %d", ErrSnapshotCorrupt, i)
		}
	}
	return nil
}

// ReadGraph loads a graph from either supported storage format, sniffing
// the snapshot magic: binary snapshots go through ReadSnapshot, anything
// else through the TSV ReadTriples parser. kgsearch, kgbench and semkgd
// accept both formats through this entry point.
func ReadGraph(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(snapshotMagic))
	if err == nil && string(head) == snapshotMagic {
		return ReadSnapshot(br)
	}
	return ReadTriples(br)
}
