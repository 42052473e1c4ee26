// Package ckpt defines the durable checkpoint format for DMFSGD
// training state: a versioned binary capture of every node's
// coordinates (one U and one V block per shard, the store's layout), the
// per-shard version vector, and the counters a session needs to resume
// training bit-identically after a restart — the step count, the RNG
// draw counts of the master and per-node streams, the measurement-WAL
// sequence already folded in, and the stream cursors of the measurement
// source chain.
//
// Version 3 makes the format incremental. State is stored as per-shard
// chunked records (the store's node→shard assignment, node i → shard
// i mod shards), which lifts the old one-frame n·rank ≤
// wire.MaxStateFloats bound — million-node states checkpoint shard by
// shard. A file is either a full base (every shard present) or a
// *delta* carrying only the shards whose version-vector entry advanced
// since the previous save, linked to its predecessor by that previous
// version vector (PrevVers). LoadChain resolves base + d001, d002, …
// into the newest consistent state; ChainWriter implements the
// base-every-K save policy.
//
// The format follows the wire package's codec discipline: fixed-layout
// big-endian fields, a (magic, version) header, and decoders that
// validate every declared length against hard protocol limits before
// allocating, so a truncated, corrupt or malicious file yields a typed
// error — never a panic or an attacker-sized allocation. Variable
// sections, the coordinate blocks included, are read in bounded chunks,
// so allocation grows only as payload bytes actually arrive. A CRC-32
// trailer detects torn or bit-rotted files.
//
// Writers should go through WriteFile/WriteDeltaFile, which write to a
// temporary file in the destination directory, sync it, and rename it
// into place — a crash mid-checkpoint leaves the previous chain intact.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"dmfsgd/internal/metrics"
	"dmfsgd/internal/wire"
)

// Format constants.
const (
	// Version is the checkpoint format version this package writes and
	// reads. Version 3 has a record-kind byte (full base vs delta) and
	// stores coordinates as per-shard chunked records. Read rejects
	// every other version with ErrBadVersion — a process must never
	// guess at the meaning of a retired, future (or corrupted) layout.
	Version = 3

	// MaxCursorLayers bounds the source-chain cursor count.
	MaxCursorLayers = 64
	// MaxCursorVals bounds the values one cursor layer may carry.
	MaxCursorVals = 64
)

// Record kinds.
const (
	kindFull  = 0
	kindDelta = 1
)

// magic identifies a DMFSGD checkpoint file.
var magic = [4]byte{'D', 'M', 'F', 'C'}

// Errors returned by the decoder. Read wraps each with positional
// context; test with errors.Is.
var (
	ErrBadMagic   = errors.New("ckpt: not a DMFSGD checkpoint (bad magic)")
	ErrBadVersion = errors.New("ckpt: unsupported checkpoint version")
	ErrTruncated  = errors.New("ckpt: truncated checkpoint")
	ErrTooLarge   = errors.New("ckpt: field exceeds format limit")
	ErrInvalid    = errors.New("ckpt: inconsistent checkpoint")
	ErrChecksum   = errors.New("ckpt: checksum mismatch")
	// ErrKind is returned when a full checkpoint is expected but the
	// file holds a delta record, or vice versa.
	ErrKind = errors.New("ckpt: record kind mismatch")
	// ErrChain is returned by ApplyDelta when a delta does not extend
	// the base it is applied to: its previous version vector (or its
	// geometry, seed or hyper-parameters) disagrees with the base. A
	// stale delta left behind by an earlier chain fails exactly this
	// way, so LoadChain stops at the longest consistent prefix.
	ErrChain = errors.New("ckpt: delta does not extend this base")
)

// Checkpoint is one decoded training-state capture.
type Checkpoint struct {
	// N, Rank and Shards fix the coordinate geometry (the store's).
	N, Rank, Shards int
	// K is the neighbor count per node of the session that wrote the
	// checkpoint; 0 when the writer has no topology (a serving replica).
	K int
	// Steps is the cumulative successful-update counter.
	Steps uint64
	// Seed is the master seed of the run.
	Seed int64
	// Draws counts the draws consumed from the master sequential RNG
	// stream (0 when the writer does not track it).
	Draws uint64
	// WALSeq is the measurement-WAL sequence number already folded into
	// this state: on resume, WAL entries with seq ≤ WALSeq are skipped
	// (idempotent replay at the checkpoint barrier).
	WALSeq uint64
	// Incarnation is the writer's lineage counter at capture: a process
	// resuming from this checkpoint announces itself with a strictly
	// higher incarnation, so replication followers re-admit it as a new
	// lineage rather than comparing its restarted version counters
	// against the dead lineage's.
	Incarnation uint32
	// Tau is the classification threshold; Eta and Lambda the SGD
	// hyper-parameters; Loss the loss id; Metric the measured quantity.
	Tau, Eta, Lambda float64
	Loss             uint8
	Metric           uint8
	// NodeDraws holds the per-node epoch-stream draw counts (len 0 when
	// the parallel scheduler never ran, len N otherwise).
	NodeDraws []uint64
	// Cursors holds the stream positions of the measurement source
	// chain, one entry per cursor-bearing layer, outermost first.
	Cursors [][]uint64
	// Vers is the per-shard store version vector (len Shards).
	Vers []uint64
	// U and V hold one block per shard (len Shards each): block p carries
	// the rows of nodes p, p+Shards, p+2·Shards, … in that order, Rank
	// floats per row — the store's partition and the layout on disk.
	// Blocks are read, never modified, by Write, so a capture may alias
	// immutable snapshot blocks.
	U, V [][]float64
}

// Delta is one decoded incremental record: the full counter/config head
// of the state it captures, holding the blocks of exactly the shards
// whose version advanced since PrevVers (Head.U[p] and Head.V[p] are nil
// for the others). ApplyDelta folds it into the base it extends.
type Delta struct {
	Head     *Checkpoint
	PrevVers []uint64
}

// Validate checks the checkpoint's geometry, section lengths and block
// values against the format limits — everything Write enforces and Read
// guarantees.
func (c *Checkpoint) Validate() error { return c.validate(nil) }

// advanced reports whether shard p's block belongs in a record cut
// against prevVers: every shard of a full record (prevVers nil), and
// the shards whose version moved for a delta.
func advanced(vers, prevVers []uint64, p int) bool {
	return prevVers == nil || vers[p] != prevVers[p]
}

// validate checks the head and the blocks a record cut against prevVers
// carries (see advanced); the blocks of shards it leaves out are not
// looked at.
func (c *Checkpoint) validate(prevVers []uint64) error {
	if err := c.validateHead(); err != nil {
		return err
	}
	if len(c.U) != c.Shards || len(c.V) != c.Shards {
		return fmt.Errorf("%w: %d/%d coordinate blocks for %d shards", ErrInvalid, len(c.U), len(c.V), c.Shards)
	}
	for p := range c.U {
		if !advanced(c.Vers, prevVers, p) {
			continue
		}
		want := wire.ShardNodes(c.N, p, c.Shards) * c.Rank
		if len(c.U[p]) != want || len(c.V[p]) != want {
			return fmt.Errorf("%w: shard %d blocks of %d/%d floats, want %d", ErrInvalid, p, len(c.U[p]), len(c.V[p]), want)
		}
		for k := range c.U[p] {
			if math.IsNaN(c.U[p][k]) || math.IsInf(c.U[p][k], 0) || math.IsNaN(c.V[p][k]) || math.IsInf(c.V[p][k], 0) {
				return fmt.Errorf("%w: non-finite coordinate in shard %d row %d", ErrInvalid, p, k/c.Rank)
			}
		}
	}
	return nil
}

// validateHead checks everything but the coordinate blocks — the part a
// delta record shares with a full checkpoint.
func (c *Checkpoint) validateHead() error {
	if c.N < 1 || c.N > wire.MaxNodes {
		return fmt.Errorf("%w: n=%d out of [1,%d]", ErrTooLarge, c.N, wire.MaxNodes)
	}
	if c.Rank < 1 || c.Rank > wire.MaxRank {
		return fmt.Errorf("%w: rank=%d out of [1,%d]", ErrTooLarge, c.Rank, wire.MaxRank)
	}
	if c.Shards < 1 || c.Shards > wire.MaxShards || c.Shards > c.N {
		return fmt.Errorf("%w: shards=%d out of [1,min(%d,n)]", ErrTooLarge, c.Shards, wire.MaxShards)
	}
	if c.K < 0 || c.K >= c.N {
		return fmt.Errorf("%w: k=%d out of [0,%d)", ErrInvalid, c.K, c.N)
	}
	if len(c.NodeDraws) != 0 && len(c.NodeDraws) != c.N {
		return fmt.Errorf("%w: %d node draw counts for %d nodes", ErrInvalid, len(c.NodeDraws), c.N)
	}
	if len(c.Cursors) > MaxCursorLayers {
		return fmt.Errorf("%w: %d cursor layers exceed %d", ErrTooLarge, len(c.Cursors), MaxCursorLayers)
	}
	for i, cur := range c.Cursors {
		if len(cur) > MaxCursorVals {
			return fmt.Errorf("%w: cursor layer %d carries %d values, limit %d", ErrTooLarge, i, len(cur), MaxCursorVals)
		}
	}
	if len(c.Vers) != c.Shards {
		return fmt.Errorf("%w: version vector of %d for %d shards", ErrInvalid, len(c.Vers), c.Shards)
	}
	for _, x := range []float64{c.Tau, c.Eta, c.Lambda} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: non-finite hyper-parameter", ErrInvalid)
		}
	}
	return nil
}

// headerLen is the byte length of the fixed header that follows the
// (magic, version, kind) prefix.
const headerLen = 4 + 2 + 2 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 1 + 1 + 4 + 4

// Write encodes c to w as a full (base) checkpoint. The layout is:
//
//	magic[4] version[2] kind[1]
//	n[4] rank[2] shards[2] k[4] steps[8] seed[8] draws[8] walSeq[8]
//	tau[8] eta[8] lambda[8] loss[1] metric[1] nodeDrawCount[4]
//	incarnation[4]
//	nodeDraws[8·count]
//	cursorLayers[2] { vals[2] val[8]·vals }·layers
//	vers[8·shards]
//	prevVers[8·shards]        (kind = delta only)
//	blocks[4] { shard[4] u[8·rows·rank] v[8·rows·rank] }·blocks
//	crc32[4]
//
// all big-endian; shard ids are strictly ascending and each block is
// the Checkpoint's U[p] then V[p] as they are; the CRC-32 (IEEE) covers
// every preceding byte. A full record carries every shard, a delta
// exactly the shards with vers[p] ≠ prevVers[p].
func Write(w io.Writer, c *Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	return writeRecord(w, c, nil)
}

// WriteDelta encodes the state c as an incremental record against a
// predecessor whose version vector was prevVers: only shards with
// c.Vers[p] ≠ prevVers[p] are written. A save where nothing advanced is
// a valid (tiny) delta of zero blocks — the counters still move.
func WriteDelta(w io.Writer, c *Checkpoint, prevVers []uint64) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if len(prevVers) != c.Shards {
		return fmt.Errorf("%w: previous version vector of %d for %d shards", ErrInvalid, len(prevVers), c.Shards)
	}
	return writeRecord(w, c, prevVers)
}

// writeRecord writes one validated record: a full base when prevVers is
// nil, else a delta against prevVers. Blocks stream straight from c.
func writeRecord(w io.Writer, c *Checkpoint, prevVers []uint64) error {
	kind := byte(kindFull)
	if prevVers != nil {
		kind = kindDelta
	}
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if err := writeHead(mw, c, kind); err != nil {
		return err
	}
	if err := writeUint64s(mw, prevVers); err != nil {
		return err
	}
	blocks := 0
	for p := range c.Vers {
		if advanced(c.Vers, prevVers, p) {
			blocks++
		}
	}
	var small [4]byte
	binary.BigEndian.PutUint32(small[:], uint32(blocks))
	if _, err := mw.Write(small[:]); err != nil {
		return err
	}
	for p := range c.Vers {
		if !advanced(c.Vers, prevVers, p) {
			continue
		}
		binary.BigEndian.PutUint32(small[:], uint32(p))
		if _, err := mw.Write(small[:]); err != nil {
			return err
		}
		if err := writeFloats(mw, c.U[p]); err != nil {
			return err
		}
		if err := writeFloats(mw, c.V[p]); err != nil {
			return err
		}
	}
	binary.BigEndian.PutUint32(small[:], crc.Sum32())
	_, err := w.Write(small[:])
	return err
}

// writeHead writes the magic/version/kind prefix, the fixed header and
// the nodeDraws/cursors/vers sections shared by both record kinds.
func writeHead(mw io.Writer, c *Checkpoint, kind byte) error {
	buf := make([]byte, 0, 96)
	buf = append(buf, magic[:]...)
	buf = binary.BigEndian.AppendUint16(buf, Version)
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(c.N))
	buf = binary.BigEndian.AppendUint16(buf, uint16(c.Rank))
	buf = binary.BigEndian.AppendUint16(buf, uint16(c.Shards))
	buf = binary.BigEndian.AppendUint32(buf, uint32(c.K))
	buf = binary.BigEndian.AppendUint64(buf, c.Steps)
	buf = binary.BigEndian.AppendUint64(buf, uint64(c.Seed))
	buf = binary.BigEndian.AppendUint64(buf, c.Draws)
	buf = binary.BigEndian.AppendUint64(buf, c.WALSeq)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c.Tau))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c.Eta))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c.Lambda))
	buf = append(buf, c.Loss, c.Metric)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.NodeDraws)))
	buf = binary.BigEndian.AppendUint32(buf, c.Incarnation)
	if _, err := mw.Write(buf); err != nil {
		return err
	}
	if err := writeUint64s(mw, c.NodeDraws); err != nil {
		return err
	}
	var small [2]byte
	binary.BigEndian.PutUint16(small[:], uint16(len(c.Cursors)))
	if _, err := mw.Write(small[:]); err != nil {
		return err
	}
	for _, cur := range c.Cursors {
		binary.BigEndian.PutUint16(small[:], uint16(len(cur)))
		if _, err := mw.Write(small[:]); err != nil {
			return err
		}
		if err := writeUint64s(mw, cur); err != nil {
			return err
		}
	}
	return writeUint64s(mw, c.Vers)
}

// Read decodes one full checkpoint from r, validating every declared
// length before the corresponding allocation and verifying the CRC
// trailer. A delta record yields ErrKind (use ReadDelta). Exactly the
// checkpoint's bytes are consumed; trailing bytes (when r is a file
// read to its end) are rejected as ErrInvalid.
func Read(r io.Reader) (*Checkpoint, error) {
	c, prevVers, err := decode(r)
	if err != nil {
		return nil, err
	}
	if prevVers != nil {
		return nil, fmt.Errorf("%w: delta record where a full checkpoint is expected", ErrKind)
	}
	return c, nil
}

// ReadDelta decodes one incremental record from r. A full record yields
// ErrKind.
func ReadDelta(r io.Reader) (*Delta, error) {
	c, prevVers, err := decode(r)
	if err != nil {
		return nil, err
	}
	if prevVers == nil {
		return nil, fmt.Errorf("%w: full checkpoint where a delta record is expected", ErrKind)
	}
	return &Delta{Head: c, PrevVers: prevVers}, nil
}

// decode reads one record of either kind: prevVers is nil for a full
// record and the predecessor's version vector for a delta.
func decode(r io.Reader) (c *Checkpoint, prevVers []uint64, err error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)

	var pre [7]byte
	if _, err := io.ReadFull(tr, pre[:6]); err != nil {
		return nil, nil, truncated(err)
	}
	if [4]byte(pre[:4]) != magic {
		return nil, nil, ErrBadMagic
	}
	if v := binary.BigEndian.Uint16(pre[4:]); v != Version {
		return nil, nil, fmt.Errorf("%w: version %d, this build reads %d", ErrBadVersion, v, Version)
	}
	if _, err := io.ReadFull(tr, pre[6:7]); err != nil {
		return nil, nil, truncated(err)
	}
	kind := pre[6]
	if kind != kindFull && kind != kindDelta {
		return nil, nil, fmt.Errorf("%w: unknown record kind %d", ErrInvalid, kind)
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(tr, hdr[:]); err != nil {
		return nil, nil, truncated(err)
	}
	c = &Checkpoint{
		N:      int(binary.BigEndian.Uint32(hdr[0:])),
		Rank:   int(binary.BigEndian.Uint16(hdr[4:])),
		Shards: int(binary.BigEndian.Uint16(hdr[6:])),
		K:      int(binary.BigEndian.Uint32(hdr[8:])),
		Steps:  binary.BigEndian.Uint64(hdr[12:]),
		Seed:   int64(binary.BigEndian.Uint64(hdr[20:])),
		Draws:  binary.BigEndian.Uint64(hdr[28:]),
		WALSeq: binary.BigEndian.Uint64(hdr[36:]),
		Tau:    math.Float64frombits(binary.BigEndian.Uint64(hdr[44:])),
		Eta:    math.Float64frombits(binary.BigEndian.Uint64(hdr[52:])),
		Lambda: math.Float64frombits(binary.BigEndian.Uint64(hdr[60:])),
		Loss:   hdr[68],
		Metric: hdr[69],
	}
	// Geometry limits before any sized allocation. The state is chunked
	// per shard, so it is bounded by MaxNodes·MaxRank alone.
	if c.N < 1 || c.N > wire.MaxNodes ||
		c.Rank < 1 || c.Rank > wire.MaxRank ||
		c.Shards < 1 || c.Shards > wire.MaxShards || c.Shards > c.N ||
		c.K < 0 || c.K >= c.N {
		return nil, nil, fmt.Errorf("%w: geometry n=%d rank=%d shards=%d k=%d", ErrTooLarge, c.N, c.Rank, c.Shards, c.K)
	}
	nodeDraws := int(binary.BigEndian.Uint32(hdr[70:]))
	if nodeDraws != 0 && nodeDraws != c.N {
		return nil, nil, fmt.Errorf("%w: %d node draw counts for %d nodes", ErrInvalid, nodeDraws, c.N)
	}
	c.Incarnation = binary.BigEndian.Uint32(hdr[74:])

	if c.NodeDraws, err = readUint64s(tr, nodeDraws); err != nil {
		return nil, nil, err
	}
	var small [4]byte
	if _, err := io.ReadFull(tr, small[:2]); err != nil {
		return nil, nil, truncated(err)
	}
	layers := int(binary.BigEndian.Uint16(small[:2]))
	if layers > MaxCursorLayers {
		return nil, nil, fmt.Errorf("%w: %d cursor layers exceed %d", ErrTooLarge, layers, MaxCursorLayers)
	}
	if layers > 0 {
		c.Cursors = make([][]uint64, layers)
		for i := range c.Cursors {
			if _, err := io.ReadFull(tr, small[:2]); err != nil {
				return nil, nil, truncated(err)
			}
			vals := int(binary.BigEndian.Uint16(small[:2]))
			if vals > MaxCursorVals {
				return nil, nil, fmt.Errorf("%w: cursor layer %d carries %d values, limit %d", ErrTooLarge, i, vals, MaxCursorVals)
			}
			if c.Cursors[i], err = readUint64s(tr, vals); err != nil {
				return nil, nil, err
			}
			if c.Cursors[i] == nil {
				c.Cursors[i] = []uint64{}
			}
		}
	}
	if c.Vers, err = readUint64s(tr, c.Shards); err != nil {
		return nil, nil, err
	}

	if kind == kindDelta {
		if prevVers, err = readUint64s(tr, c.Shards); err != nil {
			return nil, nil, err
		}
	}
	blocks := 0
	for p := range c.Vers {
		if advanced(c.Vers, prevVers, p) {
			blocks++
		}
	}
	if _, err := io.ReadFull(tr, small[:4]); err != nil {
		return nil, nil, truncated(err)
	}
	if got := int(binary.BigEndian.Uint32(small[:4])); got != blocks {
		return nil, nil, fmt.Errorf("%w: %d blocks for %d shards present", ErrInvalid, got, blocks)
	}
	c.U = make([][]float64, c.Shards)
	c.V = make([][]float64, c.Shards)
	for p := range c.Vers {
		if !advanced(c.Vers, prevVers, p) {
			continue
		}
		if _, err := io.ReadFull(tr, small[:4]); err != nil {
			return nil, nil, truncated(err)
		}
		if got := int(binary.BigEndian.Uint32(small[:4])); got != p {
			return nil, nil, fmt.Errorf("%w: block shard %d where %d is expected", ErrInvalid, got, p)
		}
		want := wire.ShardNodes(c.N, p, c.Shards) * c.Rank
		if c.U[p], err = readFloats(tr, want); err != nil {
			return nil, nil, err
		}
		if c.V[p], err = readFloats(tr, want); err != nil {
			return nil, nil, err
		}
	}

	sum := crc.Sum32() // everything up to (not including) the trailer
	if _, err := io.ReadFull(r, small[:4]); err != nil {
		return nil, nil, truncated(err)
	}
	if binary.BigEndian.Uint32(small[:4]) != sum {
		return nil, nil, ErrChecksum
	}
	if n, _ := r.Read(small[:1]); n != 0 {
		return nil, nil, fmt.Errorf("%w: trailing bytes after checkpoint", ErrInvalid)
	}
	if err := c.validate(prevVers); err != nil {
		return nil, nil, err
	}
	return c, prevVers, nil
}

// ApplyDelta folds d into base in place: the delta must extend exactly
// this base — same geometry, seed, topology and hyper-parameters, and a
// PrevVers equal to the base's version vector — else ErrChain. On
// success the base carries the delta's counters, cursors and version
// vector, and the delta's blocks replace the advanced shards' blocks
// (the base then shares them with d.Head).
func ApplyDelta(base *Checkpoint, d *Delta) error {
	h := d.Head
	if h.N != base.N || h.Rank != base.Rank || h.Shards != base.Shards {
		return fmt.Errorf("%w: geometry n=%d rank=%d shards=%d over base n=%d rank=%d shards=%d",
			ErrChain, h.N, h.Rank, h.Shards, base.N, base.Rank, base.Shards)
	}
	if h.K != base.K || h.Seed != base.Seed || h.Loss != base.Loss || h.Metric != base.Metric ||
		h.Tau != base.Tau || h.Eta != base.Eta || h.Lambda != base.Lambda {
		return fmt.Errorf("%w: run configuration differs from the base", ErrChain)
	}
	if h.Steps < base.Steps {
		return fmt.Errorf("%w: steps regress %d → %d", ErrChain, base.Steps, h.Steps)
	}
	for p := range base.Vers {
		if d.PrevVers[p] != base.Vers[p] {
			return fmt.Errorf("%w: shard %d version %d, delta expects %d", ErrChain, p, base.Vers[p], d.PrevVers[p])
		}
	}
	for p := range base.Vers {
		if advanced(h.Vers, d.PrevVers, p) {
			base.U[p], base.V[p] = h.U[p], h.V[p]
		}
	}
	base.Steps = h.Steps
	base.Draws = h.Draws
	base.WALSeq = h.WALSeq
	base.Incarnation = h.Incarnation
	base.NodeDraws = h.NodeDraws
	base.Cursors = h.Cursors
	copy(base.Vers, h.Vers)
	return nil
}

// DeltaPath names the i-th delta (i ≥ 1) of the chain rooted at the
// base checkpoint path: "<path>.d001", "<path>.d002", …
func DeltaPath(path string, i int) string {
	return fmt.Sprintf("%s.d%03d", path, i)
}

// WriteFile durably writes c to path: temp file in the same directory,
// fsync, atomic rename. A crash mid-write leaves any previous file at
// path intact.
func WriteFile(path string, c *Checkpoint) error {
	start := startTimer()
	size, err := writeFileAtomic(path, func(w io.Writer) error { return Write(w, c) })
	if err != nil {
		return err
	}
	dur := sinceDur(start)
	mSaves.Inc()
	mSaveBytes.Add(uint64(size))
	mSaveSec.Observe(dur.Seconds())
	metrics.Emit("ckpt_save", dur,
		metrics.KV{K: "bytes", V: size},
		metrics.KV{K: "steps", V: int64(c.Steps)})
	return nil
}

// WriteDeltaFile durably writes the delta of c against prevVers to
// path, with the same temp/fsync/rename discipline as WriteFile.
func WriteDeltaFile(path string, c *Checkpoint, prevVers []uint64) error {
	start := startTimer()
	size, err := writeFileAtomic(path, func(w io.Writer) error { return WriteDelta(w, c, prevVers) })
	if err != nil {
		return err
	}
	dur := sinceDur(start)
	mDeltaSaves.Inc()
	mSaveBytes.Add(uint64(size))
	mSaveSec.Observe(dur.Seconds())
	metrics.Emit("ckpt_delta_save", dur,
		metrics.KV{K: "bytes", V: size},
		metrics.KV{K: "steps", V: int64(c.Steps)})
	return nil
}

// writeFileAtomic streams enc to a temp file in path's directory,
// syncs, renames into place, and syncs the directory so the rename
// itself survives a power cut (the checkpoint-then-truncate ordering of
// SaveCheckpoint depends on the new directory entry being durable).
func writeFileAtomic(path string, enc func(io.Writer) error) (int64, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	fail := func(err error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := enc(f); err != nil {
		return fail(err)
	}
	size, _ := f.Seek(0, io.SeekCurrent)
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if d, err := os.Open(dir); err == nil {
		syncErr := d.Sync()
		d.Close()
		if syncErr != nil {
			return 0, syncErr
		}
	}
	return size, nil
}

// ReadFile reads the full checkpoint at path.
func ReadFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := Read(f)
	if err == nil {
		mRestores.Inc()
	}
	return c, err
}

// ReadDeltaFile reads the delta record at path.
func ReadDeltaFile(path string) (*Delta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDelta(f)
}

// LoadChain resolves the checkpoint chain rooted at path: the full base
// plus every delta d001, d002, … that extends it, stopping at the first
// gap, decode failure or linkage break (a stale delta from an earlier
// chain fails its PrevVers check and is ignored — longest valid
// prefix). Returns the resolved state and the number of deltas folded
// in. A missing base is reported as the underlying os error
// (errors.Is(err, fs.ErrNotExist)).
func LoadChain(path string) (*Checkpoint, int, error) {
	c, err := ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	n := 0
	for {
		d, err := ReadDeltaFile(DeltaPath(path, n+1))
		if err != nil {
			break
		}
		if err := ApplyDelta(c, d); err != nil {
			break
		}
		n++
	}
	return c, n, nil
}

// ChainWriter implements the base-every-K save policy over a
// checkpoint chain: the first save (and every save after baseEvery
// deltas have accumulated, and any save whose geometry changed) rewrites
// the full base and prunes the now-stale deltas; every other save
// appends a delta carrying only the shards that advanced since the
// previous save. baseEvery ≤ 0 writes a full base every time — the
// pre-v3 behavior.
type ChainWriter struct {
	path      string
	baseEvery int
	prevVers  []uint64 // version vector of the last save; nil → base next
	deltas    int      // deltas since the current base
}

// NewChainWriter returns a writer for the chain rooted at path. Resume
// primes it against an existing on-disk chain.
func NewChainWriter(path string, baseEvery int) *ChainWriter {
	return &ChainWriter{path: path, baseEvery: baseEvery}
}

// Path returns the base checkpoint path.
func (cw *ChainWriter) Path() string { return cw.path }

// Resume primes the writer against a chain already on disk, as resolved
// by LoadChain: vers is the resolved state's version vector and deltas
// the chain length. The next save extends that chain.
func (cw *ChainWriter) Resume(vers []uint64, deltas int) {
	cw.prevVers = append([]uint64(nil), vers...)
	cw.deltas = deltas
}

// Save writes c to the chain under the policy and reports whether it
// went out as a delta. After a base save, stale delta files from the
// previous chain epoch are deleted; a crash between those two steps is
// safe — LoadChain rejects the orphans on their PrevVers linkage.
func (cw *ChainWriter) Save(c *Checkpoint) (delta bool, err error) {
	if cw.baseEvery > 0 && cw.prevVers != nil && len(cw.prevVers) == len(c.Vers) && cw.deltas < cw.baseEvery {
		if err := WriteDeltaFile(DeltaPath(cw.path, cw.deltas+1), c, cw.prevVers); err != nil {
			return false, err
		}
		cw.deltas++
		cw.prevVers = append(cw.prevVers[:0], c.Vers...)
		return true, nil
	}
	if err := WriteFile(cw.path, c); err != nil {
		return false, err
	}
	removeDeltas(cw.path, 1)
	cw.deltas = 0
	cw.prevVers = append([]uint64(nil), c.Vers...)
	return false, nil
}

// removeDeltas deletes the contiguous run of delta files starting at
// index from. Chains are contiguous by construction, so stopping at the
// first missing index removes everything a future LoadChain could see.
func removeDeltas(path string, from int) {
	for i := from; ; i++ {
		if err := os.Remove(DeltaPath(path, i)); err != nil {
			return
		}
	}
}

// truncated maps short-read errors onto the package sentinel.
func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrTruncated
	}
	return err
}

// chunkBytes bounds one read/convert step of the bulk sections, so a
// short input declaring a huge section allocates at most one chunk
// beyond the bytes that actually arrived.
const chunkBytes = 64 << 10

// readUint64s reads count big-endian uint64s in bounded chunks.
func readUint64s(r io.Reader, count int) ([]uint64, error) {
	if count == 0 {
		return nil, nil
	}
	out := make([]uint64, 0, min(count, chunkBytes/8))
	var buf [chunkBytes]byte
	for len(out) < count {
		want := min((count-len(out))*8, chunkBytes)
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return nil, truncated(err)
		}
		for off := 0; off < want; off += 8 {
			out = append(out, binary.BigEndian.Uint64(buf[off:]))
		}
	}
	return out, nil
}

// readFloats reads count big-endian float64s in bounded chunks.
func readFloats(r io.Reader, count int) ([]float64, error) {
	if count == 0 {
		return nil, nil
	}
	out := make([]float64, 0, min(count, chunkBytes/8))
	var buf [chunkBytes]byte
	for len(out) < count {
		want := min((count-len(out))*8, chunkBytes)
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return nil, truncated(err)
		}
		for off := 0; off < want; off += 8 {
			out = append(out, math.Float64frombits(binary.BigEndian.Uint64(buf[off:])))
		}
	}
	return out, nil
}

// writeUint64s writes vs as big-endian uint64s in bounded chunks.
func writeUint64s(w io.Writer, vs []uint64) error {
	var buf [chunkBytes]byte
	for len(vs) > 0 {
		n := min(len(vs), chunkBytes/8)
		for i := 0; i < n; i++ {
			binary.BigEndian.PutUint64(buf[8*i:], vs[i])
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		vs = vs[n:]
	}
	return nil
}

// writeFloats writes vs as big-endian float64s in bounded chunks.
func writeFloats(w io.Writer, vs []float64) error {
	var buf [chunkBytes]byte
	for len(vs) > 0 {
		n := min(len(vs), chunkBytes/8)
		for i := 0; i < n; i++ {
			binary.BigEndian.PutUint64(buf[8*i:], math.Float64bits(vs[i]))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		vs = vs[n:]
	}
	return nil
}
