package crystal

// Spillable column blocks: a flat binary format (dense id vector +
// posting offsets + posting TIDs) written to a temp directory once a
// memory budget is exceeded, read back through mmap — or a chunked
// ReadAt fallback — behind the Column accessors (IDVec / PostingList /
// IDAt). The format is a host-endian scratch layout, unlinked at create
// time so the kernel reclaims it when the column closes or the process
// dies; it is not an interchange format.
//
// Layout (all sections 8-byte aligned):
//
//	 0: u64 magic'RKCP'<<32 | version
//	 8: u64 nIDs          (dense vector length)
//	16: u64 nLists        (dictionary size)
//	24: u64 nTIDs         (total posting entries)
//	32: ids     nIDs  × u32, padded to 8
//	  : offs    nLists+1 × u64   (prefix element offsets into tids)
//	  : tids    nTIDs × i32, padded to 8

import (
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"syscall"
	"unsafe"

	"github.com/rockclean/rock/internal/data"
)

const spillMagic = uint64(0x524b4350)<<32 | 2

// SpillOptions configures the spill block store.
type SpillOptions struct {
	// Dir receives the block files; empty uses os.TempDir(). Files are
	// unlinked immediately after creation, so nothing survives a crash.
	Dir string
	// ForceReadAt skips mmap and exercises the chunked ReadAt fallback
	// (testing; also the automatic path when mmap fails).
	ForceReadAt bool
}

// spillFile is one spilled column: the open (already unlinked) block
// file plus its access path — a shared read-only mapping, or resident
// ids/offsets with posting lists streamed via ReadAt.
type spillFile struct {
	f      *os.File
	mapped []byte    // nil in ReadAt mode
	ids    []ValueID // mmap view, or resident (ReadAt mode keeps the 4 B/tuple vector in memory)
	offs   []uint64  // posting prefix offsets, mmap view or resident
	tidOff int64     // file offset of the tids section (ReadAt mode)
	bytes  int64     // file size
	holes  int       // NoValue entries frozen at spill time
}

// Spilled reports whether the column's storage lives in a spill block.
func (c *Column) Spilled() bool { return c.spill != nil }

// SpillBytes returns the on-disk size of the column's block (0 when the
// column is resident).
func (c *Column) SpillBytes() int64 {
	if c.spill == nil {
		return 0
	}
	return c.spill.bytes
}

// MemBytes estimates the resident footprint of the column: the dense id
// vector, the posting lists, and the dictionary. Spilled columns count
// only what stays in memory (the dictionary; plus the id vector under
// the ReadAt fallback).
func (c *Column) MemBytes() int64 {
	var b int64
	if c.spill != nil {
		if c.spill.mapped == nil {
			b += int64(len(c.spill.ids))*4 + int64(len(c.spill.offs))*8
		}
	} else {
		b += int64(len(c.IDs)) * 4
		for _, p := range c.Postings {
			b += int64(len(p))*4 + 24
		}
	}
	if c.Dict != nil {
		// values slice + map entry (~48 B amortized per distinct value).
		b += int64(c.Dict.Size()) * (48 + 48)
	}
	return b
}

// Spill writes the column's ids and postings into a flat block file and
// drops the in-memory copies. Returns the on-disk size. The column stays
// readable through IDVec/PostingList/IDAt; Refresh transparently reloads
// it. Not safe to call while readers are concurrently using the column —
// spill decisions happen at build time or between runs.
func (c *Column) Spill(opts SpillOptions) (int64, error) {
	if c.spill != nil {
		return c.spill.bytes, nil
	}
	nTIDs := 0
	for _, p := range c.Postings {
		nTIDs += len(p)
	}
	flat := make([]int32, 0, nTIDs)
	offs := make([]uint64, len(c.Postings)+1)
	for i, p := range c.Postings {
		offs[i] = uint64(len(flat))
		flat = append(flat, p...)
	}
	offs[len(c.Postings)] = uint64(len(flat))
	holes := 0
	for _, id := range c.IDs {
		if id == NoValue {
			holes++
		}
	}
	sp, err := writeSpill(opts, c.IDs, offs, flat, holes)
	if err != nil {
		return 0, err
	}
	c.spill = sp
	c.IDs = nil
	c.Postings = nil
	return sp.bytes, nil
}

// Unspill loads the block back into the in-memory representation and
// closes the file. Called by Refresh before mutating a spilled column.
func (c *Column) Unspill() error {
	sp := c.spill
	if sp == nil {
		return nil
	}
	ids := make([]ValueID, len(sp.ids))
	copy(ids, sp.ids)
	posts := make([][]int32, len(sp.offs)-1)
	for i := range posts {
		p := sp.postingAt(ValueID(i))
		if len(p) > 0 {
			posts[i] = append([]int32(nil), p...)
		}
	}
	c.IDs = ids
	c.Postings = posts
	c.spill = nil
	return sp.close()
}

// Close releases the spill block's mapping and file descriptor. Resident
// columns are a no-op. The column must not be read afterwards.
func (c *Column) Close() error {
	sp := c.spill
	if sp == nil {
		return nil
	}
	c.spill = nil
	return sp.close()
}

// IDVec returns the dense TID→id vector (NoValue marks absent TIDs).
// The slice is read-only: it may alias a shared file mapping.
func (c *Column) IDVec() []ValueID {
	if c.spill != nil {
		return c.spill.ids
	}
	return c.IDs
}

// PostingList returns the sorted TIDs carrying value id — a read-only
// view (possibly into a shared file mapping); callers must not mutate or
// retain it across a Refresh. Unknown ids return nil.
func (c *Column) PostingList(id ValueID) []int32 {
	if c.spill != nil {
		return c.spill.postingAt(id)
	}
	if int(id) >= len(c.Postings) {
		return nil
	}
	return c.Postings[id]
}

// Complete reports that the column covers every live tuple of rel: the
// dense vector spans all assigned TIDs and has no NoValue holes, so no
// tuple of rel can be unseen by the posting lists. Deleted tuples may
// retain stale entries — posting-driven readers intersect against live
// TID sets, which drops them.
func (c *Column) Complete(rel *data.Relation) bool {
	if c.spill != nil {
		return c.spill.holes == 0 && len(c.spill.ids) == rel.NextTID()
	}
	return c.holes == 0 && len(c.IDs) == rel.NextTID()
}

// BuildColumnSpilled encodes one attribute straight into a spill block:
// dictionary build, dense id vector, then a counting-sort pass that lays
// the posting lists out flat (rel.Tuples is TID-ascending, so each
// bucket fills in sorted order) — the [][]int32 posting slices are never
// materialized, which keeps the transient build footprint at ~8 bytes
// per tuple instead of the slice-based layout's header overhead.
func BuildColumnSpilled(rel *data.Relation, attr string, opts SpillOptions) (*Column, error) {
	dict, tup, err := buildEncoded(rel, attr)
	if err != nil {
		return nil, err
	}
	n := rel.NextTID()
	ids := make([]ValueID, n)
	for i := range ids {
		ids[i] = NoValue
	}
	counts := make([]uint64, dict.Size()+1)
	for i, t := range rel.Tuples {
		ids[t.TID] = tup[i]
		counts[tup[i]+1]++
	}
	holes := n - len(rel.Tuples)
	offs := counts // prefix-sum in place: offs[i] = start of bucket i
	for i := 1; i < len(offs); i++ {
		offs[i] += offs[i-1]
	}
	flat := make([]int32, offs[len(offs)-1])
	cursor := make([]uint64, dict.Size())
	copy(cursor, offs)
	for _, t := range rel.Tuples {
		id := ids[t.TID]
		flat[cursor[id]] = int32(t.TID)
		cursor[id]++
	}
	sp, err := writeSpill(opts, ids, offs, flat, holes)
	if err != nil {
		return nil, err
	}
	return &Column{Attr: attr, Dict: dict, spill: sp}, nil
}

func writeSpill(opts SpillOptions, ids []ValueID, offs []uint64, flat []int32, holes int) (*spillFile, error) {
	dir := opts.Dir
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "rock-col-*.blk")
	if err != nil {
		return nil, err
	}
	// Unlink immediately: the kernel keeps the inode alive for the open
	// fd and reclaims the space when the column closes (or on crash).
	os.Remove(f.Name())
	idsBytes := pad8(int64(len(ids)) * 4)
	offsBytes := int64(len(offs)) * 8
	tidsBytes := pad8(int64(len(flat)) * 4)
	total := 32 + idsBytes + offsBytes + tidsBytes

	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], spillMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(ids)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(offs)-1))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(flat)))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := writeAll(f, u32Bytes(ids), idsBytes); err != nil {
		f.Close()
		return nil, err
	}
	if err := writeAll(f, u64Bytes(offs), offsBytes); err != nil {
		f.Close()
		return nil, err
	}
	if err := writeAll(f, i32Bytes(flat), tidsBytes); err != nil {
		f.Close()
		return nil, err
	}
	sp := &spillFile{f: f, bytes: total, holes: holes, tidOff: 32 + idsBytes + offsBytes}
	if !opts.ForceReadAt {
		if m, err := syscall.Mmap(int(f.Fd()), 0, int(total), syscall.PROT_READ, syscall.MAP_SHARED); err == nil {
			sp.mapped = m
			if len(ids) > 0 {
				sp.ids = unsafe.Slice((*ValueID)(unsafe.Pointer(&m[32])), len(ids))
			}
			sp.offs = unsafe.Slice((*uint64)(unsafe.Pointer(&m[32+idsBytes])), len(offs))
			return sp, nil
		}
	}
	// Chunked ReadAt fallback: the 4 B/tuple id vector and the 8 B/value
	// offsets stay resident; posting lists stream per lookup.
	sp.ids = append([]ValueID(nil), ids...)
	sp.offs = append([]uint64(nil), offs...)
	return sp, nil
}

// postingAt resolves one posting list: a zero-copy mapped view, or a
// fresh slice streamed from the file in the ReadAt fallback.
func (sp *spillFile) postingAt(id ValueID) []int32 {
	if int(id)+1 >= len(sp.offs) {
		return nil
	}
	start, end := sp.offs[id], sp.offs[id+1]
	if start == end {
		return nil
	}
	n := int(end - start)
	if sp.mapped != nil {
		return unsafe.Slice((*int32)(unsafe.Pointer(&sp.mapped[sp.tidOff+int64(start)*4])), n)
	}
	out := make([]int32, n)
	if _, err := sp.f.ReadAt(i32Bytes(out), sp.tidOff+int64(start)*4); err != nil {
		return nil
	}
	return out
}

func (sp *spillFile) close() error {
	if sp.mapped != nil {
		syscall.Munmap(sp.mapped)
		sp.mapped = nil
		sp.ids = nil
		sp.offs = nil
	}
	return sp.f.Close()
}

func pad8(n int64) int64 { return (n + 7) &^ 7 }

// writeAll writes b then zero-pads to padded bytes.
func writeAll(f *os.File, b []byte, padded int64) error {
	if _, err := f.Write(b); err != nil {
		return err
	}
	if extra := padded - int64(len(b)); extra > 0 {
		var z [8]byte
		if _, err := f.Write(z[:extra]); err != nil {
			return err
		}
	}
	return nil
}

func u32Bytes(s []ValueID) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

func u64Bytes(s []uint64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

func i32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

// SortPostingCheck verifies a posting list is strictly ascending —
// shared by tests and the Refresh invariants.
func SortPostingCheck(p []int32) error {
	if !slices.IsSorted(p) {
		return fmt.Errorf("crystal: posting list not sorted")
	}
	for i := 1; i < len(p); i++ {
		if p[i] == p[i-1] {
			return fmt.Errorf("crystal: duplicate TID %d in posting list", p[i])
		}
	}
	return nil
}
