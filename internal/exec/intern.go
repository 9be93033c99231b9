package exec

import (
	"sync"
	"unsafe"

	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
)

// internIndex is the executor's dictionary-encoded view of the database
// (paper §5.1: Crystal "transforms attribute values to unique ids" so the
// engine compares integers, not values). Columns build lazily per
// (relation, attribute) on first use and are shared by every concurrent
// Run; equality joins and constant predicates then compare uint32 ids
// over dense TID-indexed slices instead of hashing data.Value keys.
//
// Correctness with the chase's fix-set view: interned ids encode RAW
// tuple values, but the chase reads values through env.ValueOf (validated
// cells first). The chase therefore registers shadow tracking — the set
// of TIDs whose view may differ from raw data (seeded from Γ, extended
// after every merge step) — and the hot paths fall back to valueThrough
// for exactly those tuples. An executor whose env has a ValueOf hook but
// no shadow tracking takes the slow path everywhere: safe by default for
// direct library users installing custom hooks.
type internIndex struct {
	mu   sync.RWMutex
	cols map[string]*crystal.Column // "rel\x1fattr" → column; nil: build failed/unknown attr
	rels map[string]*data.Relation  // built columns' source relations, for refresh
	// trans caches cross-column id translations: ids of column A mapped
	// into the dictionary of column B ("relA\x1fattrA\x1frelB\x1fattrB").
	// NoValue marks A-values absent from B's dictionary.
	trans map[string]*translation
	// shadow[rel] is the TID set whose ValueOf view may differ from raw
	// data; track is true once a caller claims to maintain it.
	shadow map[string]map[int]bool
	track  bool
	// shadowSorted caches, per relation, the ascending TID list of the
	// shadow set — the vectorized paths intersect it against partition
	// TID arrays instead of probing the map per tuple. Entries drop when
	// MarkShadowed touches the relation.
	shadowSorted map[string][]int32
	// parts maps registered stable tuple slices (partition blocks and
	// full relation slices, see Blocks) to their precomputed ascending
	// TID arrays.
	parts map[partKey]*partEntry
	// blocks holds each relation's persistent TID-partition (Blocks).
	blocks map[string]*relBlocks
	// Spill budget (SetSpill): above budget resident bytes, newly built
	// columns go straight to flat on-disk blocks.
	spillBudget int64
	spillOpts   crystal.SpillOptions
	memBytes    int64
}

// partKey identifies a tuple slice by its backing window — data pointer
// plus length. A slice is a contiguous window, so an equal key implies
// identical content as long as the backing elements are unmodified;
// Blocks drops a slice's key whenever it replaces the slice.
type partKey struct {
	p unsafe.Pointer
	n int
}

type partEntry struct {
	ts   []*data.Tuple // pins the backing array so the key stays unique
	tids []int32       // ascending TIDs; nil when ts was not TID-ascending
}

func keyOfSlice(ts []*data.Tuple) (partKey, bool) {
	if len(ts) == 0 {
		return partKey{}, false
	}
	return partKey{p: unsafe.Pointer(&ts[0]), n: len(ts)}, true
}

// relBlocks is one relation's persistent TID-partition: blocks[i] holds
// the tuples with TID % len(blocks) == i in ascending TID order, and all
// is the full tuple slice as of the last sync. Each slice is registered
// with its TID array.
type relBlocks struct {
	rel       *data.Relation
	len, next int // rel.Len() and rel.NextTID() at the last sync
	all       []*data.Tuple
	blocks    [][]*data.Tuple
}

// Blocks returns rel's TID-partition into n blocks (block i holds the
// tuples with TID % n == i, TID-ascending) and registers every block and
// the full tuple slice with their ascending TID arrays, so the
// vectorized selection and join paths skip their per-call TID
// extraction. The partition persists across calls and engines: tuples
// inserted since the last call append to their block and to its TID
// array — an insert's TID exceeds every existing one — so keeping it
// current costs O(|inserted|). A deletion, a different n or a replaced
// relation rebuilds it. Call between Runs, never concurrently with one.
func (e *Executor) Blocks(rel *data.Relation, n int) [][]*data.Tuple {
	e.in.mu.Lock()
	defer e.in.mu.Unlock()
	if e.in.blocks == nil {
		e.in.blocks = make(map[string]*relBlocks)
		e.in.parts = make(map[partKey]*partEntry)
	}
	name := rel.Schema.Name
	rb := e.in.blocks[name]
	// Inserts grow Len and NextTID alike; a deletion shrinks Len alone.
	if rb != nil && rb.rel == rel && len(rb.blocks) == n &&
		rel.Len()-rb.len == rel.NextTID()-rb.next {
		if added := rel.Tuples[rb.len:]; len(added) > 0 {
			rb.all = e.in.extendPart(rb.all, rel.Tuples, added)
			for _, t := range added {
				i := t.TID % n
				rb.blocks[i] = e.in.extendPart(rb.blocks[i], append(rb.blocks[i], t), []*data.Tuple{t})
			}
		}
	} else {
		if rb != nil {
			e.in.dropPart(rb.all)
			for _, b := range rb.blocks {
				e.in.dropPart(b)
			}
		}
		rb = &relBlocks{rel: rel, all: rel.Tuples, blocks: make([][]*data.Tuple, n)}
		for _, t := range rel.Tuples {
			rb.blocks[t.TID%n] = append(rb.blocks[t.TID%n], t)
		}
		e.in.registerPart(rb.all)
		for _, b := range rb.blocks {
			e.in.registerPart(b)
		}
		e.in.blocks[name] = rb
	}
	rb.len, rb.next = rel.Len(), rel.NextTID()
	return rb.blocks
}

// registerPart precomputes and registers the TID array of ts (nil when
// ts is not TID-ascending: lookups then fall back). Caller holds mu.
func (in *internIndex) registerPart(ts []*data.Tuple) {
	k, ok := keyOfSlice(ts)
	if !ok {
		return
	}
	tids := make([]int32, 0, len(ts))
	last := -1
	for _, t := range ts {
		if t.TID <= last {
			tids = nil // not ascending: cache the miss, callers fall back
			break
		}
		last = t.TID
		tids = append(tids, int32(t.TID))
	}
	in.parts[k] = &partEntry{ts: ts, tids: tids}
}

// extendPart moves old's registration to grown — old plus the appended
// tuples added — extending its TID array instead of recomputing it, and
// returns grown. Caller holds mu.
func (in *internIndex) extendPart(old, grown, added []*data.Tuple) []*data.Tuple {
	k, ok := keyOfSlice(old)
	ent := in.parts[k]
	if !ok || ent == nil || ent.tids == nil {
		in.dropPart(old)
		in.registerPart(grown)
		return grown
	}
	delete(in.parts, k)
	tids := ent.tids
	for _, t := range added {
		tids = append(tids, int32(t.TID))
	}
	if nk, ok := keyOfSlice(grown); ok {
		in.parts[nk] = &partEntry{ts: grown, tids: tids}
	}
	return grown
}

// dropPart removes the registration of ts. Caller holds mu.
func (in *internIndex) dropPart(ts []*data.Tuple) {
	if k, ok := keyOfSlice(ts); ok {
		delete(in.parts, k)
	}
}

// tidsOf returns the ascending TID array of ts — the registered
// precomputed one, or pooled scratch (pooled true: release with
// putIntBuf). A nil result means ts is not strictly TID-ascending and
// the caller must take the scalar path.
func (e *Executor) tidsOf(ts []*data.Tuple) (tids []int32, pooled bool) {
	if k, ok := keyOfSlice(ts); ok {
		e.in.mu.RLock()
		ent := e.in.parts[k]
		e.in.mu.RUnlock()
		if ent != nil {
			return ent.tids, false
		}
	}
	buf := getIntBuf()
	last := -1
	for _, t := range ts {
		if t.TID <= last {
			putIntBuf(buf)
			return nil, false
		}
		last = t.TID
		buf = append(buf, int32(t.TID))
	}
	return buf, true
}

// SetSpill installs the interned-column memory budget: once the resident
// bytes of built columns exceed budget, later builds write flat spill
// blocks under dir (empty: the system temp directory) and read them back
// through mmap or chunked ReadAt. Call before the first Run.
func (e *Executor) SetSpill(budget int64, dir string) {
	e.in.mu.Lock()
	e.in.spillBudget = budget
	e.in.spillOpts = crystal.SpillOptions{Dir: dir}
	e.in.mu.Unlock()
}

func colKey(rel, attr string) string { return rel + "\x1f" + attr }

// fastPathOK reports whether interned comparisons are sound for this run:
// either values are read raw (no ValueOf hook — detection semantics), or
// the caller maintains the shadow set (the chase).
func (e *Executor) fastPathOK() bool {
	if e.env.ValueOf == nil {
		return true
	}
	e.in.mu.RLock()
	defer e.in.mu.RUnlock()
	return e.in.track
}

// SetShadowTracking installs the shadow TID sets and enables the interned
// fast path under a ValueOf hook. The caller owns the contract: every
// tuple whose ValueOf view may differ from the raw relation value must be
// in shadow (MarkShadowed extends it). The maps are retained, not copied.
func (e *Executor) SetShadowTracking(shadow map[string]map[int]bool) {
	e.in.mu.Lock()
	defer e.in.mu.Unlock()
	if shadow == nil {
		shadow = make(map[string]map[int]bool)
	}
	e.in.shadow = shadow
	e.in.track = true
	e.in.shadowSorted = nil
}

// MarkShadowed adds the given TIDs to the shadow sets. Call from the
// serial merge step (or otherwise outside concurrent Runs) after fixes
// change what ValueOf returns.
func (e *Executor) MarkShadowed(dirty map[string]map[int]bool) {
	e.in.mu.Lock()
	defer e.in.mu.Unlock()
	if e.in.shadow == nil {
		e.in.shadow = make(map[string]map[int]bool)
	}
	for rel, tids := range dirty {
		m := e.in.shadow[rel]
		if m == nil {
			m = make(map[int]bool, len(tids))
			e.in.shadow[rel] = m
		}
		for tid := range tids {
			m[tid] = true
		}
		delete(e.in.shadowSorted, rel)
	}
}

// shadowSortedOf returns the ascending TID list of a relation's shadow
// set (nil when empty), built lazily and cached until MarkShadowed next
// touches the relation. Concurrent builders compute identical lists, so
// the last writer winning is harmless.
func (e *Executor) shadowSortedOf(rel string) []int32 {
	e.in.mu.RLock()
	s, ok := e.in.shadowSorted[rel]
	m := e.in.shadow[rel]
	e.in.mu.RUnlock()
	if ok {
		return s
	}
	if len(m) > 0 {
		s = crystal.SortedTIDs[int32](m)
	}
	e.in.mu.Lock()
	if e.in.shadowSorted == nil {
		e.in.shadowSorted = make(map[string][]int32)
	}
	e.in.shadowSorted[rel] = s
	e.in.mu.Unlock()
	return s
}

// shadowOf returns the shadow TID set of a relation (nil when empty) —
// fetched once per hot loop, checked per tuple.
func (e *Executor) shadowOf(rel string) map[int]bool {
	e.in.mu.RLock()
	defer e.in.mu.RUnlock()
	m := e.in.shadow[rel]
	if len(m) == 0 {
		return nil
	}
	return m
}

// RefreshTuples re-interns the raw values of the given dirty TIDs into
// every built column of their relations, absorbing SetValue updates and
// inserts in O(|dirty|) posting edits. Call between Runs after mutating
// raw relation data: the incremental chase and detection paths do this
// for their dirty sets, and the chase's Materialize for the cells it
// wrote. Translations revalidate themselves against the dictionaries'
// sizes, and partitions follow inserts in Blocks.
func (e *Executor) RefreshTuples(dirty map[string]map[int]bool) {
	e.in.mu.Lock()
	defer e.in.mu.Unlock()
	if len(e.in.cols) == 0 {
		return
	}
	sorted := make(map[string][]int, len(dirty))
	for key, col := range e.in.cols {
		if col == nil {
			continue
		}
		rel := e.in.rels[key]
		if rel == nil {
			continue
		}
		name := rel.Schema.Name
		if len(dirty[name]) == 0 {
			continue
		}
		tids, ok := sorted[name]
		if !ok {
			tids = crystal.SortedTIDs[int](dirty[name])
			sorted[name] = tids
		}
		wasSpilled := col.Spilled()
		col.Refresh(rel, tids) // unspills first: spilled blocks are immutable
		if wasSpilled {
			e.in.memBytes += col.MemBytes()
			if e.reg != nil {
				e.reg.Inc("exec.spill.reloads")
			}
		}
	}
}

// Close releases the spill blocks (file descriptors and mappings) of the
// executor's interned columns. The executor must not run afterwards.
func (e *Executor) Close() {
	e.in.mu.Lock()
	defer e.in.mu.Unlock()
	for _, col := range e.in.cols {
		if col != nil {
			col.Close()
		}
	}
	e.in.cols = nil
	e.in.rels = nil
}

// internMinTuples gates the interned layout by cardinality: below this
// size a dictionary build costs more than every id compare it saves (the
// build sorts the distinct values), so small relations keep the
// value-keyed paths. The dense layout targets the 10⁶–10⁷ tuple scale.
const internMinTuples = 4096

// internedCol returns the interned column for (rel, attr), building it on
// first use. Returns nil when the attribute is unknown or the relation is
// too small to be worth encoding.
func (e *Executor) internedCol(relName, attr string) *crystal.Column {
	key := colKey(relName, attr)
	e.in.mu.RLock()
	col, ok := e.in.cols[key]
	e.in.mu.RUnlock()
	if ok {
		return col
	}
	rel := e.env.DB.Rel(relName)
	if rel == nil || len(rel.Tuples) < internMinTuples {
		// Not cached: a relation growing past the gate through inserts
		// gets its column once it is worth encoding.
		return nil
	}
	e.in.mu.Lock()
	defer e.in.mu.Unlock()
	if col, ok = e.in.cols[key]; ok { // lost the build race
		return col
	}
	// Over the memory budget, build straight into a flat spill block:
	// ids + postings live on disk (mmap or chunked reads), only the
	// dictionary and block metadata stay resident.
	if e.in.spillBudget > 0 && e.in.memBytes+int64(12*len(rel.Tuples)) > e.in.spillBudget {
		col, _ = crystal.BuildColumnSpilled(rel, attr, e.in.spillOpts)
		if col != nil {
			e.in.memBytes += col.MemBytes()
			if e.reg != nil {
				e.reg.Inc("exec.spill.columns")
				e.reg.Add("exec.spill.bytes", uint64(col.SpillBytes()))
			}
		}
	}
	if col == nil {
		col, _ = crystal.BuildColumn(rel, attr) // nil on unknown attr
		if col != nil {
			e.in.memBytes += col.MemBytes()
		}
	}
	if col != nil && e.reg != nil {
		e.reg.Inc("exec.columns.built")
	}
	if e.in.cols == nil {
		e.in.cols = make(map[string]*crystal.Column)
		e.in.rels = make(map[string]*data.Relation)
	}
	e.in.cols[key] = col
	if col != nil {
		e.in.rels[key] = rel
	}
	return col
}

// translation is one cached id mapping between two columns, valid while
// both dictionaries keep the sizes it was built at: Refresh only ever
// appends dictionary entries, so an unchanged size means unchanged ids.
type translation struct {
	ids          []crystal.ValueID
	sizeA, sizeB int
}

// translation maps ids of colA into colB's dictionary, cached per column
// pair: one O(|dictA|) value lookup pass instead of per-tuple Key()
// hashing on every join. Entry i is the colB id of colA's value i, or
// NoValue when colB never saw that value. A refresh that grew either
// dictionary makes the cached mapping stale, and it is rebuilt.
func (e *Executor) translation(relA, attrA string, colA *crystal.Column, relB, attrB string, colB *crystal.Column) []crystal.ValueID {
	key := colKey(relA, attrA) + "\x1f" + colKey(relB, attrB)
	sizeA, sizeB := colA.Dict.Size(), colB.Dict.Size()
	e.in.mu.RLock()
	tr := e.in.trans[key]
	e.in.mu.RUnlock()
	if tr != nil && tr.sizeA == sizeA && tr.sizeB == sizeB {
		return tr.ids
	}
	ids := make([]crystal.ValueID, sizeA)
	for i := range ids {
		v, _ := colA.Dict.Value(crystal.ValueID(i))
		if id, ok := colB.Dict.ID(v); ok {
			ids[i] = id
		} else {
			ids[i] = crystal.NoValue
		}
	}
	e.in.mu.Lock()
	if e.in.trans == nil {
		e.in.trans = make(map[string]*translation)
	}
	e.in.trans[key] = &translation{ids: ids, sizeA: sizeA, sizeB: sizeB}
	e.in.mu.Unlock()
	return ids
}

// --- per-binding scratch pools (the deduction path's GC relief) ---

var tupleBufPool = sync.Pool{
	New: func() any { b := make([]*data.Tuple, 0, 64); return &b },
}

func getTupleBuf() []*data.Tuple {
	return (*tupleBufPool.Get().(*[]*data.Tuple))[:0]
}

func putTupleBuf(b []*data.Tuple) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	tupleBufPool.Put(&b)
}

var intBufPool = sync.Pool{
	New: func() any { b := make([]int32, 0, 256); return &b },
}

func getIntBuf() []int32 {
	return (*intBufPool.Get().(*[]int32))[:0]
}

func putIntBuf(b []int32) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	intBufPool.Put(&b)
}

var posBufPool = sync.Pool{
	New: func() any { b := make([]int32, 0, 256); return &b },
}

func getPosBuf() []int32 {
	return (*posBufPool.Get().(*[]int32))[:0]
}

func putPosBuf(b []int32) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	posBufPool.Put(&b)
}

var idBufPool = sync.Pool{
	New: func() any { b := make([]crystal.ValueID, 0, 1024); return &b },
}

// getIDBuf returns an id gather buffer of length n.
func getIDBuf(n int) []crystal.ValueID {
	b := (*idBufPool.Get().(*[]crystal.ValueID))[:0]
	if cap(b) < n {
		b = make([]crystal.ValueID, n)
	}
	return b[:n]
}

func putIDBuf(b []crystal.ValueID) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	idBufPool.Put(&b)
}

var wordBufPool = sync.Pool{
	New: func() any { b := make([]uint64, 0, 64); return &b },
}

// getWordBuf returns a bitmap buffer of length n words (contents
// unspecified; callers BitmapSetAll/ClearAll first).
func getWordBuf(n int) []uint64 {
	b := (*wordBufPool.Get().(*[]uint64))[:0]
	if cap(b) < n {
		b = make([]uint64, n)
	}
	return b[:n]
}

func putWordBuf(b []uint64) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	wordBufPool.Put(&b)
}

var pairBufPool = sync.Pool{
	New: func() any { b := make([][2]*data.Tuple, 0, 64); return &b },
}

func getPairBuf() [][2]*data.Tuple {
	return (*pairBufPool.Get().(*[][2]*data.Tuple))[:0]
}

func putPairBuf(b [][2]*data.Tuple) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	pairBufPool.Put(&b)
}
