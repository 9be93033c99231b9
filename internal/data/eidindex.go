package data

import "hash/maphash"

// eidSeed hashes EIDs for every relation's EID index. Slot placement
// never shows through the index's API, so one process-wide random seed
// keeps results deterministic.
var eidSeed = maphash.MakeSeed()

// eidChain is one entity's chain of tuples: its first and last TID.
type eidChain struct{ head, tail int32 }

// eidIndex maps each EID of a relation to its chain, by open addressing
// with linear probing. A slot stores only the two TIDs and recognises
// its key through the EID of its head tuple, so an entity costs 8 bytes
// per slot (at most three quarters of the slots are full) instead of a
// string-keyed map entry — on a relation of mostly single-tuple
// entities, the difference is tens of bytes per tuple.
type eidIndex struct {
	slots []eidChain // head < 0: empty; len is 0 or a power of two
	n     int        // occupied slots
}

func eidHome(eid string, mask int) int {
	return int(maphash.String(eidSeed, eid)) & mask
}

// eidSlot finds the slot of an EID: its own when ok, else the empty slot
// an insert would take (-1 on an empty table).
func (r *Relation) eidSlot(eid string) (int, bool) {
	slots := r.eids.slots
	if len(slots) == 0 {
		return -1, false
	}
	mask := len(slots) - 1
	for i := eidHome(eid, mask); ; i = (i + 1) & mask {
		h := slots[i].head
		if h < 0 {
			return i, false
		}
		if r.at(h).EID == eid {
			return i, true
		}
	}
}

// indexEID appends a newly indexed tuple to its entity's chain.
func (r *Relation) indexEID(tid int32, eid string) {
	x := &r.eids
	if (x.n+1)*4 > len(x.slots)*3 {
		r.growEIDs()
	}
	i, ok := r.eidSlot(eid)
	if ok {
		r.eidNext[x.slots[i].tail] = tid
		x.slots[i].tail = tid
		return
	}
	x.slots[i] = eidChain{head: tid, tail: tid}
	x.n++
}

// growEIDs doubles the table and re-places every chain.
func (r *Relation) growEIDs() {
	old := r.eids.slots
	slots := make([]eidChain, max(8, 2*len(old)))
	for i := range slots {
		slots[i] = eidChain{head: -1, tail: -1}
	}
	mask := len(slots) - 1
	for _, c := range old {
		if c.head < 0 {
			continue
		}
		i := eidHome(r.at(c.head).EID, mask)
		for slots[i].head >= 0 {
			i = (i + 1) & mask
		}
		slots[i] = c
	}
	r.eids.slots = slots
}

// removeEIDSlot empties slot i, shifting later entries of its probe run
// back so every remaining EID stays reachable from its home slot.
func (r *Relation) removeEIDSlot(i int) {
	slots := r.eids.slots
	mask := len(slots) - 1
	for j := (i + 1) & mask; slots[j].head >= 0; j = (j + 1) & mask {
		home := eidHome(r.at(slots[j].head).EID, mask)
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: then i precedes its probe start.
		var inRun bool
		if i <= j {
			inRun = i < home && home <= j
		} else {
			inRun = i < home || home <= j
		}
		if !inRun {
			slots[i] = slots[j]
			i = j
		}
	}
	slots[i] = eidChain{head: -1, tail: -1}
	r.eids.n--
}
