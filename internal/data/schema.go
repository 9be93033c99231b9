package data

import (
	"fmt"
	"sort"
	"strings"
)

// Attribute is a named, typed column of a relation schema.
type Attribute struct {
	Name string
	Type Type
}

// Schema is a relation schema R(A1:τ1, ..., Ak:τk). Attribute names are
// unique within a schema. Following the paper we assume every tuple also
// carries an EID attribute identifying the entity it represents; the EID is
// stored on the tuple, not as a schema attribute.
type Schema struct {
	Name  string
	Attrs []Attribute
	index map[string]int
}

// NewSchema builds a schema, validating attribute-name uniqueness.
func NewSchema(name string, attrs ...Attribute) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: empty relation name")
	}
	s := &Schema{Name: name, Attrs: attrs, index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("schema %s: attribute %d has empty name", name, i)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("schema %s: duplicate attribute %q", name, a.Name)
		}
		s.index[a.Name] = i
	}
	return s, nil
}

// Index returns the position of the named attribute, or -1.
func (s *Schema) Index(attr string) int {
	if i, ok := s.index[attr]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains the named attribute.
func (s *Schema) Has(attr string) bool { return s.Index(attr) >= 0 }

// TypeOf returns the type of the named attribute; ok is false if absent.
func (s *Schema) TypeOf(attr string) (Type, bool) {
	i := s.Index(attr)
	if i < 0 {
		return TString, false
	}
	return s.Attrs[i].Type, true
}

// AttrNames returns the attribute names in schema order.
func (s *Schema) AttrNames() []string {
	names := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		names[i] = a.Name
	}
	return names
}

// String renders the schema as R(A:τ, ...).
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, a := range s.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", a.Name, a.Type)
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is a row of a relation. TID is unique within its relation and stable
// across updates; EID identifies the real-world entity the tuple represents
// (paper §2 follows [21] in assuming an EID attribute).
type Tuple struct {
	TID    int
	EID    string
	Values []Value
}

// Clone deep-copies the tuple.
func (t *Tuple) Clone() *Tuple {
	vs := make([]Value, len(t.Values))
	copy(vs, t.Values)
	return &Tuple{TID: t.TID, EID: t.EID, Values: vs}
}

// Relation is an instance D of a schema R: an ordered collection of tuples
// with TID- and EID-based lookup. Tuples stay in ascending TID order:
// Insert assigns sequential TIDs and appends, Delete preserves the order.
type Relation struct {
	Schema *Schema
	Tuples []*Tuple
	// byTID is indexed by TID (TIDs are sequential); nil marks a deleted
	// TID. While the relation is dense — Tuples[i].TID == i, as before
	// any deletion — it stays nil and Tuples serves the lookups, which
	// spares a pointer per tuple.
	byTID []*Tuple
	// eids chains the live tuples of each entity through eidNext in
	// ascending TID order: the entity's slot in eids holds the chain's
	// first and last TID, eidNext[tid] the next TID of tid's entity (-1
	// at the end). The pointer-free chain costs no allocation per tuple.
	eids    eidIndex
	eidNext []int32
	nextID  int
	// slab carves inserted tuples and their value slices out of shared
	// chunks.
	slab tupleSlab
}

// tupleSlab allocates tuples and value slices in chunks instead of two
// objects per tuple. A large relation is mostly tuple headers and
// values, and the garbage collector's mark phase costs per object: with
// a few hundred tuples per chunk it visits a fraction of the objects,
// and a shorter mark leaves less allocation to count as live.
type tupleSlab struct {
	ts []Tuple
	vs []Value
}

// tupleSlabMax caps a chunk at this many tuples; chunks start small and
// grow with the relation, so small relations stay small.
const tupleSlabMax = 256

func slabChunk(n int) int { return min(max(n, 4), tupleSlabMax) }

// tuple returns a zeroed tuple from the current chunk; n is the
// relation's size, which sizes a new chunk.
func (s *tupleSlab) tuple(n int) *Tuple {
	if len(s.ts) == 0 {
		s.ts = make([]Tuple, slabChunk(n))
	}
	t := &s.ts[0]
	s.ts = s.ts[1:]
	return t
}

// values returns a zeroed slice of arity values. Its capacity is clamped,
// so an append to a tuple's Values copies instead of overwriting the
// next tuple's.
func (s *tupleSlab) values(arity, n int) []Value {
	if len(s.vs) < arity {
		s.vs = make([]Value, arity*slabChunk(n))
	}
	vs := s.vs[:arity:arity]
	s.vs = s.vs[arity:]
	return vs
}

// NewRelation creates an empty relation of the given schema.
func NewRelation(s *Schema) *Relation {
	return &Relation{Schema: s}
}

// Insert appends a tuple with a fresh TID and returns it. The value slice
// must match the schema arity; a short slice is padded with nulls.
func (r *Relation) Insert(eid string, values ...Value) *Tuple {
	vs := r.slab.values(len(r.Schema.Attrs), len(r.Tuples))
	for i := range vs {
		if i < len(values) {
			vs[i] = values[i]
		} else {
			vs[i] = Null(r.Schema.Attrs[i].Type)
		}
	}
	t := r.slab.tuple(len(r.Tuples))
	*t = Tuple{TID: r.nextID, EID: eid, Values: vs}
	r.nextID++
	r.Tuples = append(r.Tuples, t)
	r.index(t)
	return t
}

// index registers the last tuple of Tuples, whose TID exceeds every
// indexed TID.
func (r *Relation) index(t *Tuple) {
	switch {
	case r.byTID == nil && t.TID != len(r.Tuples)-1:
		r.sparse() // t included: it is already in Tuples
	case r.byTID != nil:
		for len(r.byTID) < t.TID {
			r.byTID = append(r.byTID, nil)
		}
		r.byTID = append(r.byTID, t)
	}
	for len(r.eidNext) < t.TID {
		r.eidNext = append(r.eidNext, -1)
	}
	r.eidNext = append(r.eidNext, -1)
	r.indexEID(int32(t.TID), t.EID)
}

// sparse builds byTID from Tuples before the relation stops being dense.
func (r *Relation) sparse() {
	r.byTID = make([]*Tuple, 0, cap(r.Tuples))
	for _, t := range r.Tuples {
		for len(r.byTID) < t.TID {
			r.byTID = append(r.byTID, nil)
		}
		r.byTID = append(r.byTID, t)
	}
}

// Get returns the tuple with the given TID, or nil.
func (r *Relation) Get(tid int) *Tuple {
	ts := r.byTID
	if ts == nil {
		ts = r.Tuples
	}
	if tid < 0 || tid >= len(ts) {
		return nil
	}
	return ts[tid]
}

// at returns the live tuple with the given TID.
func (r *Relation) at(tid int32) *Tuple {
	if r.byTID == nil {
		return r.Tuples[tid]
	}
	return r.byTID[tid]
}

// ByEID returns the relation's tuples carrying the given EID, in
// ascending TID order (nil when there are none). The slice is fresh; the
// tuples are the relation's own.
func (r *Relation) ByEID(eid string) []*Tuple {
	i, ok := r.eidSlot(eid)
	if !ok {
		return nil
	}
	c := r.eids.slots[i]
	var out []*Tuple
	for tid := c.head; tid >= 0; tid = r.eidNext[tid] {
		out = append(out, r.at(tid))
	}
	return out
}

// NextTID returns the TID the next Insert will assign — the exclusive
// upper bound of every TID ever assigned. Dense TID-indexed structures
// (crystal columns) use it to tell full coverage from stale builds.
func (r *Relation) NextTID() int { return r.nextID }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Value returns t[attr] for the tuple with the given TID.
func (r *Relation) Value(tid int, attr string) (Value, bool) {
	t := r.Get(tid)
	if t == nil {
		return Value{}, false
	}
	i := r.Schema.Index(attr)
	if i < 0 {
		return Value{}, false
	}
	return t.Values[i], true
}

// SetValue updates t[attr] in place; used by error correction when a fix is
// applied back to the data.
func (r *Relation) SetValue(tid int, attr string, v Value) bool {
	t := r.Get(tid)
	if t == nil {
		return false
	}
	i := r.Schema.Index(attr)
	if i < 0 {
		return false
	}
	t.Values[i] = v
	return true
}

// Delete removes the tuple with the given TID; it reports whether the tuple
// existed. Used by the incremental modes to apply ΔD deletions.
func (r *Relation) Delete(tid int) bool {
	t := r.Get(tid)
	if t == nil {
		return false
	}
	// Unlink from the entity chain while the tuple is still indexed: a
	// probe of the EID table reads its slots' head tuples.
	slot, _ := r.eidSlot(t.EID)
	c := &r.eids.slots[slot]
	next := r.eidNext[tid]
	r.eidNext[tid] = -1
	switch {
	case c.head == int32(tid) && next < 0:
		r.removeEIDSlot(slot)
	case c.head == int32(tid):
		c.head = next
	default:
		prev := c.head
		for r.eidNext[prev] != int32(tid) {
			prev = r.eidNext[prev]
		}
		r.eidNext[prev] = next
		if c.tail == int32(tid) {
			c.tail = prev
		}
	}
	if r.byTID == nil {
		r.sparse()
	}
	r.byTID[tid] = nil
	i := sort.Search(len(r.Tuples), func(i int) bool { return r.Tuples[i].TID >= tid })
	r.Tuples = append(r.Tuples[:i], r.Tuples[i+1:]...)
	return true
}

// Clone deep-copies the relation (tuples included).
func (r *Relation) Clone() *Relation {
	c := NewRelation(r.Schema)
	c.nextID = r.nextID
	c.Tuples = make([]*Tuple, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		ct := t.Clone()
		c.Tuples = append(c.Tuples, ct)
		c.index(ct)
	}
	return c
}

// Database is an instance of a database schema: named relations. Attribute
// names need not be globally unique; the qualified form "Rel.Attr" is used
// wherever cross-relation disambiguation matters.
type Database struct {
	Relations map[string]*Relation
}

// NewDatabase creates an empty database.
func NewDatabase() *Database { return &Database{Relations: make(map[string]*Relation)} }

// Add registers a relation; it replaces any previous relation of that name.
func (d *Database) Add(r *Relation) { d.Relations[r.Schema.Name] = r }

// Rel returns the named relation, or nil.
func (d *Database) Rel(name string) *Relation { return d.Relations[name] }

// Names returns the relation names in sorted order for deterministic
// iteration.
func (d *Database) Names() []string {
	names := make([]string, 0, len(d.Relations))
	for n := range d.Relations {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Clone deep-copies the database.
func (d *Database) Clone() *Database {
	c := NewDatabase()
	for _, r := range d.Relations {
		c.Add(r.Clone())
	}
	return c
}

// TupleCount returns the total number of tuples across relations.
func (d *Database) TupleCount() int {
	n := 0
	for _, r := range d.Relations {
		n += r.Len()
	}
	return n
}
