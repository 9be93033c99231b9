package data

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func personSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema("Person",
		Attribute{"LN", TString},
		Attribute{"FN", TString},
		Attribute{"age", TInt},
	)
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(""); err == nil {
		t.Error("empty name must fail")
	}
	if _, err := NewSchema("R", Attribute{"", TInt}); err == nil {
		t.Error("empty attribute name must fail")
	}
	if _, err := NewSchema("R", Attribute{"A", TInt}, Attribute{"A", TString}); err == nil {
		t.Error("duplicate attribute must fail")
	}
	s := personSchema(t)
	if s.Index("LN") != 0 || s.Index("age") != 2 || s.Index("nope") != -1 {
		t.Error("bad attribute index")
	}
	if ty, ok := s.TypeOf("age"); !ok || ty != TInt {
		t.Error("TypeOf failed")
	}
	if got := s.String(); got != "Person(LN:string, FN:string, age:int)" {
		t.Errorf("schema string: %s", got)
	}
}

func TestRelationCRUD(t *testing.T) {
	r := NewRelation(personSchema(t))
	t1 := r.Insert("p1", S("Jones"), S("Christine"), I(30))
	t2 := r.Insert("p2", S("Smith"))
	if r.Len() != 2 {
		t.Fatalf("len=%d", r.Len())
	}
	if t1.TID == t2.TID {
		t.Fatal("TIDs must be unique")
	}
	// Short insert pads with nulls.
	if v, _ := r.Value(t2.TID, "age"); !v.IsNull() {
		t.Error("padded value must be null")
	}
	if ok := r.SetValue(t2.TID, "age", I(41)); !ok {
		t.Fatal("SetValue failed")
	}
	if v, _ := r.Value(t2.TID, "age"); !v.Equal(I(41)) {
		t.Error("SetValue not visible")
	}
	if r.SetValue(999, "age", I(1)) {
		t.Error("SetValue on missing tid must fail")
	}
	if r.SetValue(t1.TID, "ghost", I(1)) {
		t.Error("SetValue on missing attr must fail")
	}
	if !r.Delete(t1.TID) || r.Delete(t1.TID) {
		t.Error("delete semantics wrong")
	}
	if r.Len() != 1 || r.Get(t1.TID) != nil {
		t.Error("delete did not remove tuple")
	}
}

func TestRelationCloneIsDeep(t *testing.T) {
	r := NewRelation(personSchema(t))
	tp := r.Insert("p1", S("Jones"), S("C"), I(1))
	c := r.Clone()
	c.SetValue(tp.TID, "LN", S("Changed"))
	if v, _ := r.Value(tp.TID, "LN"); !v.Equal(S("Jones")) {
		t.Error("clone mutated original")
	}
	// Fresh inserts in the clone must not collide with original TIDs.
	nt := c.Insert("p9", S("New"), S("N"), I(2))
	if r.Get(nt.TID) != nil {
		t.Error("clone insert leaked into original")
	}
}

// TestRelationByEIDTracksMutations: the EID index must list exactly the
// live tuples of each entity, in ascending TID order, through random
// inserts, deletions and clones — checked against a scan of Tuples.
func TestRelationByEIDTracksMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewRelation(personSchema(t))
	// Enough entities for the EID table to grow and for deletions to
	// empty slots inside probe runs; "absent" is never inserted.
	var eids []string
	for i := 0; i < 64; i++ {
		eids = append(eids, fmt.Sprintf("e%d", i))
	}
	eids = append(eids, "absent")
	check := func(rel *Relation, step int) {
		t.Helper()
		want := map[string][]int{}
		for _, tp := range rel.Tuples {
			want[tp.EID] = append(want[tp.EID], tp.TID)
			if rel.Get(tp.TID) != tp {
				t.Fatalf("step %d: Get(%d) lost the tuple", step, tp.TID)
			}
		}
		for _, eid := range eids {
			var got []int
			for _, tp := range rel.ByEID(eid) {
				got = append(got, tp.TID)
			}
			if fmt.Sprint(got) != fmt.Sprint(want[eid]) {
				t.Fatalf("step %d: ByEID(%s) = %v, want %v", step, eid, got, want[eid])
			}
		}
		if rel.eids.n != len(want) {
			t.Fatalf("step %d: EID table holds %d entities, want %d", step, rel.eids.n, len(want))
		}
	}
	for step := 0; step < 3000; step++ {
		// Phases of growth and of shrinking, so entities leave the
		// table as well as join it.
		del := 1
		if step/500%2 == 1 {
			del = 3
		}
		if len(r.Tuples) > 0 && rng.Intn(4) < del {
			r.Delete(r.Tuples[rng.Intn(len(r.Tuples))].TID)
		} else {
			r.Insert(eids[rng.Intn(len(eids)-1)], S("x"))
		}
		check(r, step)
		if step%250 == 0 {
			check(r.Clone(), step)
		}
	}
}

// TestRelationSlabAndDenseLookup: tuples carved from a shared chunk keep
// independent value slices (an append copies out rather than overwrite
// the next tuple), and a relation that has never lost a tuple serves
// TID lookups from Tuples until its first deletion.
func TestRelationSlabAndDenseLookup(t *testing.T) {
	r := NewRelation(personSchema(t))
	for i := 0; i < 40; i++ {
		r.Insert(fmt.Sprintf("e%d", i), S(fmt.Sprint(i)), S("x"), I(int64(i)))
	}
	a, b := r.Get(10), r.Get(11)
	grown := append(a.Values, S("extra"))
	grown[0] = S("changed")
	if !b.Values[0].Equal(S("11")) || !a.Values[0].Equal(S("10")) {
		t.Fatalf("append to one tuple's values clobbered its slab neighbours: %v / %v", a.Values, b.Values)
	}
	if r.byTID != nil {
		t.Fatal("a dense relation should not build a TID index")
	}
	if r.Get(-1) != nil || r.Get(40) != nil || r.Get(39).TID != 39 {
		t.Fatal("dense lookup out of range or wrong")
	}
	r.Delete(5)
	if r.byTID == nil || r.Get(5) != nil || r.Get(6).TID != 6 || r.Get(39).TID != 39 {
		t.Fatal("lookups after the first deletion")
	}
	c := r.Clone()
	if c.Get(5) != nil || c.Get(6).TID != 6 || len(c.ByEID("e7")) != 1 {
		t.Fatal("clone of a relation with a hole")
	}
	c.Insert("e7", S("n"), S("y"), I(1))
	if got := c.ByEID("e7"); len(got) != 2 || got[1].TID != 40 {
		t.Fatalf("insert after a clone: ByEID TIDs %d, %d", got[0].TID, got[len(got)-1].TID)
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	db.Add(NewRelation(personSchema(t)))
	db.Add(NewRelation(MustSchema("Store", Attribute{"name", TString})))
	if got := db.Names(); len(got) != 2 || got[0] != "Person" || got[1] != "Store" {
		t.Errorf("names: %v", got)
	}
	db.Rel("Person").Insert("p1", S("a"), S("b"), I(1))
	if db.TupleCount() != 1 {
		t.Error("tuple count")
	}
	c := db.Clone()
	c.Rel("Person").Insert("p2", S("x"), S("y"), I(2))
	if db.TupleCount() != 1 || c.TupleCount() != 2 {
		t.Error("database clone not deep")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := NewRelation(MustSchema("T",
		Attribute{"s", TString},
		Attribute{"n", TInt},
		Attribute{"f", TFloat},
		Attribute{"b", TBool},
		Attribute{"ts", TTime},
	))
	r.Insert("e1", S("hello, world"), I(-5), F(2.5), B(true), TS(1600000000))
	r.Insert("e2", S(`quoted "txt"`), Null(TInt), Null(TFloat), B(false), Null(TTime))
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "T")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("len=%d", got.Len())
	}
	for i, orig := range r.Tuples {
		back := got.Tuples[i]
		if back.EID != orig.EID {
			t.Errorf("row %d eid %q != %q", i, back.EID, orig.EID)
		}
		for j := range orig.Values {
			if !back.Values[j].Equal(orig.Values[j]) {
				t.Errorf("row %d col %d: %v != %v", i, j, back.Values[j], orig.Values[j])
			}
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), "T"); err == nil {
		t.Error("empty csv must fail")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n"), "T"); err == nil {
		t.Error("missing types row must fail")
	}
	if _, err := ReadCSV(strings.NewReader("x,b\nstring,int\n"), "T"); err == nil {
		t.Error("missing eid column must fail")
	}
	if _, err := ReadCSV(strings.NewReader("eid,b\nstring,widget\n"), "T"); err == nil {
		t.Error("unknown type must fail")
	}
	if _, err := ReadCSV(strings.NewReader("eid,b\nstring,int\ne1,notanint\n"), "T"); err == nil {
		t.Error("bad cell must fail")
	}
}
