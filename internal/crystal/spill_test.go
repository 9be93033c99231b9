package crystal

import (
	"fmt"
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/must"
)

func spillFixture(t *testing.T, n int) *data.Relation {
	t.Helper()
	rel := data.NewRelation(must.Schema("Ev",
		data.Attribute{Name: "sku", Type: data.TString},
		data.Attribute{Name: "qty", Type: data.TInt},
	))
	for i := 0; i < n; i++ {
		sku := data.S(fmt.Sprintf("S%d", i%97))
		if i%41 == 0 {
			sku = data.Null(data.TString)
		}
		rel.Insert(fmt.Sprintf("e%d", i), sku, data.I(int64(i%13)))
	}
	return rel
}

// assertSameColumn checks a spilled/unspilled column agrees with the
// plain in-memory build on every accessor.
func assertSameColumn(t *testing.T, rel *data.Relation, got, want *Column) {
	t.Helper()
	if got.Dict.Size() != want.Dict.Size() {
		t.Fatalf("dict size %d != %d", got.Dict.Size(), want.Dict.Size())
	}
	gv, wv := got.IDVec(), want.IDVec()
	if len(gv) != len(wv) {
		t.Fatalf("IDVec length %d != %d", len(gv), len(wv))
	}
	for i := range wv {
		if gv[i] != wv[i] {
			t.Fatalf("IDVec[%d] = %d != %d", i, gv[i], wv[i])
		}
	}
	for _, tp := range rel.Tuples {
		g, gok := got.IDAt(tp.TID)
		w, wok := want.IDAt(tp.TID)
		if g != w || gok != wok {
			t.Fatalf("IDAt(%d) = (%d,%v) != (%d,%v)", tp.TID, g, gok, w, wok)
		}
	}
	for id := 0; id < want.Dict.Size(); id++ {
		gp := got.PostingList(ValueID(id))
		wp := want.PostingList(ValueID(id))
		if len(gp) != len(wp) {
			t.Fatalf("PostingList(%d) length %d != %d", id, len(gp), len(wp))
		}
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("PostingList(%d)[%d] = %d != %d", id, i, gp[i], wp[i])
			}
		}
		if err := SortPostingCheck(gp); err != nil {
			t.Fatalf("posting %d: %v", id, err)
		}
	}
	if got.Complete(rel) != want.Complete(rel) {
		t.Fatalf("Complete disagrees: %v != %v", got.Complete(rel), want.Complete(rel))
	}
}

func TestBuildColumnSpilledMatchesResident(t *testing.T) {
	rel := spillFixture(t, 2000)
	want, err := BuildColumn(rel, "sku")
	if err != nil {
		t.Fatal(err)
	}
	for _, force := range []bool{false, true} {
		name := "mmap"
		if force {
			name = "readat"
		}
		t.Run(name, func(t *testing.T) {
			got, err := BuildColumnSpilled(rel, "sku", SpillOptions{Dir: t.TempDir(), ForceReadAt: force})
			if err != nil {
				t.Fatal(err)
			}
			defer got.Close()
			if !got.Spilled() {
				t.Fatal("expected a spilled column")
			}
			if got.SpillBytes() <= 0 {
				t.Fatal("expected a non-empty spill block")
			}
			if !got.Complete(rel) {
				t.Fatal("freshly built column over a delete-free relation must be Complete")
			}
			assertSameColumn(t, rel, got, want)
		})
	}
}

func TestSpillUnspillRoundTrip(t *testing.T) {
	rel := spillFixture(t, 1500)
	want, _ := BuildColumn(rel, "sku")
	col, _ := BuildColumn(rel, "sku")
	resident := col.MemBytes()
	n, err := col.Spill(SpillOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 || !col.Spilled() {
		t.Fatal("Spill must move the column into a block")
	}
	if col.MemBytes() >= resident {
		t.Fatalf("spilled MemBytes %d must drop below resident %d", col.MemBytes(), resident)
	}
	assertSameColumn(t, rel, col, want) // readable while spilled
	if err := col.Unspill(); err != nil {
		t.Fatal(err)
	}
	if col.Spilled() {
		t.Fatal("Unspill must clear the block")
	}
	assertSameColumn(t, rel, col, want)
}

// TestRefreshAfterSpill verifies the Refresh-on-spilled contract: the
// block reloads first, then the dirty TIDs re-intern — same result as a
// never-spilled column refreshed the same way.
func TestRefreshAfterSpill(t *testing.T) {
	rel := spillFixture(t, 1200)
	col, err := BuildColumnSpilled(rel, "sku", SpillOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := BuildColumn(rel, "sku")

	dirty := map[int]bool{}
	for i := 0; i < 40; i++ {
		tid := rel.Tuples[i*7].TID
		rel.SetValue(tid, "sku", data.S(fmt.Sprintf("NEW%d", i%5)))
		dirty[tid] = true
	}
	col.Refresh(rel, SortedTIDs[int](dirty))
	oracle.Refresh(rel, SortedTIDs[int](dirty))
	if col.Spilled() {
		t.Fatal("Refresh must unspill")
	}
	assertSameColumn(t, rel, col, oracle)
}

// TestRefreshEmptiesPostingBucket moves every carrier of one value to
// another: the vacated bucket must come back empty with no stale TIDs,
// the receiving bucket stays sorted, and dictionary lookups of the
// vacated value yield an empty posting view.
func TestRefreshEmptiesPostingBucket(t *testing.T) {
	rel := data.NewRelation(must.Schema("R", data.Attribute{Name: "a", Type: data.TString}))
	for i := 0; i < 30; i++ {
		v := "keep"
		if i%3 == 0 {
			v = "gone"
		}
		rel.Insert(fmt.Sprintf("e%d", i), data.S(v))
	}
	cs, err := BuildColumnStore(rel)
	if err != nil {
		t.Fatal(err)
	}
	col := cs.Columns["a"]
	goneID, ok := col.Dict.ID(data.S("gone"))
	if !ok || len(col.PostingList(goneID)) == 0 {
		t.Fatal("fixture must intern 'gone' with carriers")
	}
	dirty := map[int]bool{}
	for _, tp := range rel.Tuples {
		if tp.Values[0].Equal(data.S("gone")) {
			rel.SetValue(tp.TID, "a", data.S("keep"))
			dirty[tp.TID] = true
		}
	}
	cs.Refresh(SortedTIDs[int](dirty))

	if p := col.PostingList(goneID); len(p) != 0 {
		t.Fatalf("vacated bucket still holds %v", p)
	}
	if view := cs.TIDsView("a", data.S("gone")); view != nil {
		t.Fatalf("TIDsView of the vacated value must be nil, got %v", view)
	}
	keep := cs.TIDsView("a", data.S("keep"))
	if len(keep) != rel.Len() {
		t.Fatalf("receiving bucket has %d TIDs, want every one of %d", len(keep), rel.Len())
	}
	if err := SortPostingCheck(keep); err != nil {
		t.Fatal(err)
	}
	for _, tp := range rel.Tuples {
		id, ok := col.IDAt(tp.TID)
		if !ok || id == goneID {
			t.Fatalf("TID %d still maps to the vacated id", tp.TID)
		}
	}
}

func TestCompleteTracksHolesAndInserts(t *testing.T) {
	rel := spillFixture(t, 100)
	col, _ := BuildColumn(rel, "sku")
	if !col.Complete(rel) {
		t.Fatal("fresh build must be Complete")
	}
	// An insert after the build leaves the new TID unseen.
	rel.Insert("late", data.S("S1"), data.I(1))
	if col.Complete(rel) {
		t.Fatal("column must not be Complete after an unseen insert")
	}
	col.Refresh(rel, []int{rel.Tuples[len(rel.Tuples)-1].TID})
	if !col.Complete(rel) {
		t.Fatal("refreshing the inserted TID must restore completeness")
	}
	// A delete leaves a stale dense slot but no hole — the TID is simply
	// no longer live; completeness is about coverage of assigned TIDs.
	tid := rel.Tuples[0].TID
	rel.Delete(tid)
	if !col.Complete(rel) {
		t.Fatal("Complete tracks assigned-TID coverage, not liveness")
	}
}
