package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
)

// postingJoinWalkOracle is the walk-then-filter posting join: it walks
// every t of the block exactly as the batch join does and drops the
// pairs binding no dirty tuple only at emission. It is the reference
// the dirty-driven postingJoin must reproduce pair for pair.
func (e *Executor) postingJoinWalkOracle(r *ree.Rule, p *predicate.Predicate, opts Options,
	tuplesT, tuplesS []*data.Tuple, colA, colB *crystal.Column, ai, bi int,
	relS *data.Relation) ([][2]*data.Tuple, bool) {
	if len(tuplesT)+len(tuplesS) < vecMinTuples || !colB.Complete(relS) {
		return nil, false
	}
	tTIDs, tPooled := e.tidsOf(tuplesT)
	if tTIDs == nil {
		return nil, false
	}
	sTIDs, sPooled := e.tidsOf(tuplesS)
	if sTIDs == nil {
		if tPooled {
			putIntBuf(tTIDs)
		}
		return nil, false
	}
	defer func() {
		if tPooled {
			putIntBuf(tTIDs)
		}
		if sPooled {
			putIntBuf(sTIDs)
		}
	}()

	relTName, relSName := r.RelOf(p.T), r.RelOf(p.S)
	shadowT := e.shadowOf(relTName)
	shadowS := e.shadowOf(relSName)

	// s-side: compact shadowed tuples out of the probe targets (posting
	// lists index raw values only) and classify their view values by
	// dictionary id, with a string-keyed overflow for values colB never
	// interned. cleanPos maps compacted index → original position so
	// emission can restore the legacy interleaved bucket order.
	cleanTIDs := sTIDs
	var cleanPos []int32
	var shadowByID map[crystal.ValueID][]int32
	var slow map[string][]*data.Tuple
	var sShadowBuf, cleanPosBuf []int32
	var cleanTIDBuf []int32
	if shadowS != nil {
		sShadowBuf = crystal.IntersectPositions(getPosBuf(), e.shadowSortedOf(relSName), sTIDs)
		if len(sShadowBuf) > 0 {
			cleanTIDBuf = getIntBuf()
			cleanPosBuf = getPosBuf()
			k := 0
			for i, tid := range sTIDs {
				if k < len(sShadowBuf) && int(sShadowBuf[k]) == i {
					k++
					s := tuplesS[i]
					v := valueThrough(e.env, relSName, s, p.B, bi)
					if v.IsNull() {
						continue
					}
					if id, ok := colB.Dict.ID(v); ok {
						if shadowByID == nil {
							shadowByID = make(map[crystal.ValueID][]int32)
						}
						shadowByID[id] = append(shadowByID[id], int32(i))
					} else {
						if slow == nil {
							slow = make(map[string][]*data.Tuple)
						}
						slow[v.Key()] = append(slow[v.Key()], s)
					}
					continue
				}
				cleanTIDBuf = append(cleanTIDBuf, tid)
				cleanPosBuf = append(cleanPosBuf, int32(i))
			}
			cleanTIDs, cleanPos = cleanTIDBuf, cleanPosBuf
		}
	}
	var tShadowPos, tShadowBuf []int32
	if shadowT != nil {
		tShadowBuf = crystal.IntersectPositions(getPosBuf(), e.shadowSortedOf(relTName), tTIDs)
		tShadowPos = tShadowBuf
	}
	matchBuf := getPosBuf()
	defer func() {
		if sShadowBuf != nil {
			putPosBuf(sShadowBuf)
		}
		if cleanTIDBuf != nil {
			putIntBuf(cleanTIDBuf)
		}
		if cleanPosBuf != nil {
			putPosBuf(cleanPosBuf)
		}
		if tShadowBuf != nil {
			putPosBuf(tShadowBuf)
		}
		putPosBuf(matchBuf)
	}()

	sameCol := relTName == relSName && p.A == p.B
	var trans []crystal.ValueID
	if !sameCol {
		trans = e.translation(relTName, p.A, colA, relSName, p.B, colB)
	}
	nullA, hasNullA := colA.Dict.NullID()

	// Dense identity: when tuplesS is the whole relation in TID order with
	// no shadow compaction and no deletions (ascending distinct TIDs from
	// 0 to n-1 covering NextTID), every posting TID is live and equals its
	// own position — the per-probe posting ∩ partition intersection is the
	// identity and the galloping kernel can be skipped entirely.
	denseS := cleanPos == nil && len(cleanTIDs) == relS.NextTID() &&
		len(cleanTIDs) > 0 && cleanTIDs[0] == 0 && int(cleanTIDs[len(cleanTIDs)-1]) == len(cleanTIDs)-1

	// Dirty-filter hoist: the relations are fixed for the whole join, so
	// resolve the two dirty sets once and test pairs with at most two
	// int-keyed probes (none at all in a full, non-incremental run)
	// instead of per-pair rule/relation string lookups.
	var dirtyT, dirtyS map[int]bool
	filtered := opts.Dirty != nil
	if filtered {
		dirtyT, dirtyS = opts.Dirty[relTName], opts.Dirty[relSName]
	}
	curTDirty := false // dirtyT[t.TID] for the t currently enumerating
	pairOK := func(s *data.Tuple) bool {
		return !filtered || curTDirty || (dirtyS != nil && dirtyS[s.TID])
	}

	out := getPairBuf()
	var memo map[crystal.ValueID][]int32
	probes := 0
	origPos := func(m int32) int32 {
		if cleanPos == nil {
			return m
		}
		return cleanPos[m]
	}
	emitOverflow := func(t *data.Tuple, overflow []*data.Tuple) {
		for _, s := range overflow {
			if pairOK(s) {
				out = append(out, [2]*data.Tuple{t, s})
			}
		}
	}
	emitID := func(t *data.Tuple, idB crystal.ValueID, overflow []*data.Tuple) {
		probes++
		if denseS {
			// cleanPos == nil implies no shadowed s tuples were compacted,
			// so shadowByID and slow are empty: the posting list alone is
			// the match set, already in emission (position) order.
			if !filtered || curTDirty {
				for _, tid := range colB.PostingList(idB) {
					out = append(out, [2]*data.Tuple{t, tuplesS[tid]})
				}
			} else {
				for _, tid := range colB.PostingList(idB) {
					s := tuplesS[tid]
					if dirtyS != nil && dirtyS[s.TID] {
						out = append(out, [2]*data.Tuple{t, s})
					}
				}
			}
			emitOverflow(t, overflow)
			return
		}
		var matched []int32
		if posting := colB.PostingList(idB); len(posting) > 0 {
			if len(posting) > heavyPostingLen {
				m, ok := memo[idB]
				if !ok {
					m = crystal.IntersectPositions(nil, posting, cleanTIDs)
					if memo == nil {
						memo = make(map[crystal.ValueID][]int32)
					}
					memo[idB] = m
				}
				matched = m
			} else {
				matchBuf = crystal.IntersectPositions(matchBuf[:0], posting, cleanTIDs)
				matched = matchBuf
			}
		}
		// Merge clean matches with shadowed bucket members ascending by
		// original position: hashJoinInterned builds its bucket in one
		// pass over tuplesS, so this is exactly its emission order.
		shadowList := shadowByID[idB]
		i, j := 0, 0
		for i < len(matched) || j < len(shadowList) {
			var pos int32
			switch {
			case j >= len(shadowList):
				pos = origPos(matched[i])
				i++
			case i >= len(matched):
				pos = shadowList[j]
				j++
			default:
				if pi := origPos(matched[i]); pi < shadowList[j] {
					pos = pi
					i++
				} else {
					pos = shadowList[j]
					j++
				}
			}
			s := tuplesS[pos]
			if pairOK(s) {
				out = append(out, [2]*data.Tuple{t, s})
			}
		}
		emitOverflow(t, overflow)
	}

	vecA := colA.IDVec()
	next := 0
	for i, t := range tuplesT {
		curTDirty = filtered && dirtyT != nil && dirtyT[t.TID]
		if next < len(tShadowPos) && int(tShadowPos[next]) == i {
			next++
			v := valueThrough(e.env, relTName, t, p.A, ai)
			if v.IsNull() {
				continue
			}
			var overflow []*data.Tuple
			if slow != nil {
				overflow = slow[v.Key()]
			}
			if id, ok := colB.Dict.ID(v); ok {
				emitID(t, id, overflow)
			} else {
				emitOverflow(t, overflow)
			}
			continue
		}
		var idA = crystal.NoValue
		if t.TID < len(vecA) {
			idA = vecA[t.TID]
		}
		if idA == crystal.NoValue {
			// TID unseen by colA (insert since last refresh): the raw value
			// is still authoritative for a non-shadowed tuple.
			v := t.Values[ai]
			if v.IsNull() {
				continue
			}
			var overflow []*data.Tuple
			if slow != nil {
				overflow = slow[v.Key()]
			}
			if id, ok := colB.Dict.ID(v); ok {
				emitID(t, id, overflow)
			} else {
				emitOverflow(t, overflow)
			}
			continue
		}
		if hasNullA && idA == nullA {
			continue
		}
		idB := idA
		if !sameCol {
			idB = trans[idA]
		}
		var overflow []*data.Tuple
		if slow != nil {
			if v, ok := colA.Dict.Value(idA); ok {
				overflow = slow[v.Key()]
			}
		}
		if idB != crystal.NoValue {
			emitID(t, idB, overflow)
		} else {
			emitOverflow(t, overflow)
		}
	}
	e.reg.Inc("exec.vec.joins")
	e.reg.Add("exec.vec.join_probes", uint64(probes))
	e.reg.Add("exec.vec.join_pairs", uint64(len(out)))
	return out, true
}

// TestPostingJoinDirtyMatchesWalkOracle is the join-oracle property: on
// random inputs the dirty-driven posting join must emit exactly the
// walk-then-filter oracle's pair sequence. Trials mix nulls, cross-type
// numeric keys, shadowed tuples on either side whose view values are
// null, in the other dictionary, or absent from it (the overflow path),
// dirty tuples on one side or both, same-column self-joins, same-relation
// joins over different columns and cross-relation joins, and non-dense
// partitions (blocks of TID % n with deleted tuples).
func TestPostingJoinDirtyMatchesWalkOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rules := []string{
		"A(t) ^ A(s) ^ t.x = s.x -> t.eid = s.eid",
		"A(t) ^ A(s) ^ t.x = s.z -> t.eid = s.eid",
		"A(t) ^ B(s) ^ t.x = s.y -> t.eid = s.eid",
	}
	val := func() data.Value {
		switch k := rng.Intn(10); {
		case k == 0:
			return data.Null(data.TString)
		case k < 3:
			return data.I(int64(rng.Intn(6)))
		case k < 4:
			return data.F(float64(rng.Intn(6))) // key-equal to I(n)
		default:
			return data.S(fmt.Sprintf("v%d", rng.Intn(25)))
		}
	}
	nonEmpty := 0
	for trial := 0; trial < 400; trial++ {
		db := data.NewDatabase()
		a := data.NewRelation(must.Schema("A",
			data.Attribute{Name: "x", Type: data.TString},
			data.Attribute{Name: "z", Type: data.TString}))
		b := data.NewRelation(must.Schema("B", data.Attribute{Name: "y", Type: data.TString}))
		for _, rel := range []*data.Relation{a, b} {
			for i := 260 + rng.Intn(200); i > 0; i-- {
				rel.Insert("e", val(), val())
			}
			db.Add(rel)
		}
		r := must.Rule(rules[trial%len(rules)], db)
		r.ID = "oracle"
		var p *predicate.Predicate
		for _, q := range r.X {
			if q.Kind == predicate.KAttr && q.Op == predicate.Eq {
				p = q
			}
		}
		relT, relS := db.Rel(r.RelOf(p.T)), db.Rel(r.RelOf(p.S))
		colA, _ := crystal.BuildColumn(relT, p.A)
		colB, _ := crystal.BuildColumn(relS, p.B)
		ai, bi := relT.Schema.Index(p.A), relS.Schema.Index(p.B)
		// Deletions after the build leave stale column entries — the
		// posting readers must drop them by intersecting live blocks.
		for _, rel := range []*data.Relation{a, b} {
			for i := rng.Intn(10); i > 0; i-- {
				rel.Delete(rel.Tuples[rng.Intn(len(rel.Tuples))].TID)
			}
		}
		// Views: shadowed tuples read a random value, a null, or a key no
		// dictionary holds (shared by a few tuples so overflow pairs form).
		shadow := map[string]map[int]bool{"A": {}, "B": {}}
		views := map[string]map[int]data.Value{"A": {}, "B": {}}
		for _, rel := range []*data.Relation{a, b} {
			name := rel.Schema.Name
			for i := rng.Intn(25); i > 0; i-- {
				tid := rel.Tuples[rng.Intn(len(rel.Tuples))].TID
				shadow[name][tid] = true
				v := val()
				if rng.Intn(3) == 0 {
					v = data.S(fmt.Sprintf("only-in-view-%d", rng.Intn(3)))
				}
				views[name][tid] = v
			}
		}
		env := predicate.NewEnv(db)
		env.ValueOf = func(rel string, tp *data.Tuple, attr string) (data.Value, bool) {
			if v, ok := views[rel][tp.TID]; ok {
				return v, true
			}
			return tp.Values[db.Rel(rel).Schema.Index(attr)], true
		}

		dirty := map[string]map[int]bool{}
		sides := []*data.Relation{relT, relS}
		switch rng.Intn(3) {
		case 0:
			sides = sides[:1]
		case 1:
			sides = sides[1:]
		}
		for _, rel := range sides {
			m := dirty[rel.Schema.Name]
			if m == nil {
				m = map[int]bool{}
				dirty[rel.Schema.Name] = m
			}
			for i := 1 + rng.Intn(12); i > 0; i-- {
				m[rel.Tuples[rng.Intn(len(rel.Tuples))].TID] = true
			}
		}

		blockOf := func(rel *data.Relation) []*data.Tuple {
			n := 1 + rng.Intn(3)
			k := rng.Intn(n)
			var blk []*data.Tuple
			for _, tp := range rel.Tuples {
				if tp.TID%n == k {
					blk = append(blk, tp)
				}
			}
			return blk
		}
		tuplesT, tuplesS := blockOf(relT), blockOf(relS)

		e := New(env)
		e.SetShadowTracking(shadow)
		opts := Options{Dirty: dirty}
		got, ok := e.postingJoin(r, p, opts, tuplesT, tuplesS, colA, colB, ai, bi, relT, relS)
		want, okW := e.postingJoinWalkOracle(r, p, opts, tuplesT, tuplesS, colA, colB, ai, bi, relS)
		if !ok || !okW {
			t.Fatalf("trial %d: join declined (dirty %v, oracle %v)", trial, ok, okW)
		}
		if g, w := pairTIDs(got), pairTIDs(want); g != w {
			t.Fatalf("trial %d (%s): dirty-driven pairs diverge from the oracle\n got %s\nwant %s",
				trial, rules[trial%len(rules)], g, w)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 200 {
		t.Fatalf("only %d of 400 trials joined any pair: the fixture no longer exercises the join", nonEmpty)
	}
}

func pairTIDs(pairs [][2]*data.Tuple) string {
	s := ""
	for _, pr := range pairs {
		s += fmt.Sprintf("(%d,%d)", pr[0].TID, pr[1].TID)
	}
	return s
}
