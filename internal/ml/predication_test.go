package ml

import (
	"strconv"
	"sync"
	"testing"

	"github.com/rockclean/rock/internal/data"
)

func vals(ss ...string) []data.Value {
	out := make([]data.Value, len(ss))
	for i, s := range ss {
		out[i] = data.S(s)
	}
	return out
}

func TestPredicatedModelThresholded(t *testing.T) {
	calls := 0
	inner := &FuncModel{ModelName: "f", Threshold: 0.5, Score: func(l, r []data.Value) float64 {
		calls++
		return 0.9
	}}
	p := NewPredication()
	m := p.Wrap(inner)
	l, r := vals("a"), vals("b")
	// Predict derives from the cached confidence: one inner call total.
	if !m.Predict(l, r) || !m.Predict(l, r) || m.Confidence(l, r) != 0.9 {
		t.Error("predicated decisions wrong")
	}
	if calls != 1 {
		t.Errorf("inner model called %d times, want 1", calls)
	}
	st := p.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats hits=%d misses=%d, want 2/1", st.Hits, st.Misses)
	}
}

// opaqueModel has no DecisionThreshold: its Boolean decisions must still
// be memoised (the bug CachedModel used to have).
type opaqueModel struct {
	predicts int
}

func (o *opaqueModel) Name() string                         { return "opaque" }
func (o *opaqueModel) Confidence(l, r []data.Value) float64 { return 0.7 }
func (o *opaqueModel) Predict(l, r []data.Value) bool       { o.predicts++; return true }

func TestPredicatedModelOpaqueBoolCached(t *testing.T) {
	inner := &opaqueModel{}
	p := NewPredication()
	m := p.Wrap(inner)
	l, r := vals("a"), vals("b")
	if !m.Predict(l, r) || !m.Predict(l, r) || !m.Predict(l, r) {
		t.Error("predictions wrong")
	}
	if inner.predicts != 1 {
		t.Errorf("inner Predict called %d times, want 1", inner.predicts)
	}
}

func TestCachedModelOpaqueBoolCached(t *testing.T) {
	inner := &opaqueModel{}
	c := NewCachedModel(inner)
	l, r := vals("a"), vals("b")
	if !c.Predict(l, r) || !c.Predict(l, r) {
		t.Error("predictions wrong")
	}
	if inner.predicts != 1 {
		t.Errorf("inner Predict called %d times, want 1 (bool decisions must cache)", inner.predicts)
	}
}

func TestWarmDoesNotCountLookups(t *testing.T) {
	calls := 0
	inner := &FuncModel{ModelName: "f", Threshold: 0.5, Score: func(l, r []data.Value) float64 {
		calls++
		return 0.6
	}}
	p := NewPredication()
	m := p.Wrap(inner)
	l, r := vals("x"), vals("y")
	m.Warm(l, r)
	m.Warm(l, r) // second warm finds the entry; no recompute
	if calls != 1 {
		t.Errorf("inner called %d times during warming, want 1", calls)
	}
	st := p.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Errorf("warming moved lookup counters: hits=%d misses=%d", st.Hits, st.Misses)
	}
	if st.Warmed != 1 {
		t.Errorf("warmed=%d, want 1", st.Warmed)
	}
	// The warmed entry now serves lookups as hits.
	if !m.Predict(l, r) {
		t.Error("prediction wrong")
	}
	if calls != 1 {
		t.Errorf("inner recomputed after warm: %d calls", calls)
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("post-warm lookup: hits=%d misses=%d, want 1/0", st.Hits, st.Misses)
	}
}

func TestPredCacheEvictionBounded(t *testing.T) {
	c := NewPredCache(256)
	for i := 0; i < 10000; i++ {
		c.putConf(predKey{model: 1, left: uint32(i), right: uint32(i)}, float64(i))
	}
	// capPerShard = 256/32 = 8 (each shard evicts to 3/4 before insert).
	if n := c.Len(); n > 256+32 {
		t.Errorf("cache grew past its bound: %d entries", n)
	}
	_, _, ev, _ := c.Stats()
	if ev == 0 {
		t.Error("no evictions counted despite overflow")
	}
}

func TestEmbedStoreVersioning(t *testing.T) {
	s := NewEmbedStore(0)
	computes := 0
	compute := func() Vector {
		computes++
		var v Vector
		v[0] = float64(computes)
		return v
	}
	a := s.Embed("R", 7, "name", compute)
	b := s.Embed("R", 7, "name", compute)
	if computes != 1 || a != b {
		t.Fatalf("expected one compute and a cached vector, got %d", computes)
	}
	// A different attr set keys separately.
	s.Embed("R", 7, "name,addr", compute)
	if computes != 2 {
		t.Fatalf("attr-set signature not part of the key: %d computes", computes)
	}
	// Invalidation retires every entry of the tuple at once.
	s.Invalidate("R", 7)
	c := s.Embed("R", 7, "name", compute)
	if computes != 3 {
		t.Fatalf("invalidated entry still served: %d computes", computes)
	}
	if c == a {
		t.Error("stale vector returned after invalidation")
	}
	// Other tuples are untouched.
	s.Embed("R", 8, "name", compute)
	before := computes
	s.Embed("R", 8, "name", compute)
	if computes != before {
		t.Error("unrelated tuple invalidated")
	}
	hits, misses, invals, _ := s.Stats()
	if invals != 1 || hits == 0 || misses == 0 {
		t.Errorf("stats hits=%d misses=%d invals=%d", hits, misses, invals)
	}
}

// TestEmbedStoreInvalidateRetainsOnlyEmbedded: invalidating tuples that
// were never embedded — every insert of a stream, under rules without
// embeddings — must leave nothing behind, while an embedded tuple keeps
// its version so the invalidation still retires its vectors. A vector
// computed across an invalidation of its tuple is not cached.
func TestEmbedStoreInvalidateRetainsOnlyEmbedded(t *testing.T) {
	s := NewEmbedStore(0)
	for tid := 0; tid < 1000; tid++ {
		s.Invalidate("R", tid)
	}
	versions := func() int {
		n := 0
		for i := range s.shards {
			n += len(s.shards[i].vers)
		}
		return n
	}
	if n := versions(); n != 0 {
		t.Fatalf("invalidating unembedded tuples retained %d versions", n)
	}
	computes := 0
	compute := func() Vector {
		computes++
		var v Vector
		v[0] = float64(computes)
		return v
	}
	a := s.Embed("R", 5, "name", compute)
	s.Invalidate("R", 5)
	if b := s.Embed("R", 5, "name", compute); computes != 2 || b == a {
		t.Fatalf("invalidation of an embedded tuple not honoured: %d computes", computes)
	}
	// The tuple changes while its embedding is computed: the result is
	// returned but not served to the next caller.
	s.Embed("R", 6, "name", func() Vector {
		s.Invalidate("R", 6)
		return compute()
	})
	before := computes
	s.Embed("R", 6, "name", compute)
	if computes != before+1 {
		t.Error("a vector computed across an invalidation was cached")
	}
}

func TestPairKeyFormat(t *testing.T) {
	// pairKey must keep CachedModel's historical format: each value key
	// followed by 0x1e, with 0x1d between the sides.
	naive := func(left, right []data.Value) string {
		key := ""
		for _, v := range left {
			key += v.Key() + "\x1e"
		}
		key += "\x1d"
		for _, v := range right {
			key += v.Key() + "\x1e"
		}
		return key
	}
	cases := [][2][]data.Value{
		{vals("a", "b"), vals("c")},
		{vals(), vals("x")},
		{vals("x"), vals()},
		{vals(), vals()},
		{vals("has\x1esep"), vals("and\x1dmore")},
	}
	for i, c := range cases {
		if got, want := pairKey(c[0], c[1]), naive(c[0], c[1]); got != want {
			t.Errorf("case %d: pairKey=%q, naive=%q", i, got, want)
		}
	}
}

func TestInternerExact(t *testing.T) {
	in := newInterner()
	a := in.ID("alpha")
	if b := in.ID("alpha"); b != a {
		t.Error("re-interning changed the ID")
	}
	if c := in.ID("beta"); c == a {
		t.Error("distinct strings collided")
	}
}

// TestPredicationConcurrent hammers the sharded caches and the model
// registry from 8 goroutines; run under -race it verifies the striped
// locking (no torn counters, no map races).
func TestPredicationConcurrent(t *testing.T) {
	p := NewPredication()
	reg := NewRegistry()
	inner := NewSimilarityMatcher("M_ER", 0.8)
	reg.Register(p.Wrap(inner))

	const goroutines = 8
	const iters = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m, err := reg.Get("M_ER")
				if err != nil {
					t.Error(err)
					return
				}
				l := vals("left-" + strconv.Itoa(i%37))
				r := vals("right-" + strconv.Itoa((i+g)%41))
				m.Predict(l, r)
				m.Confidence(l, r)
				if pm, ok := m.(*PredicatedModel); ok && i%7 == 0 {
					pm.Warm(l, r)
				}
				p.Embeds.Embed("R", i%17, "attrs", func() Vector { return Embed(l[0].Str()) })
				if i%31 == 0 {
					p.Embeds.Invalidate("R", i%17)
				}
				if i%13 == 0 {
					// Concurrent re-registration (the chase rewraps shared
					// registries); readers must keep resolving.
					reg.Register(p.Wrap(Unwrap(m)))
				}
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Lookups() == 0 {
		t.Error("no lookups recorded")
	}
	if st.EmbedHits+st.EmbedMisses == 0 {
		t.Error("no embed traffic recorded")
	}
}

// TestRewrapReusesWrapper: a long-lived layer is rewrapped by every
// engine of its pipeline. Each model must keep one wrapper, so the
// wrapper list and ModelStats stay bounded by the number of models and
// one row accumulates every run's lookups.
func TestRewrapReusesWrapper(t *testing.T) {
	p := NewPredication()
	inner := NewSimilarityMatcher("M_ER", 0.8)
	first := p.Wrap(inner)
	first.Predict(vals("a"), vals("b"))
	for i := 0; i < 100; i++ {
		if w := p.Wrap(Unwrap(first)); w != first {
			t.Fatalf("rewrap %d built a new wrapper", i)
		}
	}
	first.Predict(vals("a"), vals("b"))
	if other := p.Wrap(NewSimilarityMatcher("M_ER", 0.8)); other == first {
		t.Fatal("a different model instance must get its own wrapper")
	}
	if n := len(p.wrapped); n != 2 {
		t.Fatalf("%d wrappers retained, want 2", n)
	}
	if got := p.ModelStats()["M_ER"]; got != [2]uint64{1, 1} {
		t.Fatalf("M_ER hits/misses = %v, want one miss then one hit", got)
	}
}

// --- benchmarks (satellite: show the allocation/caching wins) ---

func BenchmarkEmbed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Embed("Apple Jingdong Self-run Flagship Store")
	}
}

func BenchmarkStringSim(b *testing.B) {
	b.Run("short", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			StringSim("IPhone 14 (Discount ID 41)", "IPhone 14 (Discount Code 41)")
		}
	})
	long := make([]byte, 2*MaxEditLen)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	b.Run("long-cutoff", func(b *testing.B) {
		// Past MaxEditLen the quadratic edit-distance pass is skipped.
		b.ReportAllocs()
		s := string(long)
		for i := 0; i < b.N; i++ {
			StringSim(s, s[1:])
		}
	})
}

func BenchmarkPairKey(b *testing.B) {
	left := vals("Smith", "Christine", "5 Beijing West Road")
	right := vals("Smith", "Christine", "12 Beijing Road")
	b.Run("builder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pairKey(left, right)
		}
	})
	// The pre-optimisation += version, kept for comparison: each +=
	// reallocates and copies the whole prefix.
	naive := func(left, right []data.Value) string {
		key := ""
		for _, v := range left {
			key += v.Key() + "\x1e"
		}
		key += "\x1d"
		for _, v := range right {
			key += v.Key() + "\x1e"
		}
		return key
	}
	b.Run("naive-concat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			naive(left, right)
		}
	})
}

func BenchmarkPredicationStore(b *testing.B) {
	mk := func() (*Predication, *PredicatedModel) {
		p := NewPredication()
		return p, p.Wrap(NewSimilarityMatcher("M_ER", 0.8))
	}
	left, right := vals("IPhone 14 (Discount ID 41)"), vals("IPhone 14 (Discount Code 41)")
	b.Run("hit", func(b *testing.B) {
		_, m := mk()
		m.Predict(left, right)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Predict(left, right)
		}
	})
	b.Run("miss", func(b *testing.B) {
		_, m := mk()
		pairs := make([][2][]data.Value, 1024)
		for i := range pairs {
			pairs[i] = [2][]data.Value{vals("left-" + strconv.Itoa(i)), vals("right-" + strconv.Itoa(i))}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr := pairs[i%len(pairs)]
			m.Predict(pr[0], pr[1])
		}
	})
	b.Run("invalidation", func(b *testing.B) {
		p, _ := mk()
		var v Vector
		compute := func() Vector { return v }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Embeds.Embed("R", i%64, "sig", compute)
			if i%8 == 0 {
				p.Embeds.Invalidate("R", i%64)
			}
		}
	})
}

func BenchmarkCachedModelPredict(b *testing.B) {
	// The pre-layer global-mutex cache, for comparison with
	// BenchmarkPredicationStore/hit.
	c := NewCachedModel(NewSimilarityMatcher("M_ER", 0.8))
	left, right := vals("IPhone 14 (Discount ID 41)"), vals("IPhone 14 (Discount Code 41)")
	c.Predict(left, right)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Predict(left, right)
	}
}
