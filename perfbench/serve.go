package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/serve"
	"github.com/rockclean/rock/internal/workload"
	"github.com/rockclean/rock/rock"
)

const (
	tenant = "bench"
	// tuplesPerIngest is serve-bank's ingest size.
	tuplesPerIngest = 4
	// maxGenLag bounds the open-loop generator's 99th-percentile dispatch
	// lag; past it the generator fell behind schedule, the offered rate
	// did not hold and the run is invalid.
	maxGenLag = 100 * time.Millisecond
)

// customer is one generated Customer tuple the load reuses.
type customer struct {
	tid                                 int
	eid, name, phone, cmp, city, branch string
}

// serveRig is one warm in-process rockd tenant behind real HTTP.
type serveRig struct {
	srv    *serve.Server
	hs     *httptest.Server
	tr     *http.Transport
	client *http.Client
	base   string
}

// setupServe generates Bank, starts a server whose tenant pipeline is
// assembled like every other workload's, and warms the tenant with one
// full /clean (which builds it).
func setupServe(ctx context.Context, c runConfig, o *outcome, traced bool) (*serveRig, bankLoad, error) {
	t0 := time.Now()
	ds := workload.Bank(workload.Config{N: c.sz.bankN, Seed: c.seed})
	gen := time.Since(t0)
	// Read the inputs before the tenant owns the database.
	load, err := newBankLoad(ds, c.seed, int(c.seconds*c.sz.ingestRate))
	if err != nil {
		return nil, load, err
	}
	cfg := serve.DefaultConfig()
	if traced {
		cfg.SpanCap = spanCap
	}
	var asm atomic.Int64
	srv := serve.New(cfg, func(_ string, reg *obs.Registry) (*rock.Pipeline, error) {
		opts := c.opts
		opts.Obs = reg
		a0 := time.Now()
		p, err := assemble(ds, opts)
		if err != nil {
			return nil, err
		}
		// The copied customers' names are master data. Rock applies only
		// certain fixes: without ground truth on either side, two names
		// sharing a phone are an unresolved conflict, not a repair.
		for _, cu := range load.copied {
			if err := p.Validate("Customer", cu.eid, "name", rock.S(cu.name)); err != nil {
				return nil, err
			}
		}
		asm.Store(int64(time.Since(a0)))
		return p, nil
	})
	// One process opens at most nproc connections.
	tr := &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	rig := &serveRig{srv: srv, hs: httptest.NewServer(srv.Handler()), tr: tr,
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
	rig.base = rig.hs.URL + "/v1/" + tenant
	var cr serve.CleanResponse
	if _, err := rig.do(ctx, http.MethodPost, rig.base+"/clean", nil, &cr); err != nil {
		rig.close()
		return nil, load, fmt.Errorf("warm clean: %w", err)
	}
	if cr.Partial {
		rig.close()
		return nil, load, fmt.Errorf("warm clean came back partial")
	}
	o.addSetup(gen, time.Duration(asm.Load()), time.Since(t0))
	o.input = fmt.Sprintf("Bank: %d tuples", len(load.all)+load.others)
	return rig, load, nil
}

func (r *serveRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = r.srv.Shutdown(ctx) // a drain timeout only delays exit; the process ends next
	r.hs.Close()
	r.tr.CloseIdleConnections()
}

// do sends one request and decodes a 2xx JSON response into out.
func (r *serveRig) do(ctx context.Context, method, u string, body, out any) (time.Duration, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, u, &buf)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("%s %s: status %d", method, u, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return 0, fmt.Errorf("%s %s: %w", method, u, err)
		}
	}
	return time.Since(start), nil
}

// typo swaps two adjacent distinct letters of s at a seeded position.
func typo(rng *rand.Rand, s string) string {
	b := []byte(s)
	for tries := 0; tries < 64; tries++ {
		i := rng.Intn(len(b) - 1)
		if b[i] != b[i+1] && isLetter(b[i]) && isLetter(b[i+1]) {
			b[i], b[i+1] = b[i+1], b[i]
			return string(b)
		}
	}
	return s + "x"
}

func isLetter(c byte) bool { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }

// bankLoad is serve-bank's generated traffic. Each ingest copies
// customers whose phone is unique, with a typo'd name, so M_ER merges
// each copy with its original (cnc-er) and cnc-cr restores the name;
// point reads target every base Customer tuple.
type bankLoad struct {
	all     []customer
	others  int // tuples of the other relations
	ingests []ingest
	copied  []customer // the customers the ingests copy
}

// ingest is one prepared ingest: the request and the names cleaning
// must restore, by inserted EID.
type ingest struct {
	req  serve.IngestRequest
	want map[string]string
}

func newBankLoad(ds *workload.Dataset, seed int64, nIngest int) (bankLoad, error) {
	rel := ds.DB.Rel("Customer")
	phones := map[string]int{}
	for _, t := range rel.Tuples {
		phones[t.Values[1].String()]++
	}
	var l bankLoad
	var singles []customer
	for _, t := range rel.Tuples {
		cu := customer{tid: t.TID, eid: t.EID, name: t.Values[0].String(), phone: t.Values[1].String(),
			cmp: t.Values[2].String(), city: t.Values[3].String(), branch: t.Values[4].String()}
		l.all = append(l.all, cu)
		if phones[cu.phone] == 1 && !t.Values[3].IsNull() {
			singles = append(singles, cu)
		}
	}
	l.others = ds.DB.TupleCount() - len(l.all)
	if nIngest*tuplesPerIngest > len(singles) {
		return l, fmt.Errorf("%d ingests need %d unique-phone customers, Bank has %d",
			nIngest, nIngest*tuplesPerIngest, len(singles))
	}
	rng := rand.New(rand.NewSource(seed + 11))
	rng.Shuffle(len(singles), func(i, j int) { singles[i], singles[j] = singles[j], singles[i] })
	l.copied = singles[:nIngest*tuplesPerIngest]
	for k := 0; k < nIngest; k++ {
		in := ingest{req: serve.IngestRequest{Rel: "Customer"}, want: map[string]string{}}
		for j, cu := range l.copied[k*tuplesPerIngest : (k+1)*tuplesPerIngest] {
			eid := fmt.Sprintf("ing%d-%d", k, j)
			in.req.Tuples = append(in.req.Tuples, serve.IngestTuple{EID: eid,
				Values: []string{typo(rng, cu.name), cu.phone, cu.cmp, cu.city, cu.branch}})
			in.want[eid] = cu.name
		}
		l.ingests = append(l.ingests, in)
	}
	return l, nil
}

// event is one open-loop request: an ingest (with its tokened read) or
// an untokened point read.
type event struct {
	due    time.Time
	ingest int // index into the prepared ingests, or -1 for a read
	target customer
}

// eventResult is what one event measured.
type eventResult struct {
	lat, ingestLat time.Duration
	err            error
	tp, fp, fn     int
}

func runServeBank(ctx context.Context, c runConfig, o *outcome) error {
	var rig *serveRig
	var load bankLoad
	for i := 0; i < c.sz.setups; i++ {
		r, l, err := setupServe(ctx, c, o, c.trace)
		if err != nil {
			return err
		}
		if i < c.sz.setups-1 {
			r.close()
			runtime.GC()
			continue
		}
		rig, load = r, l
	}
	defer rig.close()
	tn, err := rig.srv.Tenant(tenant)
	if err != nil {
		return err
	}
	// The benchmark's own spans go to the tenant's registry (one clock
	// with the program's spans) in a traced run only.
	reg := tn.Registry()
	spans := reg
	if !c.trace {
		spans = nil
	}

	window := time.Duration(c.seconds * float64(time.Second))
	nIngest := len(load.ingests)
	nRead := int(c.seconds * c.sz.queryRate)
	// Where the fix ledger ends after the warm clean: every fix of an
	// ingest lands past the cursor read before it is sent.
	var ledger atomic.Int64
	var fr serve.FixesResponse
	if _, err := rig.do(ctx, http.MethodGet, rig.base+"/fixes?since=1073741824", nil, &fr); err != nil {
		return err
	}
	ledger.Store(int64(fr.Total))

	rng := rand.New(rand.NewSource(c.seed + 17))
	start := time.Now().Add(50 * time.Millisecond)
	var events []event
	for k := 0; k < nIngest; k++ {
		events = append(events, event{due: start.Add(time.Duration(float64(k) / c.sz.ingestRate * float64(time.Second))), ingest: k})
	}
	for j := 0; j < nRead; j++ {
		due := start.Add(time.Duration((float64(j) + 0.5) / c.sz.queryRate * float64(time.Second)))
		events = append(events, event{due: due, ingest: -1, target: load.all[rng.Intn(len(load.all))]})
	}
	sort.Slice(events, func(a, b int) bool { return events[a].due.Before(events[b].due) })

	results := make([]eventResult, len(events))
	lags := make([]float64, 0, len(events))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	before := reg.Snapshot()
	rt0 := readRuntime()
	heap := startHeapSampler()
	winSpan := spans.StartSpan("bench.window", nil)
	for i, ev := range events {
		time.Sleep(time.Until(ev.due))
		lags = append(lags, ms(time.Since(ev.due)))
		wg.Add(1)
		if ev.ingest >= 0 {
			inflight.Add(1)
		}
		go func(i int, ev event) {
			defer wg.Done()
			if ev.ingest >= 0 {
				defer inflight.Add(-1)
				results[i] = rig.ingestAndRead(ctx, ev, load.ingests[ev.ingest], &ledger, spans)
				return
			}
			results[i] = rig.pointRead(ctx, ev, spans)
		}(i, ev)
	}
	time.Sleep(time.Until(start.Add(window)))
	backlog := inflight.Load()
	wg.Wait()
	winSpan.End()
	peak := heap.Stop()
	rt1 := readRuntime()
	after := reg.Snapshot()

	var visible, reads, ingestMs []float64
	for i, ev := range events {
		res := results[i]
		r := o.begin()
		if res.err != nil {
			r.fail("%v", res.err)
			continue
		}
		if ev.ingest < 0 {
			reads = append(reads, ms(res.lat))
			continue
		}
		visible = append(visible, ms(res.lat))
		ingestMs = append(ingestMs, ms(res.ingestLat))
		o.tp += res.tp
		o.fp += res.fp
		o.fn += res.fn
		if res.fp+res.fn > 0 {
			r.fail("ingest %d: %d typos not corrected, %d wrong fixes", ev.ingest, res.fn, res.fp)
		}
	}
	o.opMs = visible
	o.peakMB = append(o.peakMB, peak)
	lag := quantile(lags, 0.99)
	if lag > ms(maxGenLag) || float64(backlog) > c.sz.ingestRate {
		// The offered rate did not hold: do not pass its latencies off as
		// measured at that rate.
		o.begin().fail("run invalid: p99 generator lag %.1f ms (limit %v), final backlog %d ingests (limit %.0f)",
			lag, maxGenLag, backlog, c.sz.ingestRate)
	}
	client := map[string]float64{
		"serve.ingest_ms":      median(ingestMs),
		"serve.gen_lag_ms":     lag,
		"serve.backlog_final":  float64(backlog),
		"serve.visible_p95_ms": quantile(visible, 0.95),
		"serve.query_p50_ms":   median(reads),
		"serve.query_p95_ms":   quantile(reads, 0.95),
	}
	o.put("visible_p50_ms", median(visible), "ms")
	o.put("visible_p95_ms", client["serve.visible_p95_ms"], "ms")
	o.put("query_p50_ms", client["serve.query_p50_ms"], "ms")
	o.put("query_p95_ms", client["serve.query_p95_ms"], "ms")
	o.put("serve.gen_lag_ms", lag, "ms")
	o.put("serve.backlog_final", float64(backlog), "count")
	o.put("correct_f1", o.correctF1(), "ratio")
	if !c.trace {
		return nil
	}

	// Per-layer: every incremental batch the tenant ran in the window.
	layers := newLayerSums()
	tree := newSpanTree(reg.Spans())
	win, ok := spanByID(tree, winSpan.ID())
	if !ok {
		return fmt.Errorf("benchmark window span missing from the tenant trace")
	}
	var batchMs []float64
	var busy time.Duration
	for _, root := range tree.roots(win.Start, win.End, "clean.incremental") {
		layers.addRoot(tree, root, 0)
		batchMs = append(batchMs, ms(dur(root)))
		busy += dur(root)
	}
	layers.addCounters(before, after)
	layers.addRuntime(rt0, rt1)
	// The tenant, not the benchmark, calls CleanIncrementalReport; its own
	// batch timing also covers rendering the fix ledger, so the ratio is
	// reported but not checked.
	hist := after.Histograms["serve.batch.clean"].Sum - before.Histograms["serve.batch.clean"].Sum
	layers.add["wall_s"] = hist.Seconds()
	o.layers = map[string]float64{}
	layers.finish(o.layers)
	for k, v := range client {
		o.layers[k] = v
	}
	o.layers["workload.generate_s"] = median(o.generate)
	o.layers["rock.assemble_s"] = median(o.assemble)
	o.layers["serve.batch_ms"] = median(batchMs)
	o.layers["serve.batch_tuples"] = ratio(float64(after.Counters["serve.batch.tuples"]-before.Counters["serve.batch.tuples"]),
		float64(after.Counters["serve.batches"]-before.Counters["serve.batches"]))
	o.layers["serve.queue_wait_ms"] = median(visible) - median(batchMs)
	o.layers["serve.busy_ratio"] = busy.Seconds() / dur(win).Seconds()
	// A tenant always records spans, so no untraced serving run exists to
	// compare against: the overhead is not measured here.
	o.layers["trace.overhead_ratio"] = 0
	checkDropped(reg, func(format string, args ...any) { o.begin().fail(format, args...) })
	return writeSpans(c.traceDir, o.workload, c.seed, tree.spans)
}

// ingestAndRead sends one ingest, then the tokened read-your-fixes read
// of the fix ledger, and checks that every typo came back corrected.
func (r *serveRig) ingestAndRead(ctx context.Context, ev event, in ingest, ledger *atomic.Int64, reg *obs.Registry) eventResult {
	var res eventResult
	sp := reg.StartSpan("bench.ingest", nil)
	defer sp.End()
	since := ledger.Load()
	var ir serve.IngestResponse
	res.ingestLat, res.err = r.do(ctx, http.MethodPost, r.base+"/ingest", in.req, &ir)
	if res.err != nil {
		return res
	}
	var fr serve.FixesResponse
	q := url.Values{"token": {fmt.Sprint(ir.Token)}, "since": {fmt.Sprint(since)}, "timeout_ms": {"20000"}}
	rsp := reg.StartSpan("bench.read", sp)
	_, res.err = r.do(ctx, http.MethodGet, r.base+"/fixes?"+q.Encode(), nil, &fr)
	rsp.End()
	res.lat = time.Since(ev.due)
	if res.err != nil {
		return res
	}
	// Advance the shared cursor to the largest ledger total seen.
	for cur := ledger.Load(); int64(fr.Total) > cur && !ledger.CompareAndSwap(cur, int64(fr.Total)); cur = ledger.Load() {
	}
	fixed := map[string]bool{}
	for _, f := range fr.Fixes {
		want, ours := in.want[f.EID]
		if !ours {
			continue
		}
		if f.Attr == "name" && f.New == want {
			fixed[f.EID] = true
		} else {
			res.fp++
		}
	}
	res.tp = len(fixed)
	res.fn = len(in.want) - len(fixed)
	return res
}

// pointRead sends one untokened /query read and checks it returns the
// requested tuple.
func (r *serveRig) pointRead(ctx context.Context, ev event, reg *obs.Registry) eventResult {
	var res eventResult
	sp := reg.StartSpan("bench.query", nil)
	defer sp.End()
	var qr serve.QueryResponse
	q := url.Values{"rel": {"Customer"}, "tid": {fmt.Sprint(ev.target.tid)}}
	_, res.err = r.do(ctx, http.MethodGet, r.base+"/query?"+q.Encode(), nil, &qr)
	res.lat = time.Since(ev.due)
	if res.err == nil && qr.EID != ev.target.eid {
		res.err = fmt.Errorf("query Customer[%d]: eid %q, want %q", ev.target.tid, qr.EID, ev.target.eid)
	}
	return res
}
