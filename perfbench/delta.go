package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/workload"
	"github.com/rockclean/rock/rock"
)

// warmScale is a Scale pipeline after its batch clean, plus what the
// delta generator needs: every sku group's manufacturer.
type warmScale struct {
	p      *rock.Pipeline
	reg    *obs.Registry // nil when untraced
	last   obs.Snapshot  // the registry after the previous traced run
	skus   []string
	skuMfg map[string]string
}

// setupWarmScale generates Scale at sizes.deltaBaseN tuples, assembles
// its pipeline and runs the warm batch clean.
func setupWarmScale(ctx context.Context, c runConfig, o *outcome, traced bool) (*warmScale, error) {
	opts := c.opts
	if traced {
		opts.Obs = newTraceRegistry()
	}
	reg := opts.Obs
	t0 := time.Now()
	sp := reg.StartSpan("bench.generate", nil)
	ds := workload.Scale(workload.Config{N: c.sz.deltaBaseN, Seed: c.seed})
	sp.End()
	t1 := time.Now()
	sp = reg.StartSpan("bench.assemble", nil)
	p, err := assemble(ds, opts)
	sp.End()
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	w := &warmScale{p: p, reg: reg, skuMfg: map[string]string{}}
	events := ds.DB.Rel("Events")
	for _, t := range events.Tuples {
		if !t.Values[1].IsNull() {
			w.skuMfg[t.Values[0].String()] = t.Values[1].String()
		}
	}
	for sku := range w.skuMfg {
		w.skus = append(w.skus, sku)
	}
	sort.Strings(w.skus)
	sp = reg.StartSpan("bench.clean", nil)
	rep, err := p.CleanCtx(ctx)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("warm clean: %w", err)
	}
	if rep.Partial {
		return nil, fmt.Errorf("warm clean came back partial")
	}
	w.last = rep.Metrics
	o.addSetup(t1.Sub(t0), t2.Sub(t1), time.Since(t0))
	o.input = fmt.Sprintf("Scale: %d tuples, deltas of %d inserted tuples", ds.DB.TupleCount(), c.sz.deltaSize)
	return w, nil
}

// deltaTuple is one generated insert and the gold value of its null.
type deltaTuple struct {
	eid    string
	values []rock.Value
	null   string // "mfg", "code" or "" for a clean tuple
	want   rock.Value
}

// makeDelta draws size tuples into existing sku groups. A quarter carry a
// null manufacturer (gold: the group's) and an eighth a null code in
// region R7 (gold: C7); the rest are clean.
func makeDelta(rng *rand.Rand, w *warmScale, k, size int) []deltaTuple {
	out := make([]deltaTuple, size)
	for i := range out {
		sku := w.skus[rng.Intn(len(w.skus))]
		mfg := rock.S(w.skuMfg[sku])
		region := rng.Intn(10)
		dt := deltaTuple{eid: fmt.Sprintf("d%d-%d", k, i)}
		code := rock.S(fmt.Sprintf("C%d", region))
		switch {
		case i%4 == 0:
			dt.null, dt.want = "mfg", mfg
			mfg = rock.Null(rock.TString)
		case i%8 == 1:
			region = 7
			dt.null, dt.want = "code", rock.S("C7")
			code = rock.Null(rock.TString)
		}
		dt.values = []rock.Value{rock.S(sku), mfg, rock.S(fmt.Sprintf("R%d", region)), code}
		out[i] = dt
	}
	return out
}

func runDeltaScale(ctx context.Context, c runConfig, o *outcome) error {
	// Set up sizes.setups times for the set-up median; keep the last one
	// (traced run: the last two, the untraced one first).
	var pipes []*warmScale
	for i := 0; i < c.sz.setups; i++ {
		keep := i == c.sz.setups-1 || (c.trace && i == c.sz.setups-2)
		w, err := setupWarmScale(ctx, c, o, c.trace && i == c.sz.setups-1)
		if err != nil {
			return err
		}
		if keep {
			pipes = append(pipes, w)
		}
		runtime.GC()
	}
	rng := rand.New(rand.NewSource(c.seed + 7))
	layers := newLayerSums()
	var untracedMs, tracedMs []float64
	heap := startHeapSampler()
	start := time.Now()
	for k := 0; k < c.sz.minOps || time.Since(start).Seconds() < c.seconds; k++ {
		w := pipes[k%len(pipes)]
		delta := makeDelta(rng, w, k, c.sz.deltaSize)
		r := o.begin()
		rt0 := readRuntime()
		sp := w.reg.StartSpan("bench.delta", nil)
		t0 := time.Now()
		d := w.p.NewDelta()
		var checks []cellCheck
		for _, dt := range delta {
			t := d.Insert("Events", dt.eid, dt.values...)
			if t == nil {
				r.fail("delta %d: insert %s refused", k, dt.eid)
				continue
			}
			if dt.null != "" {
				checks = append(checks, cellCheck{rel: "Events", tid: t.TID, attr: dt.null, want: dt.want})
			}
		}
		rep, err := d.CleanIncrementalReport(ctx)
		wall := time.Since(t0)
		sp.End()
		rt1 := readRuntime()
		if err != nil {
			r.fail("delta %d: %v", k, err)
			continue
		}
		if rep.Partial {
			r.fail("delta %d came back partial", k)
		}
		o.opMs = append(o.opMs, ms(wall))
		tp, fn := checkCells(w.p.DB(), checks, r.fail)
		o.tp += tp
		o.fn += fn
		o.fp += unexpectedFixes(rep, checks, r.fail)
		if !c.trace {
			continue
		}
		if w.reg == nil {
			untracedMs = append(untracedMs, ms(wall))
			continue
		}
		tracedMs = append(tracedMs, ms(wall))
		layers.addCounters(w.last, rep.Metrics)
		layers.addRuntime(rt0, rt1)
		w.last = rep.Metrics
		tree := newSpanTree(w.reg.Spans())
		benchRec, ok := spanByID(tree, sp.ID())
		if !ok {
			r.fail("delta %d: benchmark span missing from the trace", k)
			continue
		}
		for _, root := range tree.roots(benchRec.Start, benchRec.End, "clean.incremental") {
			layers.addRoot(tree, root, wall)
		}
		out := map[string]float64{}
		layers.finish(out)
		checkDropped(w.reg, r.fail)
		checkReconcile(out, r.fail)
	}
	o.peakMB = append(o.peakMB, heap.Stop())
	o.put("delta_p50_ms", median(o.opMs), "ms")
	o.put("correct_f1", o.correctF1(), "ratio")
	if c.trace {
		o.layers = map[string]float64{}
		layers.finish(o.layers)
		o.layers["workload.generate_s"] = median(o.generate)
		o.layers["rock.assemble_s"] = median(o.assemble)
		o.layers["trace.overhead_ratio"] = ratio(median(tracedMs), median(untracedMs))
		traced := pipes[len(pipes)-1].reg
		if err := writeSpans(c.traceDir, o.workload, c.seed, traced.Spans()); err != nil {
			return err
		}
	}
	return nil
}

// spanByID finds a completed span in the tree.
func spanByID(t *spanTree, id uint64) (obs.SpanRecord, bool) {
	for _, s := range t.spans {
		if s.ID == id {
			return s, true
		}
	}
	return obs.SpanRecord{}, false
}

// unexpectedFixes counts corrections a delta applied that are not the
// gold repair of one of its injected nulls.
func unexpectedFixes(rep *rock.Report, checks []cellCheck, fail func(string, ...any)) int {
	want := make(map[rock.CellRef]rock.Value, len(checks))
	for _, c := range checks {
		want[rock.CellRef{Rel: c.rel, TID: c.tid, Attr: c.attr}] = c.want
	}
	n := 0
	for _, x := range rep.Corrections {
		if v, ok := want[x.Cell]; !ok || !v.Equal(x.New) {
			n++
			fail("unexpected correction %s: %v → %v", x.Cell, x.Old, x.New)
		}
	}
	return n
}
