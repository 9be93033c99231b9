package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/workload"
	"github.com/rockclean/rock/rock"
)

// tinySizes shrinks every workload so a run takes about a second. The
// F1 floor is calibrated at N=2000 only.
var tinySizes = sizes{
	logisticsN: 100,
	scaleN:     3000,
	deltaBaseN: 3000,
	deltaSize:  16,
	bankN:      200,
	setups:     2,
	minOps:     2,
	ingestRate: 10,
	queryRate:  20,
}

func tinyRun(t *testing.T, w workloadDef, trace bool, sz sizes) (result, string) {
	t.Helper()
	c := runConfig{seed: 3, seconds: 0.3, trace: trace, traceDir: t.TempDir(), sz: sz, opts: rock.DefaultOptions()}
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, w, c); err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	out := strings.TrimSpace(buf.String())
	last := out[strings.LastIndexByte(out, '\n')+1:]
	var res result
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line %q: %v", w.name, last, err)
	}
	return res, out
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, and checks the result line and that every metric is printed
// by name with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				res, out := tinyRun(t, w, trace, tinySizes)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
				}
				if !strings.HasPrefix(out, "env {") {
					t.Errorf("no env line first:\n%s", out)
				}
				printed := map[string]string{}
				sc := bufio.NewScanner(strings.NewReader(out))
				for sc.Scan() {
					if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == w.name {
						printed[f[1]] = f[3]
					}
				}
				names := []string{"setup_s", "correct_f1", "peak_heap_mb", "failed_frac"}
				if trace {
					names = nil
					for _, d := range perLayer {
						names = append(names, d.name)
					}
				}
				for _, n := range names {
					if printed[n] == "" {
						t.Errorf("%s not printed with a unit:\n%s", n, out)
					}
				}
				if !trace && res.Metrics["op_p50_ms"].Value <= 0 {
					t.Errorf("op_p50_ms = %v", res.Metrics["op_p50_ms"].Value)
				}
			})
		}
	}
}

// TestFloorFailsRun: an F1 floor above any reachable score makes a
// logistics-ml run report incorrect output.
func TestFloorFailsRun(t *testing.T) {
	sz := tinySizes
	sz.f1Floor = 1.01
	w, _ := lookup("logistics-ml")
	res, out := tinyRun(t, w, false, sz)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("run passed with an unreachable F1 floor:\n%s", out)
	}
}

// failures collects the messages a check reports.
type failures []string

func (f *failures) fail(format string, args ...any) { *f = append(*f, fmt.Sprintf(format, args...)) }

// TestScaleChecksRejectWrongGold: the imputation check passes on a
// cleaned Scale database and fails when one expected value is wrong.
func TestScaleChecksRejectWrongGold(t *testing.T) {
	ds := workload.Scale(workload.Config{N: 3000, Seed: 5})
	p, err := assemble(ds, rock.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CleanCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	cells := goldNulls(ds.Gold)
	if len(cells) == 0 {
		t.Fatal("no injected nulls")
	}
	var f failures
	if tp, fn := checkCells(ds.DB, cells, f.fail); fn != 0 || tp != len(cells) || len(f) != 0 {
		t.Fatalf("correct gold: tp=%d fn=%d %v", tp, fn, f)
	}
	cells[0].want = rock.S("wrong")
	if _, fn := checkCells(ds.DB, cells, f.fail); fn != 1 || len(f) != 1 {
		t.Fatalf("wrong gold: fn=%d %v", fn, f)
	}
}

// TestDeltaChecksRejectWrongGold: a delta's nulls read back as gold, and
// both checks fail against a wrong expectation.
func TestDeltaChecksRejectWrongGold(t *testing.T) {
	c := runConfig{seed: 2, sz: tinySizes, opts: rock.DefaultOptions()}
	w, err := setupWarmScale(context.Background(), c, &outcome{}, false)
	if err != nil {
		t.Fatal(err)
	}
	d := w.p.NewDelta()
	var checks []cellCheck
	for _, dt := range makeDelta(rand.New(rand.NewSource(1)), w, 0, 16) {
		tu := d.Insert("Events", dt.eid, dt.values...)
		if dt.null != "" {
			checks = append(checks, cellCheck{rel: "Events", tid: tu.TID, attr: dt.null, want: dt.want})
		}
	}
	rep, err := d.CleanIncrementalReport(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var f failures
	if _, fn := checkCells(w.p.DB(), checks, f.fail); fn != 0 || unexpectedFixes(rep, checks, f.fail) != 0 {
		t.Fatalf("correct gold failed: %v", f)
	}
	checks[0].want = rock.S("wrong")
	if _, fn := checkCells(w.p.DB(), checks, f.fail); fn != 1 {
		t.Fatalf("wrong gold passed the imputation check")
	}
	if unexpectedFixes(rep, checks, f.fail) != 1 {
		t.Fatalf("wrong gold passed the unexpected-fix check")
	}
}

// TestServeCheckRejectsWrongName: a tokened read shows every typo
// corrected, and the check fails when the expected name is wrong.
func TestServeCheckRejectsWrongName(t *testing.T) {
	c := runConfig{seed: 4, seconds: 0.2, sz: tinySizes, opts: rock.DefaultOptions()}
	ctx := context.Background()
	rig, load, err := setupServe(ctx, c, &outcome{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	var ledger atomic.Int64
	good := rig.ingestAndRead(ctx, event{due: time.Now()}, load.ingests[0], &ledger, nil)
	if good.err != nil || good.tp != tuplesPerIngest || good.fn+good.fp != 0 {
		t.Fatalf("correct names: %+v", good)
	}
	bad := load.ingests[1]
	for eid := range bad.want {
		bad.want[eid] = "Nobody"
		break
	}
	res := rig.ingestAndRead(ctx, event{due: time.Now()}, bad, &ledger, nil)
	if res.err != nil || res.fn != 1 || res.fp != 1 {
		t.Fatalf("wrong name passed: %+v", res)
	}
}

// TestSerialParallelIdentical: logistics corrections at small size are
// bit-identical between a serial (Workers=1, Parallel=false) and the
// shipped parallel pipeline.
func TestSerialParallelIdentical(t *testing.T) {
	clean := func(opts rock.Options) string {
		ds := workload.Logistics(workload.Config{N: 200, Seed: 9})
		p, err := assemble(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.CleanCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v\n%v", rep.Corrections, rep.MergedEntities)
	}
	serial := rock.DefaultOptions()
	serial.Workers, serial.Parallel = 1, false
	if s, p := clean(serial), clean(rock.DefaultOptions()); s != p {
		t.Fatalf("serial and parallel corrections differ:\nserial:   %s\nparallel: %s", s, p)
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json declares exactly the
// workloads (all but the by-hand ones) and metrics the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var listed []workloadDef
	for _, w := range workloads {
		if !w.byHand {
			listed = append(listed, w)
		}
	}
	if len(spec.Workloads) != len(listed) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(listed))
	}
	for i, w := range spec.Workloads {
		if w.Name != listed[i].name || w.Why != listed[i].why {
			t.Errorf("workload %d: declared %s (%q), implemented %s (%q)", i, w.Name, w.Why, listed[i].name, listed[i].why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d printed", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: declared %s %s, printed %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestSelfTime: a span's self time excludes the union of its children,
// clipped to the span.
func TestSelfTime(t *testing.T) {
	sp := func(a, b int) obs.SpanRecord {
		return obs.SpanRecord{Start: time.Duration(a), End: time.Duration(b)}
	}
	parent := sp(0, 100)
	kids := []obs.SpanRecord{sp(10, 30), sp(20, 40), sp(90, 120), sp(50, 60)}
	if got := selfTime(parent, kids); got != 100-30-10-10 {
		t.Fatalf("self time %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children %d", got)
	}
}
