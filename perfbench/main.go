// Command perfbench is Rock's end-to-end benchmark. It drives the system
// only through its public functions — rock.NewPipelineWith and the
// Pipeline's Register*/Train*/AddRule/Validate, Pipeline.CleanCtx,
// Pipeline.NewDelta/Delta.Insert/Delta.CleanIncrementalReport, and
// serve.New(...).Handler() over real HTTP — with rock.DefaultOptions()
// unchanged, so it measures the shipped configuration.
//
//	bash perfbench/run.sh --workload logistics-ml --seed 1 --seconds 30 --trace 0
//
// One run generates the workload's inputs from --seed, sets up, measures
// for --seconds, checks every output against the generator's gold, and
// prints each metric by name with its unit; the last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones (tracing off); with
// --trace 1 the run records the spans the program already emits, wraps
// each public call in a span of its own, and reports per-layer metrics.
// README.md lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/rockclean/rock/internal/benchkit"
	"github.com/rockclean/rock/rock"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported on every
// workload with tracing off (BENCHMARK.json "end_to_end"). op_p50_ms is
// the median latency of the workload's unit of work: one batch clean
// (logistics-ml, scale-1m), one 16-tuple delta clean (delta-scale), or
// ingest due → tokened read returns (serve-bank).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"correct_f1", "ratio"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the traced run's metrics (BENCHMARK.json "per_layer"),
// named after the repository's modules. Values are per timed operation
// (mean over traced operations; per batch on serve-bank); a layer that
// does not run on a workload reports 0.
var perLayer = []metricDef{
	{"workload.generate_s", "s"},
	{"rock.assemble_s", "s"},
	{"detect.s", "s"},
	{"detect.units_s", "s"},
	{"detect.attribute_s", "s"},
	{"detect.errors", "count"},
	{"chase.s", "s"},
	{"chase.rounds", "count"},
	{"chase.units_s", "s"},
	{"chase.merge_s", "s"},
	{"chase.valuations", "count"},
	{"chase.fix_yield", "ratio"},
	{"chase.reject_ratio", "ratio"},
	{"exec.s", "s"},
	{"exec.join_pairs", "count"},
	{"exec.select_keep_ratio", "ratio"},
	{"exec.blocker_hit_ratio", "ratio"},
	{"exec.spill_bytes", "bytes"},
	{"ml.calls", "count"},
	{"ml.s", "s"},
	{"ml.pred_hit_ratio", "ratio"},
	{"ml.embed_hit_ratio", "ratio"},
	{"rock.finish_s", "s"},
	{"rock.delta_self_s", "s"},
	{"cluster.steals", "count"},
	{"cluster.node_skew", "ratio"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.alloc_mb", "MB"},
	{"serve.ingest_ms", "ms"},
	{"serve.batch_ms", "ms"},
	{"serve.batch_tuples", "count"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.gen_lag_ms", "ms"},
	{"serve.backlog_final", "count"},
	{"serve.busy_ratio", "ratio"},
	{"serve.visible_p95_ms", "ms"},
	{"serve.query_p50_ms", "ms"},
	{"serve.query_p95_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.reconcile_ratio", "ratio"},
	{"trace.spans", "count"},
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	run  func(ctx context.Context, c runConfig, o *outcome) error
	// byHand marks a workload left out of BENCHMARK.json: scale-1m takes
	// about 50 s a run, and the benchmark's time budget buys steadier
	// 30-second runs of the other three instead. Run it by name.
	byHand bool
}

var workloads = []workloadDef{
	{name: "logistics-ml", why: "Batch clean of Logistics N=2000 (~2.3k tuples): ML predicates and culprit attribution dominate; every relation sits below exec's intern gate.", run: runLogisticsML},
	{name: "scale-1m", why: "Batch clean of Scale at 1e6 tuples: no ML; interned columns, posting joins, vector selection, the row store and GC do the work.", run: runScale1M, byHand: true},
	{name: "delta-scale", why: "16-tuple deltas with null mfg/code errors on a warm Scale pipeline of 2e5 tuples: incremental cost at large |D| and small |delta|.", run: runDeltaScale},
	{name: "serve-bank", why: "In-process rockd tenant over Bank N=2000: open-loop typo ingests with tokened reads plus point reads; queueing, coalescing and runMu contention.", run: runServeBank},
}

// sizes are the workloads' input sizes; tests shrink them.
type sizes struct {
	logisticsN int // Logistics base orders
	scaleN     int // Scale tuples (scale-1m)
	deltaBaseN int // Scale tuples under the warm delta-scale pipeline
	deltaSize  int // tuples per delta
	bankN      int // Bank base customers
	setups     int // set-ups per run (setup_s is their median)
	minOps     int // timed batch cleans or deltas at least
	// f1Floor is the lowest correction F1 a logistics-ml clean may score.
	f1Floor float64
	// ingestRate and queryRate are serve-bank's open-loop rates (1/s).
	ingestRate, queryRate float64
}

var defaultSizes = sizes{
	logisticsN: 2000,
	scaleN:     1_000_000,
	deltaBaseN: 200_000,
	deltaSize:  16,
	bankN:      2000,
	setups:     3,
	minOps:     2,
	f1Floor:    logisticsF1Floor,
	ingestRate: 3,
	queryRate:  40,
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	seconds  float64
	trace    bool
	traceDir string // where the traced run writes its spans
	sz       sizes
	opts     rock.Options
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "input generation seed")
		seconds  = flag.Float64("seconds", 30, "measurement time per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/traces", "directory receiving the traced run's spans")
	)
	flag.Parse()
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", names())
		os.Exit(2)
	}
	c := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir, sz: defaultSizes, opts: rock.DefaultOptions()}
	if err := run(context.Background(), os.Stdout, w, c); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func names() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates what one run measured.
type outcome struct {
	workload  string
	input     string
	setup     []float64 // seconds per set-up
	generate  []float64 // seconds per set-up: workload generation
	assemble  []float64 // seconds per set-up: pipeline assembly
	opMs      []float64 // latency of each timed operation
	peakMB    []float64 // peak heap per measured interval
	tp, fp    int       // corrections matching / contradicting gold
	fn        int       // gold cells left uncorrected
	f1        []float64 // F1 per batch clean, when scored per clean
	attempted int
	failed    int
	problems  []string          // failed checks, for stderr
	report    map[string]metric // the human-readable, workload-specific figures
	layers    map[string]float64
}

// opRecord is one attempted operation; it fails at most once however
// many of its checks fail.
type opRecord struct {
	o   *outcome
	bad bool
}

// begin counts one attempted operation.
func (o *outcome) begin() *opRecord {
	o.attempted++
	return &opRecord{o: o}
}

// fail marks the operation failed and records why.
func (r *opRecord) fail(format string, args ...any) {
	if !r.bad {
		r.bad = true
		r.o.failed++
	}
	if len(r.o.problems) < 20 {
		r.o.problems = append(r.o.problems, fmt.Sprintf(format, args...))
	}
}

// addSetup records one set-up's phases.
func (o *outcome) addSetup(gen, asm, total time.Duration) {
	o.generate = append(o.generate, gen.Seconds())
	o.assemble = append(o.assemble, asm.Seconds())
	o.setup = append(o.setup, total.Seconds())
}

// correctF1 is the F1 of the timed operations' corrections against gold:
// per-clean F1 medians on batch workloads, pooled counts otherwise.
func (o *outcome) correctF1() float64 {
	if len(o.f1) > 0 {
		return median(o.f1)
	}
	return ratio(float64(2*o.tp), float64(2*o.tp+o.fp+o.fn))
}

func (o *outcome) put(name string, v float64, unit string) {
	if o.report == nil {
		o.report = map[string]metric{}
	}
	o.report[name] = metric{Value: v, Unit: unit}
}

// envBlock is the machine, runtime and configuration a run measured.
type envBlock struct {
	benchkit.EnvInfo
	Workload string      `json:"workload"`
	Input    string      `json:"input"`
	Why      string      `json:"why"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    bool        `json:"trace"`
	Options  optionsView `json:"options"`
}

// optionsView is the serialisable part of rock.Options.
type optionsView struct {
	Workers      int    `json:"workers"`
	Parallel     bool   `json:"parallel"`
	UseBlocking  bool   `json:"use_blocking"`
	Predication  bool   `json:"predication"`
	Lazy         bool   `json:"lazy"`
	Steal        bool   `json:"steal"`
	MaxRounds    int    `json:"max_rounds"`
	MaxRetries   int    `json:"max_retries"`
	RetryBackoff string `json:"retry_backoff"`
	Deadline     string `json:"deadline"`
	MemBudget    int64  `json:"mem_budget"`
}

func viewOptions(o rock.Options) optionsView {
	return optionsView{
		Workers: o.Workers, Parallel: o.Parallel, UseBlocking: o.UseBlocking, Predication: o.Predication,
		Lazy: o.Lazy, Steal: o.Steal, MaxRounds: o.MaxRounds, MaxRetries: o.MaxRetries,
		RetryBackoff: o.RetryBackoff.String(), Deadline: o.Deadline.String(), MemBudget: o.MemBudget,
	}
}

// run executes one workload and prints its report; the last line written
// to out is the JSON result.
func run(ctx context.Context, out io.Writer, w workloadDef, c runConfig) error {
	o := &outcome{workload: w.name}
	if err := w.run(ctx, c, o); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if o.attempted == 0 {
		return fmt.Errorf("%s: no operation ran", w.name)
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	env, err := json.Marshal(envBlock{
		EnvInfo: benchkit.Environment(), Workload: w.name, Input: o.input, Why: w.why,
		Seed: c.seed, Seconds: c.seconds, Trace: c.trace, Options: viewOptions(c.opts),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "env %s\n", env)
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	if c.trace {
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{Value: o.layers[d.name], Unit: d.unit}
			fmt.Fprintf(out, "%s %s %.6g %s\n", w.name, d.name, o.layers[d.name], d.unit)
		}
	} else {
		vals := map[string]float64{
			"setup_s":      median(o.setup),
			"op_p50_ms":    median(o.opMs),
			"correct_f1":   o.correctF1(),
			"peak_heap_mb": median(o.peakMB),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		}
		o.put("setup_s", vals["setup_s"], "s")
		o.put("peak_heap_mb", vals["peak_heap_mb"], "MB")
		o.put("failed_frac", ratio(float64(o.failed), float64(o.attempted)), "ratio")
		o.put("samples", float64(len(o.opMs)), "count")
		keys := make([]string, 0, len(o.report))
		for k := range o.report {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(out, "%s %s %.6g %s\n", w.name, k, o.report[k].Value, o.report[k].Unit)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	return nil
}
