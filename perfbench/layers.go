package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/rockclean/rock/internal/obs"
)

// spanCap bounds a traced registry's span ring. A traced run fails when
// the ring dropped spans, so self times never come from a truncated
// trace; the largest traced operation (a logistics-ml clean, one span
// per ML call) stays well below it.
const spanCap = 1 << 21

// newTraceRegistry returns a registry recording spans.
func newTraceRegistry() *obs.Registry {
	reg := obs.New()
	reg.EnableSpans(spanCap)
	return reg
}

// spanTree indexes a set of completed spans by parent.
type spanTree struct {
	spans    []obs.SpanRecord
	children map[uint64][]int
}

func newSpanTree(spans []obs.SpanRecord) *spanTree {
	t := &spanTree{spans: spans, children: make(map[uint64][]int, len(spans))}
	for i, s := range spans {
		t.children[s.Parent] = append(t.children[s.Parent], i)
	}
	return t
}

// roots returns the parentless spans with one of the given names that
// lie within [from, to].
func (t *spanTree) roots(from, to time.Duration, names ...string) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, i := range t.children[0] {
		s := t.spans[i]
		if s.Start >= from && s.End <= to && hasName(s.Name, names) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

func hasName(name string, names []string) bool {
	for _, n := range names {
		if name == n {
			return true
		}
	}
	return false
}

// kids returns s's children whose name satisfies match.
func (t *spanTree) kids(s obs.SpanRecord, match func(string) bool) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, i := range t.children[s.ID] {
		if match(t.spans[i].Name) {
			out = append(out, t.spans[i])
		}
	}
	return out
}

// walk visits s's descendants.
func (t *spanTree) walk(s obs.SpanRecord, fn func(obs.SpanRecord)) {
	for _, i := range t.children[s.ID] {
		fn(t.spans[i])
		t.walk(t.spans[i], fn)
	}
}

func is(names ...string) func(string) bool {
	return func(n string) bool { return hasName(n, names) }
}

func dur(s obs.SpanRecord) time.Duration { return s.End - s.Start }

// selfTime is s's duration minus the part of its interval that the
// union of kids covers.
func selfTime(s obs.SpanRecord, kids []obs.SpanRecord) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered, curLo, curHi time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			covered += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		covered += curHi - curLo
	}
	return dur(s) - covered
}

// layerSums accumulates per-layer quantities over traced operations;
// finish turns them into per-operation means and ratios.
type layerSums struct {
	ops   int
	add   map[string]float64
	nodes map[string]float64
}

func newLayerSums() *layerSums {
	return &layerSums{add: map[string]float64{}, nodes: map[string]float64{}}
}

// addRoot attributes one rock root span ("clean" or "clean.incremental")
// and its subtree: phase times, self times and the blocking-path
// reconciliation against wall, the benchmark's own span around the call.
func (l *layerSums) addRoot(t *spanTree, root obs.SpanRecord, wall time.Duration) {
	l.ops++
	var detectD, chaseD time.Duration
	for _, d := range t.kids(root, is("detect", "detect.incremental")) {
		detectD += dur(d)
		l.add["detect.attribute_s"] += selfTime(d, t.kids(d, is("unit"))).Seconds()
	}
	for _, c := range t.kids(root, is("chase", "chase.incremental")) {
		chaseD += dur(c)
		for _, r := range t.kids(c, is("round")) {
			l.add["chase.merge_s"] += selfTime(r, t.kids(r, is("unit"))).Seconds()
		}
	}
	finish := dur(root) - detectD - chaseD
	l.add["detect.s"] += detectD.Seconds()
	l.add["chase.s"] += chaseD.Seconds()
	l.add["rock.finish_s"] += finish.Seconds()
	if root.Name == "clean.incremental" {
		l.add["rock.delta_self_s"] += finish.Seconds()
	}
	l.add["blocking_s"] += (detectD + chaseD + finish).Seconds()
	l.add["wall_s"] += wall.Seconds()
	spans := 1
	t.walk(root, func(s obs.SpanRecord) {
		spans++
		switch {
		case s.Name == "exec":
			l.add["exec.s"] += selfTime(s, t.kids(s, func(n string) bool { return strings.HasPrefix(n, "ml.") })).Seconds()
		case strings.HasPrefix(s.Name, "ml."):
			l.add["ml.s"] += dur(s).Seconds()
		}
	})
	l.add["trace.spans"] += float64(spans)
}

// addCounters adds the registry counter and gauge movement between two
// snapshots of the program's registry.
func (l *layerSums) addCounters(before, after obs.Snapshot) {
	c := func(name string) float64 { return float64(after.Counters[name]) - float64(before.Counters[name]) }
	g := func(name string) float64 { return float64(after.Gauges[name] - before.Gauges[name]) }
	for name := range after.Counters {
		d := c(name)
		switch {
		case strings.HasPrefix(name, "detect.rule.") && strings.HasSuffix(name, ".wall_ns"):
			l.add["detect.units_s"] += d / 1e9
		case strings.HasPrefix(name, "chase.rule.") && strings.HasSuffix(name, ".wall_ns"):
			l.add["chase.units_s"] += d / 1e9
		case strings.HasPrefix(name, "exec.ml.") && strings.HasSuffix(name, ".calls"):
			l.add["ml.calls"] += d
		case (strings.HasPrefix(name, "chase.node.") || strings.HasPrefix(name, "detect.node.")) && strings.HasSuffix(name, ".units"):
			_, node, _ := strings.Cut(strings.TrimSuffix(name, ".units"), ".node.")
			l.nodes[node] += d
		}
	}
	for dst, src := range map[string]string{
		"detect.errors":    "detect.errors.found",
		"chase.rounds":     "chase.rounds",
		"chase.valuations": "chase.valuations",
		"applied":          "chase.fixes.applied",
		"rejected":         "chase.fixes.rejected",
		"exec.join_pairs":  "exec.vec.join_pairs",
		"select_kept":      "exec.vec.select_kept",
		"select_input":     "exec.vec.select_input",
		"blocker_hits":     "exec.blocker.hits",
		"blocker_misses":   "exec.blocker.misses",
		"exec.spill_bytes": "exec.spill.bytes",
	} {
		l.add[dst] += c(src)
	}
	l.add["cluster.steals"] += c("detect.steals") + c("chase.steals")
	l.add["pred_hits"] += g("pred.hits")
	l.add["pred_misses"] += g("pred.misses")
	l.add["embed_hits"] += g("pred.embed.hits")
	l.add["embed_misses"] += g("pred.embed.misses")
}

// addRuntime adds the Go runtime's GC CPU, total CPU and allocation
// movement over a timed interval.
func (l *layerSums) addRuntime(a, b runtimeSample) {
	l.add["gc_cpu"] += b.gcCPU - a.gcCPU
	l.add["total_cpu"] += b.totalCPU - a.totalCPU
	l.add["go.alloc_mb"] += (b.allocBytes - a.allocBytes) / (1 << 20)
}

// finish writes the per-operation layer metrics into out.
func (l *layerSums) finish(out map[string]float64) {
	n := float64(l.ops)
	for _, k := range []string{
		"detect.s", "detect.units_s", "detect.attribute_s", "detect.errors",
		"chase.s", "chase.rounds", "chase.units_s", "chase.merge_s", "chase.valuations",
		"exec.s", "exec.join_pairs", "exec.spill_bytes", "ml.calls", "ml.s",
		"rock.finish_s", "rock.delta_self_s", "cluster.steals", "go.alloc_mb", "trace.spans",
	} {
		out[k] = ratio(l.add[k], n)
	}
	a := l.add
	out["chase.fix_yield"] = ratio(a["applied"], a["chase.valuations"])
	out["chase.reject_ratio"] = ratio(a["rejected"], a["applied"]+a["rejected"])
	out["exec.select_keep_ratio"] = ratio(a["select_kept"], a["select_input"])
	out["exec.blocker_hit_ratio"] = ratio(a["blocker_hits"], a["blocker_hits"]+a["blocker_misses"])
	out["ml.pred_hit_ratio"] = ratio(a["pred_hits"], a["pred_hits"]+a["pred_misses"])
	out["ml.embed_hit_ratio"] = ratio(a["embed_hits"], a["embed_hits"]+a["embed_misses"])
	out["go.gc_cpu_fraction"] = ratio(a["gc_cpu"], a["total_cpu"])
	out["trace.reconcile_ratio"] = ratio(a["blocking_s"], a["wall_s"])
	var maxN, sum float64
	for _, v := range l.nodes {
		sum += v
		maxN = max(maxN, v)
	}
	out["cluster.node_skew"] = ratio(maxN, ratio(sum, float64(len(l.nodes))))
}

// reconcileTolerance is how far the blocking-path layer times (detect +
// chase + finish) may sit from the benchmark's own span around the call
// before the traced run fails its reconciliation check.
const reconcileTolerance = 0.05

// checkDropped fails a traced run whose span ring dropped spans, so self
// times never come from a truncated trace.
func checkDropped(reg *obs.Registry, fail func(string, ...any)) {
	if d := reg.DroppedSpans(); d > 0 {
		fail("obs dropped %d spans: self times would come from a truncated trace", d)
	}
}

// checkReconcile fails a traced run whose blocking-path layer times do
// not add up to the wall time of the calls the benchmark wrapped.
func checkReconcile(layers map[string]float64, fail func(string, ...any)) {
	if r := layers["trace.reconcile_ratio"]; r < 1-reconcileTolerance || r > 1+reconcileTolerance {
		fail("blocking-path layer times sum to %.3f of the traced wall time", r)
	}
}

// writeSpans writes a traced run's spans as a Chrome trace file.
func writeSpans(dir, workload string, seed int64, spans []obs.SpanRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
