package chase

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/rockclean/rock/internal/cluster"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/exec"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/truth"
)

// The distributed chase is a lockstep-replica design: worker processes
// hold full engine replicas built from the same deterministic pipeline
// (same data, same rules and rule IDs, same trained models, same
// Workers partition count), so only three things ever cross the wire —
// the round preamble (truth journal + last round's accepted fixes +
// active rule IDs), unit index assignments, and per-unit deduction
// buffers. Replaying the journal makes every replica's FixSet
// bit-identical to the coordinator's; the unit list is a deterministic
// function of (rules, partition, FixSet), so unit index i names the
// same work everywhere; and the coordinator's merge consumes buffers
// in unit-index order, which is exactly the serial generation order.
// Deduction reads only the replicated state (FixSet cells/orders via
// env.ValueOf, deterministically trained models), so a distributed run
// is bit-identical to the serial in-process run. Conflict resolution
// state that is NOT replicated (resolvedCells, the oracle memo) is
// only touched by the coordinator-side apply step, never during
// deduction — with the one caveat that resolveValuePair may consult
// Options.Oracle during deduction, so distributed runs require a nil
// (or replica-identical deterministic) oracle.

// RoundPreamble is everything a worker replica needs to reconstruct a
// round's inputs: the truth mutations since the previous preamble, the
// fixes the coordinator accepted last round (source of the dirty set
// and executor invalidations), and the active rule IDs.
type RoundPreamble struct {
	Round    int
	RuleIDs  []string
	Journal  []truth.Op
	Accepted []Fix
	// UseDirty distinguishes "restrict enumeration to the dirty set
	// derived from Accepted" (lazy rounds after the first) from "consider
	// everything" (batch round 0, or Lazy off).
	UseDirty bool
	// Units is the coordinator's work-unit count — a cheap divergence
	// check: a replica whose FollowRound derives a different count is not
	// a replica.
	Units int
}

// UnitOutcome is one executed unit's deduction buffer plus its stats,
// shipped back tagged with the unit index (the generation order).
// Unresolved and ResolvedMI are report state produced during deduction
// (resolveValuePair escalations and M_c-decided imputation conflicts)
// — they live on the worker's engine report and would be lost without
// shipping them; the coordinator folds them back in unit order so the
// distributed report matches the serial one.
type UnitOutcome struct {
	Unit       int
	Fixes      []Fix
	Unresolved []UnresolvedConflict
	ResolvedMI int
	Valuations int
	MLCalls    int
	CostNs     int64
	Node       string
}

// DistRunner is the cluster surface of a distributed round: the plain
// Runner drain/submit contract plus the round barrier (BeginRound) and
// result collection (TakeResults). internal/cluster/remote.Coordinator
// implements it; the engine type-switches on it in runRound.
type DistRunner interface {
	cluster.Runner
	// BeginRound ships the preamble to every live worker and waits for
	// their acks (each ack echoes the worker's derived unit count).
	BeginRound(ctx context.Context, pre RoundPreamble) error
	// TakeResults returns the outcomes received during the last drain and
	// resets the collection buffer.
	TakeResults() []UnitOutcome
}

// unitWork is one (rule, block-combination) work unit of a round.
type unitWork struct {
	rule *ree.Rule
	unit chaseUnit
}

// buildWork expands the ordered active rules into the round's work-unit
// list. Deterministic: rule order is the caller's (sorted by ID), and
// unitsFor enumerates block combinations in index order — so replicas
// derive the identical list and unit index i means the same work on
// every process.
func (e *Engine) buildWork(ordered []*ree.Rule, blocks map[string][][]*data.Tuple) []unitWork {
	var work []unitWork
	for _, r := range ordered {
		for _, u := range e.unitsFor(r, blocks) {
			work = append(work, unitWork{rule: r, unit: u})
		}
	}
	return work
}

// FollowRound prepares a worker replica for one distributed round: it
// replays the coordinator's truth journal, mirrors the coordinator's
// post-merge executor bookkeeping (blocker/embedding invalidation and
// shadow marking for the tuples last round's fixes touched), selects
// the active rules by ID, and derives the round's work-unit list. It
// returns the unit count for the ack. Units are then executed on
// demand via RunFollowUnit.
func (e *Engine) FollowRound(pre RoundPreamble) (int, error) {
	if err := e.u.Replay(pre.Journal); err != nil {
		return 0, err
	}
	if len(pre.Accepted) > 0 {
		ds := e.dirtySet(pre.Accepted)
		e.exec.InvalidateBlockers()
		e.exec.InvalidateTuples(ds)
		e.exec.MarkShadowed(ds)
	}
	var dirty map[string]map[int]bool
	if pre.UseDirty {
		dirty = e.dirtySet(pre.Accepted)
	}
	byID := make(map[string]*ree.Rule, len(e.rules))
	for _, r := range e.rules {
		byID[r.ID] = r
	}
	ordered := make([]*ree.Rule, 0, len(pre.RuleIDs))
	for _, id := range pre.RuleIDs {
		r := byID[id]
		if r == nil {
			return 0, fmt.Errorf("chase follow: unknown rule %q (replica rule set diverged)", id)
		}
		ordered = append(ordered, r)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	if e.pred != nil && e.opts.UseBlocking {
		e.precomputePredications(ordered, dirty)
	}
	e.followWork = e.buildWork(ordered, e.partition())
	e.followDirty = dirty
	if pre.Units != len(e.followWork) {
		return len(e.followWork), fmt.Errorf("chase follow: derived %d units, coordinator has %d (replica diverged)",
			len(e.followWork), pre.Units)
	}
	return len(e.followWork), nil
}

// RunFollowUnit executes one unit of the round prepared by FollowRound
// and returns its deduction buffer. Safe to call for any assigned
// index, in any order — units only read the replicated state.
func (e *Engine) RunFollowUnit(ctx context.Context, i int, node string) (UnitOutcome, error) {
	if i < 0 || i >= len(e.followWork) {
		return UnitOutcome{}, fmt.Errorf("chase follow: unit %d out of range (have %d)", i, len(e.followWork))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	w := e.followWork[i]
	start := time.Now()
	e.mu.Lock()
	preUnresolved := len(e.report.Unresolved)
	preResolvedMI := e.report.ResolvedMI
	e.mu.Unlock()
	var fixes []Fix
	opts := exec.Options{Ctx: ctx, UseBlocking: e.opts.UseBlocking, Dirty: e.followDirty, RestrictVar: w.unit.restrict}
	st, err := e.exec.Run(w.rule, opts, func(h *predicate.Valuation) bool {
		fixes = e.deduceAppend(fixes, w.rule, h)
		return true
	})
	if err != nil {
		return UnitOutcome{}, err
	}
	out := UnitOutcome{
		Unit:       i,
		Fixes:      fixes,
		Valuations: st.Valuations,
		MLCalls:    st.MLCalls,
		CostNs:     int64(time.Since(start)),
		Node:       node,
	}
	e.mu.Lock()
	out.Unresolved = append([]UnresolvedConflict(nil), e.report.Unresolved[preUnresolved:]...)
	out.ResolvedMI = e.report.ResolvedMI - preResolvedMI
	e.mu.Unlock()
	return out, nil
}
