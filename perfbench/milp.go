package main

import (
	"fmt"
	"math"
	"time"

	"transched/internal/core"
	"transched/internal/flowshop"
	"transched/internal/lpsched"
	"transched/internal/trace"
)

// milpBench runs lp.3 (lpsched.Solve, K 3) on the first tasks of HF
// traces at several capacity multipliers, the shape of Fig 7, from one
// caller. One step, and one op, is one lpsched.Solve call.
type milpBench struct {
	e    env
	ins  []*core.Instance
	omim []float64

	// Per distinct instance, filled the first time it is solved.
	want   []uint64
	ratios []float64
	first  []lpsched.Result
	// warm holds the digests of the capped warm-up solves.
	warm []uint64

	// Over every solve, for the per-node and per-pivot times.
	secs         float64
	nodes, iters int
}

func newMILP(e env) (stepper, built, error) {
	t0 := time.Now()
	trs, err := generate("HF", e.seed, e.sz.milpTraces, e.sz.paperTasks[0], e.sz.paperTasks[1])
	if err != nil {
		return nil, built{}, err
	}
	info := built{genMs: time.Since(t0).Seconds() * 1e3}
	b := &milpBench{e: e}
	for _, tr := range trs {
		pre := &trace.Trace{App: tr.App, Process: tr.Process, Tasks: tr.Tasks[:min(e.sz.milpPrefix, len(tr.Tasks))]}
		for _, mult := range e.sz.milpMults {
			b.ins = append(b.ins, pre.Instance(pre.MinCapacity()*mult))
			b.omim = append(b.omim, flowshop.OMIM(pre.Tasks))
		}
	}
	n := len(b.ins)
	b.want, b.ratios, b.first = make([]uint64, n), make([]float64, n), make([]lpsched.Result, n)
	b.warm = make([]uint64, len(e.sz.milpMults))
	info.inputsMB = liveHeapMB()
	// The warm-up pass solves the first trace at every multiplier with
	// branch and bound capped per window, so the set-up time does not
	// hang on one instance's branching luck.
	for i := range e.sz.milpMults {
		res, err := lpsched.Solve(b.ins[i], b.warmOptions(e.workers))
		if err != nil {
			return nil, built{}, fmt.Errorf("warm-up solve: %w", err)
		}
		if _, b.warm[i], err = b.check(i, res); err != nil {
			return nil, built{}, fmt.Errorf("warm-up solve: %w", err)
		}
	}
	return b, info, nil
}

// warmNodes caps each window's branch and bound during the warm-up.
const warmNodes = 64

func (b *milpBench) warmOptions(workers int) lpsched.Options {
	return lpsched.Options{K: 3, MaxNodesPerWindow: warmNodes, Workers: workers}
}

func (b *milpBench) cycle() int { return len(b.ins) }

func (b *milpBench) step(k int) (call, error) {
	i := k % len(b.ins)
	c := call{ops: 1, failed: 1}
	var res *lpsched.Result
	var err error
	c.dur = measure(func() { res, err = lpsched.Solve(b.ins[i], lpsched.Options{K: 3, Workers: b.e.workers}) })
	if err != nil {
		return c, fmt.Errorf("instance %d: %w", i, err)
	}
	r, digest, err := b.check(i, res)
	if err != nil {
		return c, fmt.Errorf("instance %d: %w", i, err)
	}
	switch {
	case b.want[i] == 0:
		b.want[i], b.ratios[i], b.first[i] = digest, r, *res
	case b.want[i] != digest:
		return c, fmt.Errorf("instance %d: schedule or counts differ from the first solve", i)
	}
	b.secs += c.dur.Seconds()
	b.nodes += res.Nodes
	b.iters += res.SimplexIters
	c.failed = 0
	return c, nil
}

// check validates an lp.3 result: a valid schedule of every task with
// makespan >= OMIM and a non-negative optimality gap. It returns
// makespan/OMIM and the digest of the schedule and solver counts.
func (b *milpBench) check(i int, res *lpsched.Result) (float64, uint64, error) {
	s := res.Schedule
	if len(s.Assignments) != len(b.ins[i].Tasks) {
		return 0, 0, fmt.Errorf("schedule places %d of %d tasks", len(s.Assignments), len(b.ins[i].Tasks))
	}
	if !(res.Gap >= 0) || math.IsInf(res.Gap, 0) {
		return 0, 0, fmt.Errorf("optimality gap %g", res.Gap)
	}
	r, err := checkSchedule(s, b.omim[i], s.Makespan())
	if err != nil {
		return 0, 0, err
	}
	words := []uint64{uint64(res.Nodes), uint64(res.SimplexIters), uint64(res.Windows),
		uint64(res.Fallbacks), math.Float64bits(res.Gap)}
	for _, a := range s.Assignments {
		words = append(words, fnvBytes([]byte(a.Task.Name)), math.Float64bits(a.CommStart), math.Float64bits(a.CompStart))
	}
	return r, fnvWords(words...), nil
}

func (b *milpBench) crossCheck() error {
	res, err := lpsched.Solve(b.ins[0], b.warmOptions(1))
	if err != nil {
		return err
	}
	if _, digest, err := b.check(0, res); err != nil || digest != b.warm[0] {
		return fmt.Errorf("lp.3 at 1 worker differs from lp.3 at %d (%v)", b.e.workers, err)
	}
	return nil
}

// setTraced has nothing to switch: lpsched emits no spans, its counts
// come back in every Result.
func (b *milpBench) setTraced(bool) {}

func (b *milpBench) outputs() (float64, uint64) { return mean(b.ratios), fnvWords(b.want...) }

func (b *milpBench) layers(m map[string]float64) error {
	var nodes, iters, windows, fallbacks int
	gap := 0.0
	for _, r := range b.first {
		nodes += r.Nodes
		iters += r.SimplexIters
		windows += r.Windows
		fallbacks += r.Fallbacks
		gap = math.Max(gap, r.Gap)
	}
	m["milp.nodes"] = float64(nodes)
	m["lpsched.windows"] = float64(windows)
	m["lpsched.fallbacks"] = float64(fallbacks)
	m["lpsched.gap_max"] = gap
	if nodes > 0 {
		m["lp.iters_per_node"] = float64(iters) / float64(nodes)
	}
	if b.nodes > 0 {
		m["milp.us_per_node"] = b.secs * 1e6 / float64(b.nodes)
	}
	// Derived: wall time per pivot, charging the whole solve to pivots.
	if b.iters > 0 {
		m["lp.us_per_iter"] = b.secs * 1e6 / float64(b.iters)
	}
	return nil
}
