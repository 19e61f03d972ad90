package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"transched/internal/core"
	"transched/internal/experiments"
	"transched/internal/heuristics"
	"transched/internal/obs"
	"transched/internal/trace"
)

// sweepBench runs the Figs 9-12 engine: experiments.RunSweep with all
// fourteen heuristics at the nine paper multipliers, once on HF and once
// on CCSD traces. One step is one HF+CCSD sweep pair; one op is one
// heuristic run on one (trace, capacity) instance.
type sweepBench struct {
	e        env
	apps     [2]string
	traces   [2][]*trace.Trace
	mults    []float64
	want     uint64
	ratios   []float64
	tracing  bool
	cellSecs float64 // traced phase: summed cell-span seconds
	wallSecs float64 // traced phase: summed sweep wall seconds
}

func newSweep(e env) (stepper, built, error) {
	b := &sweepBench{e: e, apps: [2]string{"HF", "CCSD"}, mults: experiments.DefaultMultipliers()}
	t0 := time.Now()
	for a, app := range b.apps {
		trs, err := generate(app, e.seed, e.sz.sweepTraces, e.sz.paperTasks[0], e.sz.paperTasks[1])
		if err != nil {
			return nil, built{}, err
		}
		b.traces[a] = trs
	}
	info := built{genMs: time.Since(t0).Seconds() * 1e3, inputsMB: liveHeapMB()}
	// The warm-up pass is one sweep pair; its digest is the reference
	// every later pair must reproduce.
	if _, err := b.step(0); err != nil {
		return nil, built{}, fmt.Errorf("warm-up sweep: %w", err)
	}
	return b, info, nil
}

func (b *sweepBench) cycle() int { return 1 }

func (b *sweepBench) ops() int {
	return len(heuristics.Names()) * len(b.mults) * (len(b.traces[0]) + len(b.traces[1]))
}

func (b *sweepBench) step(int) (call, error) {
	c := call{ops: b.ops(), failed: b.ops()}
	sums, err := b.pair(b.e.workers, &c)
	if err != nil {
		return c, err
	}
	bad := 0
	for _, r := range sums {
		if !ratioOK(r) {
			bad++
		}
	}
	digest := fnvFloats(sums)
	switch {
	case bad > 0:
		c.failed = bad
		return c, fmt.Errorf("%d sweep ratios below 1", bad)
	case b.want == 0:
		b.want, b.ratios = digest, sums
	case digest != b.want:
		return c, fmt.Errorf("sweep ratios differ from the first pair's")
	}
	c.failed = 0
	return c, nil
}

// pair runs the HF and the CCSD sweep on workers and returns every ratio,
// HF first. With tracing on, each sweep records its cell spans.
func (b *sweepBench) pair(workers int, c *call) ([]float64, error) {
	var out []float64
	for a, app := range b.apps {
		opts := experiments.SweepOptions{Workers: workers}
		if b.tracing {
			opts.Trace = obs.NewTrace()
		}
		var sw *experiments.Sweep
		var err error
		d := measure(func() { sw, err = experiments.RunSweep(app, b.traces[a], b.mults, opts) })
		c.dur += d
		if err != nil {
			return nil, err
		}
		if b.tracing {
			cells, err := cellSeconds(opts.Trace)
			if err != nil {
				return nil, err
			}
			for _, s := range cells {
				b.cellSecs += s
			}
			b.wallSecs += d.Seconds()
		}
		for _, byMult := range sw.Ratios {
			for _, byTrace := range byMult {
				out = append(out, byTrace...)
			}
		}
	}
	return out, nil
}

func (b *sweepBench) crossCheck() error {
	var c call
	sums, err := b.pair(1, &c)
	if err != nil {
		return err
	}
	if fnvFloats(sums) != b.want {
		return fmt.Errorf("sweep at 1 worker differs from the sweep at %d", b.e.workers)
	}
	return nil
}

func (b *sweepBench) setTraced(on bool) { b.tracing = on }

func (b *sweepBench) outputs() (float64, uint64) { return mean(b.ratios), b.want }

func (b *sweepBench) layers(m map[string]float64) error {
	m["experiments.parallel_efficiency"] = parallelEfficiency(b.cellSecs, b.wallSecs, b.e.workers)
	// A cell is one trace at one multiplier; at one worker its span is
	// the cell's own cost, free of pool contention.
	var cells []float64
	for a, app := range b.apps {
		tr := obs.NewTrace()
		if _, err := experiments.RunSweep(app, b.traces[a], b.mults,
			experiments.SweepOptions{Workers: 1, Trace: tr}); err != nil {
			return err
		}
		secs, err := cellSeconds(tr)
		if err != nil {
			return err
		}
		cells = append(cells, secs...)
	}
	for i := range cells {
		cells[i] *= 1e3
	}
	m["experiments.cell_ms"] = percentile(cells, 0.5)

	var ins []*core.Instance
	for a := range b.apps {
		for _, tr := range b.traces[a] {
			for _, mult := range b.mults {
				ins = append(ins, tr.Instance(tr.MinCapacity()*mult))
			}
		}
	}
	return heuristicLayers(ins, m)
}

// cellSeconds reads the per-cell durations a sweep recorded into its
// trace-event export.
func cellSeconds(tr *obs.Trace) ([]float64, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Args struct {
				Seconds *float64 `json:"seconds"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("reading sweep spans: %w", err)
	}
	var out []float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Args.Seconds != nil {
			out = append(out, *ev.Args.Seconds)
		}
	}
	return out, nil
}

func fnvFloats(xs []float64) uint64 {
	words := make([]uint64, len(xs))
	for i, x := range xs {
		words[i] = math.Float64bits(x)
	}
	return fnvWords(words...)
}
