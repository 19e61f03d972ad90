package main

import (
	"runtime"
	"time"

	"transched/internal/core"
	"transched/internal/flowshop"
	"transched/internal/heuristics"
	"transched/internal/simulate"
)

// probe times calls of fn and returns the median microseconds per call
// and the heap allocations per call.
func probe(calls int, fn func(k int)) (us, allocs float64) {
	times := make([]float64, calls)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := range times {
		t0 := time.Now()
		fn(k)
		times[k] = time.Since(t0).Seconds() * 1e6
	}
	runtime.ReadMemStats(&m1)
	return percentile(times, 0.5), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// categoryMetric names the per-task time metric of each heuristic
// category, indexed by heuristics.Category.
var categoryMetric = [...]string{
	heuristics.Baseline:  "heuristics.baseline_us_per_task",
	heuristics.Static:    "heuristics.static_us_per_task",
	heuristics.Dynamic:   "heuristics.dynamic_us_per_task",
	heuristics.Corrected: "heuristics.corrected_us_per_task",
}

// heuristicLayers runs all fourteen heuristics on each instance: it
// times Heuristic.Run per category, counts placements and memory stalls
// exactly through an Executor running the same policy, and times the
// Johnson order and the OMIM bound every heuristic's ratio rests on.
func heuristicLayers(ins []*core.Instance, m map[string]float64) error {
	var catUs [len(categoryMetric)]float64
	var catTasks [len(categoryMetric)]int
	var placed, stalls, tasks int
	var johnsonUs, omimUs float64
	for _, in := range ins {
		for _, h := range heuristics.All(in.Capacity) {
			var err error
			d := measure(func() { _, err = h.Run(in) })
			if err != nil {
				return err
			}
			catUs[h.Category] += d.Seconds() * 1e6
			catTasks[h.Category] += len(in.Tasks)
			ex := simulate.NewExecutor(in.Capacity)
			if err := ex.RunBatch(h.Policy, in.Tasks); err != nil {
				return err
			}
			st := ex.Stats()
			placed += st.Placed
			stalls += st.MemStalls
		}
		d := measure(func() { flowshop.JohnsonOrder(in.Tasks) })
		johnsonUs += d.Seconds() * 1e6
		d = measure(func() { flowshop.OMIM(in.Tasks) })
		omimUs += d.Seconds() * 1e6
		tasks += len(in.Tasks)
	}
	for c, name := range categoryMetric {
		if catTasks[c] > 0 {
			m[name] = catUs[c] / float64(catTasks[c])
		}
	}
	m["simulate.placed"] = float64(placed)
	m["simulate.mem_stalls"] = float64(stalls)
	if tasks > 0 {
		m["flowshop.johnson_us_per_task"] = johnsonUs / float64(tasks)
		m["flowshop.omim_us_per_task"] = omimUs / float64(tasks)
	}
	return nil
}
