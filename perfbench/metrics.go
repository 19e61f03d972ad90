package main

import (
	"math"
	"sort"

	"transched/internal/stats"
)

// metricDef names one reported metric. better is "lower" or "higher".
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run on every workload. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"ratio_mean", "ratio", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, reported by every traced
// run. A layer the workload does not probe reads 0 (README.md has the
// layer-to-workload map).
var perLayer = []metricDef{
	{"trace.read_us", "us", "lower"},
	{"trace.read_allocs", "count", "lower"},
	{"serve.digest_us", "us", "lower"},
	{"serve.digest_allocs", "count", "lower"},
	{"serve.decode_us", "us", "lower"},
	{"serve.cache_us", "us", "lower"},
	{"serve.encode_us", "us", "lower"},
	{"serve.solve_us", "us", "lower"},
	{"serve.queue_us", "us", "lower"},
	{"serve.unattributed_share", "ratio", "lower"},
	{"serve.hit_ratio", "ratio", "higher"},
	{"transched.solve_ms", "ms", "lower"},
	{"rts.solve_ms", "ms", "lower"},
	{"rts.batches", "count", "lower"},
	{"core.validate_us", "us", "lower"},
	{"heuristics.baseline_us_per_task", "us/task", "lower"},
	{"heuristics.static_us_per_task", "us/task", "lower"},
	{"heuristics.dynamic_us_per_task", "us/task", "lower"},
	{"heuristics.corrected_us_per_task", "us/task", "lower"},
	{"simulate.placed", "count", "lower"},
	{"simulate.mem_stalls", "count", "lower"},
	{"flowshop.johnson_us_per_task", "us/task", "lower"},
	{"flowshop.omim_us_per_task", "us/task", "lower"},
	{"experiments.cell_ms", "ms", "lower"},
	{"experiments.parallel_efficiency", "ratio", "higher"},
	{"milp.nodes", "count", "lower"},
	{"milp.us_per_node", "us", "lower"},
	{"lp.iters_per_node", "count", "lower"},
	{"lp.us_per_iter", "us", "lower"},
	{"lpsched.windows", "count", "lower"},
	{"lpsched.fallbacks", "count", "lower"},
	{"lpsched.gap_max", "ratio", "lower"},
	{"chem.generate_ms", "ms", "lower"},
	{"obs.trace_overhead_share", "ratio", "lower"},
}

// tailPercentile returns the highest whole percentile, at most 99, that
// has at least ten of n samples beyond its nearest rank, and false when
// not even the median has. A tail figure with fewer samples behind it
// would be one or two observations, not a percentile.
func tailPercentile(n int) (int, bool) {
	for p := 99; p >= 50; p-- {
		if int64(n)-stats.Rank(int64(n), float64(p)/100) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank q-quantile of unsorted values.
func percentile(values []float64, q float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return stats.NearestRank(s, q)
}

// allocKBPerOp is the heap allocated inside the program's calls per
// completed operation, in KB.
func allocKBPerOp(allocBytes uint64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(allocBytes) / 1024 / float64(ops)
}

// unattributedShare is the part of the handler's wall time that no
// reported stage accounts for: 1 - sum(stage times) / sum(wall times).
func unattributedShare(stageSum, wallSum float64) float64 {
	if wallSum <= 0 {
		return 0
	}
	return 1 - stageSum/wallSum
}

// parallelEfficiency is the busy share of the worker pool: the summed
// cell times over workers × the wall time the cells ran in.
func parallelEfficiency(cellSum, wall float64, workers int) float64 {
	if wall <= 0 || workers <= 0 {
		return 0
	}
	return cellSum / (float64(workers) * wall)
}

// sideSummary is one side of a comparison: the median and quartiles of
// a metric's values over runs.
type sideSummary struct {
	n           int
	q1, med, q3 float64
}

func summarize(values []float64) sideSummary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return sideSummary{
		n:   len(s),
		q1:  stats.NearestRank(s, 0.25),
		med: stats.NearestRank(s, 0.5),
		q3:  stats.NearestRank(s, 0.75),
	}
}

// verdict is the outcome of comparing a change against its parent.
type verdict struct {
	base, change sideSummary
	// wins and losses count the pairs where the change read better or
	// worse than the parent; ties count for neither.
	wins, losses, pairs int
	decision            string // "better", "worse" or "unresolved"
}

// compareRuns applies the gain rule to paired runs: the change is
// better when it wins at least nine tenths of the pairs and its median
// differs from the parent's by more than the parent's interquartile
// range; worse under the mirrored rule; unresolved otherwise.
// base[i] and change[i] form pair i.
func compareRuns(base, change []float64, better string) verdict {
	v := verdict{base: summarize(base), change: summarize(change)}
	v.pairs = min(len(base), len(change))
	sign := 1.0 // positive when higher is better
	if better == "lower" {
		sign = -1
	}
	for i := 0; i < v.pairs; i++ {
		switch d := sign * (change[i] - base[i]); {
		case d > 0:
			v.wins++
		case d < 0:
			v.losses++
		}
	}
	spread := v.base.q3 - v.base.q1
	diff := sign * (v.change.med - v.base.med)
	switch {
	case v.pairs > 0 && 10*v.wins >= 9*v.pairs && diff > spread:
		v.decision = "better"
	case v.pairs > 0 && 10*v.losses >= 9*v.pairs && -diff > spread:
		v.decision = "worse"
	default:
		v.decision = "unresolved"
	}
	return v
}

// finite reports whether x is a usable measurement.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
