package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"transched/internal/chem"
	"transched/internal/cluster"
	"transched/internal/trace"
)

// sizes sets how large each workload's inputs are. paperSizes is what the
// benchmark runs; the tests run tinySizes.
type sizes struct {
	setupReps int // set-ups per run; setup_s is their median

	serveTasks [2]int // task-count range of the serve traces
	hitTraces  int    // distinct requests on serve-hit
	missTraces int    // distinct requests on serve-miss
	missCache  int    // LRU entries on serve-miss
	batchEvery int    // every batchEvery-th serve-miss request is batched
	batchSize  int

	paperTasks  [2]int // task-count range of the sweep and milp traces
	sweepTraces int    // traces per application

	milpTraces int // HF traces; each gives len(milpMults) instances
	milpPrefix int // tasks kept from each trace
	milpMults  []float64

	probeCalls  int // minimum timed calls per decode-layer probe
	probeSolves int // traces per solver-layer probe
}

var paperSizes = sizes{
	setupReps:   5,
	serveTasks:  [2]int{100, 200},
	hitTraces:   32,
	missTraces:  1024,
	missCache:   256,
	batchEvery:  4,
	batchSize:   50,
	paperTasks:  [2]int{300, 800},
	sweepTraces: 8,
	milpTraces:  12,
	milpPrefix:  40,
	milpMults:   []float64{1.0, 1.25, 1.5, 1.75},
	probeCalls:  512,
	probeSolves: 32,
}

// env is what a workload is built from.
type env struct {
	seed    int64
	sz      sizes
	workers int  // nproc: the sweep and B&B pools, never more
	traced  bool // also build the instrumented variant
}

// call is what one step spent inside the program.
type call struct {
	dur    time.Duration
	ops    int // operations attempted
	failed int // operations that errored or failed a check
	// checkAlloc is the heap a one-off output check allocated (the
	// first decode of a serve reply), left out of the phase's alloc.
	checkAlloc uint64
}

// stepper is a workload after set-up. The runner drives it step by step;
// each step times only its calls into the program, so the driver's own
// checking costs no time in the metrics.
type stepper interface {
	// cycle is the number of steps that visit every input once.
	cycle() int
	// step runs step k. The error describes the first failed check.
	step(k int) (call, error)
	// crossCheck reruns a warm-up output at one worker and compares
	// digests: outputs must not depend on the worker count.
	crossCheck() error
	// setTraced switches later steps to the instrumented variant.
	setTraced(on bool)
	// outputs is the mean makespan/OMIM over the distinct results and
	// the FNV digest of every output.
	outputs() (ratioMean float64, digest uint64)
	// layers fills the per-layer metrics this workload probes.
	layers(m map[string]float64) error
}

type workload struct {
	name string
	// parallel workloads run the program on env.workers goroutines at
	// once, and the host reference with them: the sweep and B&B pools,
	// and on serve-miss the portfolio's GOMAXPROCS-wide fan-out.
	parallel bool
	// build generates the inputs, builds the program's inputs and runs
	// one warm-up pass.
	build func(e env) (stepper, built, error)
}

// built is what one set-up reports besides the workload.
type built struct {
	genMs float64 // chem generation
	// inputsMB is the live heap once the driver's inputs exist, before
	// the program's server or solver inputs are built.
	inputsMB float64
}

// workloads are described, with why each was chosen, in README.md;
// BENCHMARK.json gates serve-hit, serve-miss and sweep.
var workloads = []workload{
	{"serve-hit", false, func(e env) (stepper, built, error) { return newServe(e, true) }},
	{"serve-miss", true, func(e env) (stepper, built, error) { return newServe(e, false) }},
	{"sweep", true, newSweep},
	{"milp", true, newMILP},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocated is the cumulative heap allocation, MemStats.TotalAlloc
// without the stop-the-world pause ReadMemStats costs.
func heapAllocated() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// liveHeapMB is HeapAlloc after two forced collections: the first moves
// sync.Pool contents to the victim cache, the second frees them, so only
// what is reachable is left.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// measure times fn.
func measure(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// generate makes n traces of app, drawn by the chem generator from seeds
// derived from seed. Task counts are spread evenly over [lo, hi] and
// shuffled by a fixed permutation, so every seed gets the same mix of
// sizes: the seed varies the contents, not how much work a run holds.
func generate(app string, seed int64, n, lo, hi int) ([]*trace.Trace, error) {
	out := make([]*trace.Trace, n)
	for k := range out {
		size := lo
		if n > 1 {
			size = lo + (k*7919%n)*(hi-lo)/(n-1)
		}
		trs, err := chem.Generate(app, cluster.Cascade(), chem.Config{
			Seed: seed<<20 + int64(k), Processes: 1, MinTasks: size, MaxTasks: size,
		})
		if err != nil {
			return nil, err
		}
		trs[0].Process = k
		out[k] = trs[0]
	}
	return out, nil
}

// phase is one timed loop's record, step by step. alloc is the heap
// allocated over the whole loop, the driver's per-op bookkeeping
// included and its one-off output checks left out.
type phase struct {
	steps       []call
	alloc       uint64
	ops, failed int
	refs        []time.Duration // per rep, of each reference run
	refErr      error
	// steal is the share of the machine's CPU time the hypervisor gave
	// to other guests during the phase, -1 where it is not reported.
	steal float64
}

// timed steps st in whole cycles until at least seconds have passed.
// Whole cycles give every input the same weight in every run, which
// matters where one cycle is a few long, unequal steps (milp). After
// each step, ref (when not nil) runs until it has had refShare of the
// time the program had.
func timed(st stepper, ref *hostRef, seconds float64) phase {
	ph := phase{steal: -1}
	var checks uint64
	var busy, refTime time.Duration
	steal0, stealOK := stealSeconds()
	a0 := heapAllocated()
	start := time.Now()
	for k := 0; k%st.cycle() != 0 || k == 0 || time.Since(start).Seconds() < seconds; k++ {
		c, err := st.step(k)
		if err != nil && ph.failed < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: step %d: %v\n", k, err)
		}
		ph.steps = append(ph.steps, c)
		checks += c.checkAlloc
		ph.ops += c.ops
		ph.failed += c.failed
		busy += c.dur
		for ref != nil && ph.refErr == nil && refTime.Seconds() < refShare*busy.Seconds() {
			d, err := ref.run()
			ph.refs = append(ph.refs, d)
			refTime += d * (refRepsPerRun + 1)
			ph.refErr = err
		}
	}
	ph.alloc = heapAllocated() - a0 - checks
	if steal1, ok := stealSeconds(); ok && stealOK {
		ph.steal = (steal1 - steal0) / (time.Since(start).Seconds() * float64(runtime.NumCPU()))
	}
	return ph
}

// lats is every step's latency in milliseconds.
func (ph phase) lats() []float64 {
	out := make([]float64, len(ph.steps))
	for i, c := range ph.steps {
		out[i] = c.dur.Seconds() * 1e3
	}
	return out
}

// figures returns the completed ops per second of program time and the
// median step latency.
func (ph phase) figures() (opsPerS, p50ms float64) {
	var busy time.Duration
	for _, c := range ph.steps {
		busy += c.dur
	}
	return float64(ph.ops-ph.failed) / busy.Seconds(), percentile(ph.lats(), 0.5)
}

// setUp builds the workload sz.setupReps times and keeps the last build;
// the first set-ups of a fresh process run slow, so the median is the
// set-up time reported.
func setUp(w workload, e env) (stepper, []float64, []built, error) {
	var st stepper
	var setups []float64
	var infos []built
	for r := 0; r < max(1, e.sz.setupReps); r++ {
		st = nil
		runtime.GC()
		t0 := time.Now()
		s, info, err := w.build(e)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		infos = append(infos, info)
		st = s
	}
	return st, setups, infos, nil
}

// fnvWords is FNV-64a over a sequence of words, the output digest.
func fnvWords(words ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range words {
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func fnvBytes(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratioOK reports whether a makespan/OMIM ratio is a valid result: OMIM
// is a lower bound, so no schedule may beat it beyond rounding.
func ratioOK(r float64) bool { return finite(r) && r >= 1-1e-9 }
