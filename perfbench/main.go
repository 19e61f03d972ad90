// Command perfbench is the repository's benchmark: one driver that runs
// the serving tier, the capacity sweeps and the windowed MILP on inputs
// generated from a seed, checks every output, and prints every metric by
// name with its unit (README.md).
//
//	perfbench --workload serve-hit|serve-miss|sweep|milp --seed N --seconds S --trace 0|1
//	perfbench compare BASE CHANGE
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 the per-layer metrics of a traced run. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. The line before it, prefixed "perfbench-record ", holds the
// whole result stamped with its host; compare reads those lines from two
// files of saved output and decides, per workload and metric, whether the
// change won.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-hit, serve-miss, sweep or milp")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 20, "how long the timed phase runs")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	e := env{seed: *seed, sz: paperSizes, workers: nproc(), traced: *traced == 1}
	res, err := run(w, e, *seconds)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// nproc bounds every pool the benchmark starts.
func nproc() int { return min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) }

// host stamps a result with where it was measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"commit"`
}

func thisHost() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), GOGC: os.Getenv("GOGC"), Commit: "unknown"}
	if h.GOGC == "" {
		h.GOGC = "100"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			h.Commit += "+dirty"
		}
	}
	return h
}

// result is one run's outcome.
type result struct {
	Workload string   `json:"workload"`
	Trace    int      `json:"trace"`
	Seed     int64    `json:"seed"`
	Host     host     `json:"host"`
	Ops      int      `json:"ops"`
	Failed   int      `json:"failed"`
	Steps    int      `json:"steps"`
	Correct  bool     `json:"correct"`
	Digest   string   `json:"digest"`
	Problems []string `json:"problems,omitempty"`
	// Metrics are the gated metrics: end-to-end untraced, per-layer
	// traced. Report holds figures printed for reading only.
	Metrics map[string]float64 `json:"metrics"`
	Report  map[string]float64 `json:"report,omitempty"`
}

func run(w workload, e env, seconds float64) (*result, error) {
	par := 1
	if w.parallel {
		par = e.workers
	}
	ref, err := newHostRef(par)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	st, setups, infos, err := setUp(w, e)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Seed: e.seed, Host: thisHost(),
		Metrics: map[string]float64{}, Report: map[string]float64{}}
	if err := st.crossCheck(); err != nil {
		res.Problems = append(res.Problems, err.Error())
	}
	count := func(ph phase) {
		res.Ops += ph.ops
		res.Failed += ph.failed
		res.Steps += len(ph.steps)
		if ph.refErr != nil {
			res.Problems = append(res.Problems, ph.refErr.Error())
		}
	}
	if !e.traced {
		ph := timed(st, ref, seconds)
		count(ph)
		// Each figure is scaled by the reference statistic of its own
		// kind: totals (throughput, set-up time) by the reference's total
		// time per rep, medians and tails by its median rep.
		med, tot := speeds(ph.refs)
		ops, p50 := ph.figures()
		setup := percentile(setups, 0.5)
		res.Metrics["setup_s"] = setup * tot
		res.Metrics["ops_per_s"] = ops / tot
		res.Metrics["latency_p50_ms"] = p50 * med
		res.Metrics["alloc_kb_per_op"] = allocKBPerOp(ph.alloc, ph.ops)
		res.Report["raw_setup_s"], res.Report["raw_ops_per_s"], res.Report["raw_latency_p50_ms"] = setup, ops, p50
		res.Report["host_speed_median"], res.Report["host_speed_total"] = med, tot
		if ph.steal >= 0 {
			res.Report["host_steal_share"] = ph.steal
		}
		lats := ph.lats()
		res.Report["latency_samples"] = float64(len(lats))
		if p, ok := tailPercentile(len(lats)); ok {
			res.Report[fmt.Sprintf("latency_p%d_ms", p)] = percentile(lats, float64(p)/100) * med
		}
		ph, lats = phase{}, nil
		res.Metrics["live_heap_mb"] = liveHeapMB()
		res.Report["live_heap_inputs_mb"] = infos[len(infos)-1].inputsMB
		res.Metrics["ratio_mean"], _ = st.outputs()
	} else {
		res.Trace = 1
		untraced := timed(st, ref, seconds/2)
		st.setTraced(true)
		traced := timed(st, ref, seconds/2)
		count(untraced)
		count(traced)
		for _, d := range perLayer {
			res.Metrics[d.name] = 0
		}
		if err := st.layers(res.Metrics); err != nil {
			res.Problems = append(res.Problems, "layer probes: "+err.Error())
		}
		if c, ok := companions[w.name]; ok {
			if err := probeCompanion(c, e, res.Metrics); err != nil {
				res.Problems = append(res.Problems, c.workload+" layer probes: "+err.Error())
			}
		}
		gens := make([]float64, len(infos))
		for i, b := range infos {
			gens[i] = b.genMs
		}
		res.Metrics["chem.generate_ms"] = percentile(gens, 0.5)
		medA, _ := speeds(untraced.refs)
		medB, _ := speeds(traced.refs)
		_, p50a := untraced.figures()
		_, p50b := traced.figures()
		res.Metrics["obs.trace_overhead_share"] = (p50b*medB)/(p50a*medA) - 1
	}
	_, digest := st.outputs()
	res.Digest = fmt.Sprintf("%016x", digest)
	res.Report["fail_ratio"] = float64(res.Failed) / float64(res.Ops)
	for name, v := range res.Metrics {
		if !finite(v) {
			res.Problems = append(res.Problems, fmt.Sprintf("metric %s is %g", name, v))
			res.Metrics[name] = 0
		}
	}
	sort.Strings(res.Problems)
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

// companion is a workload whose layers a gated workload's traced run
// also probes, so that every layer is measured on a workload
// BENCHMARK.json gates: the LP under sweep.
type companion struct {
	workload string
	// layers are the metric names, or name prefixes ending in ".", the
	// companion reports.
	layers []string
}

var companions = map[string]companion{
	"sweep": {"milp", []string{"milp.", "lp.", "lpsched."}},
}

// probeCompanion builds the companion workload, runs one traced pass
// over its inputs and copies its layers' metrics into m.
func probeCompanion(c companion, e env, m map[string]float64) error {
	w, _ := findWorkload(c.workload)
	e.traced = true
	e.sz.milpTraces = min(e.sz.milpTraces, 4)
	st, _, err := w.build(e)
	if err != nil {
		return err
	}
	st.setTraced(true)
	if ph := timed(st, nil, 0); ph.failed > 0 {
		return fmt.Errorf("%d of %d ops failed their checks", ph.failed, ph.ops)
	}
	cm := map[string]float64{}
	if err := st.layers(cm); err != nil {
		return err
	}
	for k, v := range cm {
		for _, l := range c.layers {
			if k == l || (strings.HasSuffix(l, ".") && strings.HasPrefix(k, l)) {
				m[k] = v
			}
		}
	}
	return nil
}

// print writes the human-readable table, the record line and, last, the
// result line.
func (r *result) print(w io.Writer) error {
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%d nproc=%d GOMAXPROCS=%d GOGC=%s go=%s commit=%s ops=%d steps=%d digest=%s\n",
		r.Workload, r.Seed, r.Trace, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GOGC, r.Host.Go, r.Host.Commit, r.Ops, r.Steps, r.Digest)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %-8s %s is better\n", d.name, r.Metrics[d.name], d.unit, d.better)
	}
	extra := make([]string, 0, len(r.Report))
	for k := range r.Report {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(w, "  %-34s %14.6g\n", k, r.Report[k])
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	rec, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", recordPrefix, rec)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Ops, r.Failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		out.Metrics[d.name] = value{r.Metrics[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

const recordPrefix = "perfbench-record "

// readRecords collects the record lines of a file of saved output.
func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), recordPrefix)
		if !ok {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareMain prints, per workload and metric, both sides' medians and
// quartiles over the paired runs, the pairs the change won, and the
// decision of compareRuns. Runs pair up by workload, trace mode and seed;
// a seed found on one side only is reported and left out. It fails when
// a side holds two runs of one workload, mode and seed, or when two runs
// of one workload and seed disagree on their output digest.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE CHANGE (files of saved perfbench output)")
		return 2
	}
	type key struct {
		workload string
		trace    int
		seed     int64
	}
	var sides [2]map[key]result
	for i, path := range args {
		rs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		sides[i] = make(map[key]result, len(rs))
		for _, r := range rs {
			k := key{r.Workload, r.Trace, r.Seed}
			if _, dup := sides[i][k]; dup {
				fmt.Fprintf(stderr, "perfbench: %s holds two runs of %s trace=%d seed %d\n", path, r.Workload, r.Trace, r.Seed)
				return 1
			}
			sides[i][k] = r
		}
	}
	status := 0
	digests := map[string]string{}
	for _, rs := range sides {
		for _, r := range rs {
			k := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
			if d, ok := digests[k]; ok && d != r.Digest {
				fmt.Fprintf(stdout, "OUTPUT MISMATCH: %s: digest %s vs %s\n", k, d, r.Digest)
				status = 1
			}
			digests[k] = r.Digest
		}
	}

	var paired []key
	for i, rs := range sides {
		for k := range rs {
			if _, ok := sides[1-i][k]; !ok {
				fmt.Fprintf(stdout, "UNPAIRED: %s trace=%d seed %d is only in %s\n", k.workload, k.trace, k.seed, args[i])
			} else if i == 0 {
				paired = append(paired, k)
			}
		}
	}
	sort.Slice(paired, func(a, b int) bool {
		x, y := paired[a], paired[b]
		if x.workload != y.workload {
			return x.workload < y.workload
		}
		if x.trace != y.trace {
			return x.trace < y.trace
		}
		return x.seed < y.seed
	})
	fmt.Fprintf(stdout, "%-10s %-34s %-7s %-32s %-32s %-7s %s\n",
		"workload", "metric", "unit", "base q1/median/q3 (n)", "change q1/median/q3 (n)", "won", "decision")
	for lo := 0; lo < len(paired); {
		hi := lo
		for hi < len(paired) && paired[hi].workload == paired[lo].workload && paired[hi].trace == paired[lo].trace {
			hi++
		}
		group := paired[lo:hi]
		defs := endToEnd
		if group[0].trace == 1 {
			defs = perLayer
		}
		for _, d := range defs {
			var base, change []float64
			for _, k := range group {
				b, okB := sides[0][k].Metrics[d.name]
				c, okC := sides[1][k].Metrics[d.name]
				if okB && okC {
					base, change = append(base, b), append(change, c)
				}
			}
			if len(base) == 0 {
				continue
			}
			v := compareRuns(base, change, d.better)
			fmt.Fprintf(stdout, "%-10s %-34s %-7s %-32s %-32s %-7s %s\n", group[0].workload, d.name, d.unit,
				side(v.base), side(v.change), fmt.Sprintf("%d/%d", v.wins, v.pairs), v.decision)
		}
		lo = hi
	}
	return status
}

func side(s sideSummary) string {
	return fmt.Sprintf("%.4g/%.4g/%.4g (%d)", s.q1, s.med, s.q3, s.n)
}
