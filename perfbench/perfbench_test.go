package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n, want int
		ok      bool
	}{
		{1000, 99, true}, // 10 samples beyond rank 990
		{999, 98, true},  // p99 would leave 9
		{100, 90, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestAllocKBPerOp(t *testing.T) {
	if got := allocKBPerOp(3*1024, 2); got != 1.5 {
		t.Errorf("allocKBPerOp(3 KB, 2 ops) = %g, want 1.5", got)
	}
	if got := allocKBPerOp(1024, 0); got != 0 {
		t.Errorf("allocKBPerOp with no ops = %g, want 0", got)
	}
}

func TestUnattributedShare(t *testing.T) {
	if got := unattributedShare(9, 10); got < 0.0999999 || got > 0.1000001 {
		t.Errorf("unattributedShare(9, 10) = %g, want 0.1", got)
	}
	if got := unattributedShare(1, 0); got != 0 {
		t.Errorf("unattributedShare with no wall time = %g, want 0", got)
	}
}

func TestParallelEfficiency(t *testing.T) {
	if got := parallelEfficiency(3, 2, 2); got != 0.75 {
		t.Errorf("parallelEfficiency(3 s of cells, 2 s wall, 2 workers) = %g, want 0.75", got)
	}
	if got := parallelEfficiency(3, 0, 2); got != 0 {
		t.Errorf("parallelEfficiency with no wall time = %g, want 0", got)
	}
}

func TestCompareRuns(t *testing.T) {
	base := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, c := range []struct {
		name   string
		change []float64
		better string
		want   string
		wins   int
	}{
		// The parent's quartiles are 12 and 17: a 6-unit drop wins every
		// pair and clears the interquartile range of 5.
		{"clear gain", shift(-6), "lower", "better", 10},
		{"clear loss", shift(6), "lower", "worse", 0},
		{"gain within the spread", shift(-4), "lower", "unresolved", 10},
		{"higher is better", shift(6), "higher", "better", 10},
		{"ties count for neither", base, "lower", "unresolved", 0},
		{"eight of ten pairs", append(shift(-6)[:8], 100, 100), "lower", "unresolved", 8},
	} {
		v := compareRuns(base, c.change, c.better)
		if v.decision != c.want || v.wins != c.wins || v.pairs != len(base) {
			t.Errorf("%s: decision %s, %d/%d wins; want %s, %d/%d",
				c.name, v.decision, v.wins, v.pairs, c.want, c.wins, len(base))
		}
	}
}

type metricSpec struct{ Name, Unit, Better string }

// benchSpec is the part of BENCHMARK.json the driver mirrors.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// The metric tables are the driver's copy of BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	check := func(kind string, defs []metricDef, got []metricSpec) {
		if len(got) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the driver %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the driver %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the driver", w.Name)
		}
	}
	for name, c := range companions {
		if _, ok := findWorkload(c.workload); !ok {
			t.Errorf("companion %q of %q is not in the driver", c.workload, name)
		}
	}
}

// The traced runs of the gated workloads and their companions between
// them measure every layer: no per-layer metric reads 0 on all of them.
func TestGatedTracedRunsCoverEveryLayer(t *testing.T) {
	seen := map[string]bool{}
	for _, g := range readSpec(t).Workloads {
		name := g.Name
		w, _ := findWorkload(name)
		res, err := run(w, env{seed: 4, sz: tinySizes, workers: 2, traced: true}, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("%s: problems %v", name, res.Problems)
		}
		for k, v := range res.Metrics {
			if v != 0 {
				seen[k] = true
			}
		}
	}
	// These can measure 0: a gap when every window is proven optimal,
	// stages shorter than the timing header's microsecond resolution.
	zero := map[string]bool{"lpsched.gap_max": true, "serve.queue_us": true, "serve.encode_us": true, "serve.cache_us": true}
	for _, d := range perLayer {
		if !seen[d.name] && !zero[d.name] {
			t.Errorf("%s reads 0 on every gated traced run", d.name)
		}
	}
}

var tinySizes = sizes{
	setupReps:   2,
	serveTasks:  [2]int{10, 20},
	hitTraces:   4,
	missTraces:  8,
	missCache:   2,
	batchEvery:  4,
	batchSize:   5,
	paperTasks:  [2]int{20, 40},
	sweepTraces: 2,
	milpTraces:  1,
	milpPrefix:  8,
	milpMults:   []float64{1.0, 1.5},
	probeCalls:  8,
	probeSolves: 2,
}

// TestSmoke runs every workload untraced and traced at tiny sizes: every
// check passes, every metric is reported, and the output digest repeats
// across runs and worker counts.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for _, c := range []struct {
				workers int
				traced  bool
			}{{2, false}, {1, false}, {2, true}} {
				res, err := run(w, env{seed: 3, sz: tinySizes, workers: c.workers, traced: c.traced}, 0.01)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Ops == 0 {
					t.Fatalf("workers %d traced %v: correct %v, %d ops, %d failed, problems %v",
						c.workers, c.traced, res.Correct, res.Ops, res.Failed, res.Problems)
				}
				defs := endToEnd
				if c.traced {
					defs = perLayer
				}
				for _, d := range defs {
					if _, ok := res.Metrics[d.name]; !ok {
						t.Errorf("workers %d traced %v: no %s", c.workers, c.traced, d.name)
					}
				}
				if !c.traced && res.Metrics["ops_per_s"] <= 0 {
					t.Errorf("ops_per_s = %g", res.Metrics["ops_per_s"])
				}
				digests = append(digests, res.Digest)
			}
			for _, d := range digests[1:] {
				if d != digests[0] {
					t.Errorf("output digests differ across runs: %v", digests)
				}
			}
		})
	}
}

func TestServeHitRatios(t *testing.T) {
	for _, c := range []struct {
		name string
		want float64
	}{{"serve-hit", 1}, {"serve-miss", 0}} {
		w, _ := findWorkload(c.name)
		res, err := run(w, env{seed: 5, sz: tinySizes, workers: 2, traced: true}, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Metrics["serve.hit_ratio"]; got != c.want {
			t.Errorf("%s: serve.hit_ratio = %g, want %g", c.name, got, c.want)
		}
	}
}

// writeRecords saves runs as a file of perfbench output.
func writeRecords(t *testing.T, path string, runs ...result) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("noise\n")
	for _, r := range runs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(recordPrefix + string(line) + "\n{}\n")
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func sweepRun(seed int64, digest string, latency float64) result {
	return result{Workload: "sweep", Seed: seed, Digest: digest, Metrics: map[string]float64{"latency_p50_ms": latency}}
}

func TestCompareFlagsDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	a := writeRecords(t, filepath.Join(dir, "a"), sweepRun(1, "01", 2))
	b := writeRecords(t, filepath.Join(dir, "b"), sweepRun(1, "01", 1))
	c := writeRecords(t, filepath.Join(dir, "c"), sweepRun(1, "02", 1))
	var out, errOut strings.Builder
	if code := compareMain([]string{a, b}, &out, &errOut); code != 0 {
		t.Fatalf("matching digests: exit %d, output:\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "latency_p50_ms") {
		t.Errorf("compare output lacks the metric row:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{a, c}, &out, &errOut); code != 1 {
		t.Errorf("mismatched digests: exit %d, want 1", code)
	}
}

// Runs pair by seed, whatever order the files hold them in; a seed on
// one side only is reported and left out of the pairs.
func TestComparePairsBySeed(t *testing.T) {
	dir := t.TempDir()
	base := writeRecords(t, filepath.Join(dir, "base"),
		sweepRun(3, "03", 30), sweepRun(1, "01", 10), sweepRun(2, "02", 20))
	change := writeRecords(t, filepath.Join(dir, "change"),
		sweepRun(2, "02", 19), sweepRun(4, "04", 1), sweepRun(3, "03", 29))
	var out, errOut strings.Builder
	if code := compareMain([]string{base, change}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, output:\n%s%s", code, out.String(), errOut.String())
	}
	got := out.String()
	for _, want := range []string{"UNPAIRED: sweep trace=0 seed 1 is only in " + base,
		"UNPAIRED: sweep trace=0 seed 4 is only in " + change} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	// Seeds 2 and 3 pair, and the change is 1 ms faster in both.
	if !strings.Contains(got, " 2/2 ") {
		t.Errorf("want 2 of 2 pairs won:\n%s", got)
	}

	dup := writeRecords(t, filepath.Join(dir, "dup"), sweepRun(2, "02", 19), sweepRun(2, "02", 18))
	if code := compareMain([]string{base, dup}, &out, &errOut); code != 1 {
		t.Errorf("two runs of one seed on a side: exit %d, want 1", code)
	}
}

// A host on which the reference ran twice as slow as refNominal has
// speed 0.5 by the median; the total also counts a stalled run.
func TestHostSpeeds(t *testing.T) {
	var reps []time.Duration
	for k := 0; k < 9; k++ {
		reps = append(reps, 2*refNominal)
	}
	reps = append(reps, 12*refNominal) // one run stalled
	med, tot := speeds(reps)
	if med != 0.5 || tot != 10.0/30 {
		t.Errorf("speeds = %g, %g; want 0.5, %g", med, tot, 10.0/30)
	}
	if med, tot := speeds(nil); med != 1 || tot != 1 {
		t.Errorf("speeds without runs = %g, %g; want 1, 1", med, tot)
	}
}

func TestFigures(t *testing.T) {
	ph := phase{ops: 4, failed: 1}
	for _, ms := range []int{1, 2, 3, 6} {
		ph.steps = append(ph.steps, call{dur: time.Duration(ms) * time.Millisecond, ops: 1})
	}
	ops, p50 := ph.figures()
	if ops != 250 || p50 != 2 {
		t.Errorf("figures = %g ops/s, p50 %g ms; want 250, 2", ops, p50)
	}
}

func TestHostRefRepeats(t *testing.T) {
	for _, par := range []int{1, 2} {
		r, err := newHostRef(par)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := r.run(); err != nil {
				t.Fatalf("par %d: %v", par, err)
			}
		}
		if err := r.close(); err != nil {
			t.Fatal(err)
		}
	}
}
