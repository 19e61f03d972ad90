package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"transched"
	"transched/internal/core"
	"transched/internal/flowshop"
	"transched/internal/obs"
	"transched/internal/rts"
	"transched/internal/serve"
	"transched/internal/trace"
)

// serveBench drives serve.Server's handler in-process from one caller in
// a closed loop, with no socket: serve-hit cycles over requests that the
// warm-up pass cached, serve-miss over more distinct requests than the
// LRU holds, so every request misses, inserts and evicts.
type serveBench struct {
	e       env
	hit     bool
	traces  []*trace.Trace // the bodies as the server parses them
	bodies  [][]byte
	urls    []string
	opts    []transched.SolveOptions
	offset  int // first index the timed loop requests
	plain   *server
	traced  *server
	cur     *server
	rec     recorder
	want    []uint64 // FNV of each index's verified body; 0 until seen
	ratios  []float64
	tracing bool

	// Traced-phase records: per-stage milliseconds from the timing
	// header, and the summed stage and handler times.
	stages            map[string][]float64
	stageSum, wallSum float64
	hits0, reqs0      float64
}

type server struct {
	h   http.Handler
	reg *obs.Registry
}

func newServer(entries int, tracing bool) *server {
	reg := obs.NewRegistry()
	cfg := serve.Config{Registry: reg, CacheEntries: entries}
	if tracing {
		cfg.Tracer = obs.NewReqTracer(obs.ReqTracerConfig{Registry: reg})
	}
	return &server{h: serve.New(cfg).Handler(), reg: reg}
}

func newServe(e env, hit bool) (*serveBench, built, error) {
	n, entries, warm := e.sz.hitTraces, 0, e.sz.hitTraces
	if !hit {
		n, entries, warm = e.sz.missTraces, e.sz.missCache, e.sz.missCache
	}
	t0 := time.Now()
	trs, err := generate("CCSD", e.seed, n, e.sz.serveTasks[0], e.sz.serveTasks[1])
	if err != nil {
		return nil, built{}, err
	}
	info := built{genMs: time.Since(t0).Seconds() * 1e3}
	b := &serveBench{
		e: e, hit: hit, offset: warm % n,
		traces: make([]*trace.Trace, n), bodies: make([][]byte, n),
		urls: make([]string, n), opts: make([]transched.SolveOptions, n),
		want: make([]uint64, n), ratios: make([]float64, n),
		rec:    recorder{h: make(http.Header)},
		stages: make(map[string][]float64),
	}
	for i, tr := range trs {
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			return nil, built{}, err
		}
		b.bodies[i] = buf.Bytes()
		if b.traces[i], err = trace.Read(bytes.NewReader(b.bodies[i])); err != nil {
			return nil, built{}, err
		}
		b.opts[i] = transched.SolveOptions{CapacityMultiplier: 1.5}
		b.urls[i] = "/solve?capacity=1.5"
		if !hit && i%e.sz.batchEvery == e.sz.batchEvery-1 {
			b.opts[i].BatchSize = e.sz.batchSize
			b.urls[i] += fmt.Sprintf("&batch=%d", e.sz.batchSize)
		}
	}
	info.inputsMB = liveHeapMB()
	b.plain = newServer(entries, false)
	servers := []*server{b.plain}
	if e.traced {
		b.traced = newServer(entries, true)
		servers = append(servers, b.traced)
	}
	// The warm-up pass: on serve-hit it fills the cache with every
	// request; on serve-miss it fills the LRU, so the first timed
	// request already evicts.
	for _, s := range servers {
		b.cur = s
		for i := 0; i < warm; i++ {
			if _, err := b.request(i, false); err != nil {
				return nil, built{}, fmt.Errorf("warm-up request %d: %w", i, err)
			}
		}
	}
	b.cur = b.plain
	return b, info, nil
}

func (b *serveBench) cycle() int { return len(b.bodies) }

func (b *serveBench) step(k int) (call, error) {
	return b.request((b.offset+k)%len(b.bodies), b.hit)
}

// crossCheck has no worker count to vary on the serve path; its
// determinism check is that every reply repeats the first byte for byte.
func (b *serveBench) crossCheck() error { return nil }

func (b *serveBench) setTraced(on bool) {
	b.tracing = on
	b.cur = b.plain
	if on {
		b.cur = b.traced
		b.hits0 = counter(b.cur.reg, "serve_cache_hits_total")
		b.reqs0 = counter(b.cur.reg, "serve_requests_total")
	}
}

// request sends request i and checks the reply: a 200 with the expected
// cache outcome whose body, the first time index i is seen, holds a valid
// schedule with makespan >= OMIM, and afterwards is byte-identical to it.
func (b *serveBench) request(i int, wantHit bool) (call, error) {
	c := call{ops: 1, failed: 1}
	req, err := http.NewRequest(http.MethodPost, b.urls[i], bytes.NewReader(b.bodies[i]))
	if err != nil {
		return c, err
	}
	b.rec.reset()
	c.dur = measure(func() { b.cur.h.ServeHTTP(&b.rec, req) })
	if b.rec.code != http.StatusOK {
		return c, fmt.Errorf("request %d: status %d: %s", i, b.rec.code, b.rec.body.Bytes())
	}
	want := "miss"
	if wantHit {
		want = "hit"
	}
	if got := b.rec.h.Get("X-Transched-Cache"); got != want {
		return c, fmt.Errorf("request %d: cache %q, want %q", i, got, want)
	}
	if b.tracing {
		b.recordTiming(c.dur)
	}
	body := b.rec.body.Bytes()
	sum := fnvBytes(body)
	switch {
	case b.want[i] == 0:
		a0 := heapAllocated()
		r, err := checkResponse(body, b.traces[i], b.opts[i])
		c.checkAlloc = heapAllocated() - a0
		if err != nil {
			return c, fmt.Errorf("request %d: %w", i, err)
		}
		b.want[i], b.ratios[i] = sum, r
	case b.want[i] != sum:
		return c, fmt.Errorf("request %d: response body differs from the first one", i)
	}
	c.failed = 0
	return c, nil
}

// recordTiming parses the X-Transched-Timing header (Server-Timing
// syntax, milliseconds) of the reply just received.
func (b *serveBench) recordTiming(wall time.Duration) {
	b.wallSum += wall.Seconds() * 1e3
	for _, part := range strings.Split(b.rec.h.Get("X-Transched-Timing"), ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok || name == "total" {
			continue
		}
		ms, err := strconv.ParseFloat(dur, 64)
		if err != nil {
			continue
		}
		b.stages[name] = append(b.stages[name], ms)
		b.stageSum += ms
	}
}

// checkResponse verifies one /solve body against the trace it answers
// and returns its makespan/OMIM.
func checkResponse(body []byte, tr *trace.Trace, opts transched.SolveOptions) (float64, error) {
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decoding response: %w", err)
	}
	capacity := tr.MinCapacity() * opts.CapacityMultiplier
	if resp.Capacity != capacity {
		return 0, fmt.Errorf("capacity %g, want %g", resp.Capacity, capacity)
	}
	if opts.BatchSize > 0 && resp.Batches == 0 {
		return 0, fmt.Errorf("batched request reports no batches")
	}
	byName := make(map[string]core.Task, len(tr.Tasks))
	for _, t := range tr.Tasks {
		byName[t.Name] = t
	}
	s := core.NewScheduleCap(capacity, len(resp.Timeline))
	for _, ev := range resp.Timeline {
		t, ok := byName[ev.Task]
		if !ok {
			return 0, fmt.Errorf("timeline names unknown or repeated task %q", ev.Task)
		}
		delete(byName, ev.Task)
		s.Append(core.Assignment{Task: t, CommStart: ev.CommStart, CompStart: ev.CompStart})
	}
	if len(byName) != 0 {
		return 0, fmt.Errorf("timeline misses %d tasks", len(byName))
	}
	return checkSchedule(s, flowshop.OMIM(tr.Tasks), resp.Best.Makespan)
}

// checkSchedule validates a schedule, checks its makespan against the
// reported one and the OMIM lower bound, and returns makespan/OMIM.
func checkSchedule(s *core.Schedule, omim, reported float64) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	mk := s.Makespan()
	if d := mk - reported; d > 1e-9*mk || -d > 1e-9*mk {
		return 0, fmt.Errorf("makespan %g, reported %g", mk, reported)
	}
	r := mk / omim
	if !ratioOK(r) {
		return 0, fmt.Errorf("makespan %g beats the OMIM lower bound %g", mk, omim)
	}
	return r, nil
}

func (b *serveBench) outputs() (float64, uint64) { return mean(b.ratios), fnvWords(b.want...) }

func (b *serveBench) layers(m map[string]float64) error {
	for _, s := range []string{"decode", "cache", "encode", "solve", "queue"} {
		if v := b.stages[s]; len(v) > 0 {
			m["serve."+s+"_us"] = percentile(v, 0.5) * 1e3
		}
	}
	m["serve.unattributed_share"] = unattributedShare(b.stageSum, b.wallSum)
	if reqs := counter(b.traced.reg, "serve_requests_total") - b.reqs0; reqs > 0 {
		m["serve.hit_ratio"] = (counter(b.traced.reg, "serve_cache_hits_total") - b.hits0) / reqs
	}

	calls := max(1, (b.e.sz.probeCalls+len(b.bodies)-1)/len(b.bodies)) * len(b.bodies)
	var err error
	// One reader, reset per call, so the probe counts only the
	// decoder's allocations.
	body := bytes.NewReader(nil)
	m["trace.read_us"], m["trace.read_allocs"] = probe(calls, func(k int) {
		body.Reset(b.bodies[k%len(b.bodies)])
		if _, e := trace.Read(body); e != nil {
			err = e
		}
	})
	m["serve.digest_us"], m["serve.digest_allocs"] = probe(calls, func(k int) {
		i := k % len(b.bodies)
		if _, e := serve.Digest(b.traces[i], b.opts[i]); e != nil {
			err = e
		}
	})
	if err != nil || b.hit {
		return err
	}
	return b.solverLayers(m)
}

// solverLayers times the layers under a cache miss on the serve-miss
// traces: the facade solve, the batched runtime, schedule validation and
// the heuristic portfolio with its kernels.
func (b *serveBench) solverLayers(m map[string]float64) error {
	var direct, batched []*trace.Trace
	for i, tr := range b.traces {
		if b.opts[i].BatchSize > 0 {
			batched = append(batched, tr)
		} else {
			direct = append(direct, tr)
		}
	}
	direct = direct[:min(len(direct), b.e.sz.probeSolves)]
	batched = batched[:min(len(batched), b.e.sz.probeSolves)]

	var solveMs, validateUs []float64
	for _, tr := range direct {
		var res *transched.SolveResult
		var err error
		d := measure(func() {
			res, err = transched.Solve(context.Background(), tr, transched.SolveOptions{CapacityMultiplier: 1.5})
		})
		if err != nil {
			return err
		}
		solveMs = append(solveMs, d.Seconds()*1e3)
		d = measure(func() { err = res.Schedule.Validate() })
		if err != nil {
			return err
		}
		validateUs = append(validateUs, d.Seconds()*1e6)
	}
	m["transched.solve_ms"] = percentile(solveMs, 0.5)
	m["core.validate_us"] = percentile(validateUs, 0.5)

	var rtsMs []float64
	batches := 0
	for _, tr := range batched {
		var n int
		var err error
		d := measure(func() { n, err = runBatched(tr, b.e.sz.batchSize) })
		if err != nil {
			return err
		}
		batches += n
		rtsMs = append(rtsMs, d.Seconds()*1e3)
	}
	m["rts.solve_ms"] = percentile(rtsMs, 0.5)
	if len(batched) > 0 {
		m["rts.batches"] = float64(batches) / float64(len(batched))
	}

	ins := make([]*core.Instance, len(direct))
	for i, tr := range direct {
		ins[i] = tr.Instance(tr.MinCapacity() * 1.5)
	}
	return heuristicLayers(ins, m)
}

// runBatched schedules tr through the online runtime with automatic
// per-batch selection, as a batched /solve does, and returns the number
// of batches committed.
func runBatched(tr *trace.Trace, size int) (int, error) {
	rt, err := rts.New(rts.Config{Capacity: tr.MinCapacity() * 1.5, BatchSize: size, Selection: rts.Auto})
	if err != nil {
		return 0, err
	}
	for lo := 0; lo < len(tr.Tasks); lo += size {
		if err := rt.Submit(tr.Tasks[lo:min(lo+size, len(tr.Tasks))]...); err != nil {
			return 0, err
		}
	}
	if _, err := rt.Close(); err != nil {
		return 0, err
	}
	return len(rt.Stats().Batches), nil
}

// counter reads a counter from a registry snapshot (0 when absent).
func counter(reg *obs.Registry, name string) float64 {
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.h)
	r.code = 0
	r.body.Reset()
}
