package serve

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"transched/internal/obs"
)

// RouterConfig sizes a Router. Backends is required; everything else
// has a production default.
type RouterConfig struct {
	// Backends are the solver daemons' base URLs (e.g.
	// "http://10.0.0.7:8080"). Order does not matter: placement on the
	// hash ring depends only on each URL string.
	Backends []string
	// Replicas is the number of virtual nodes per backend on the ring
	// (default 64). More replicas smooth the key distribution at the
	// cost of a larger (still tiny) sorted array.
	Replicas int
	// Cooldown is how long a backend sits out after a transport failure
	// before the router tries it again (default 2s). Health is passive:
	// no probe traffic, just demotion on observed failure.
	Cooldown time.Duration
	// RetryAfter is the hint sent with 502 when every backend is
	// unreachable (default 1s).
	RetryAfter time.Duration
	// Registry receives the route_* metrics (default obs.Default()).
	Registry *obs.Registry
	// Tracer, when non-nil, enables request tracing: the router mints
	// the trace ID (or continues a client-supplied one), injects the
	// X-Transched-Trace header on forwards so backend spans join the
	// same trace, records router/decode stage spans, and serves
	// /debug/requests. Nil disables all of it.
	Tracer *obs.ReqTracer
	// Logger, when non-nil, gets one record per failover and per
	// no-backend failure. Nil disables logging.
	Logger *slog.Logger
	// Client performs the upstream requests (default http.Client with a
	// 2-minute timeout, matching the server's MaxTimeout default).
	Client *http.Client
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 2 * time.Minute}
	}
	return c
}

// Router is the scale-out front door: it computes the same content
// digest the cache keys on and forwards each /solve to the backend that
// owns that digest on a consistent-hash ring. Identical instances
// always land on the same daemon, so each backend's memory LRU and disk
// store stay hot for its shard of the keyspace instead of every backend
// caching everything. A backend that fails at the transport level is
// put in cooldown and its keys spill to the next distinct backend on
// the ring — the classic consistent-hashing property that only the
// failed shard's keys move.
type Router struct {
	cfg  RouterConfig
	ring *ring

	mu       sync.Mutex
	downTill map[string]time.Time

	requests  *obs.Counter
	failovers *obs.Counter
	noBackend *obs.Counter
	badReqs   *obs.Counter
	backends  *obs.Gauge
	latency   *obs.Histogram
}

// NewRouter builds a router over the configured backends.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("route: at least one backend required")
	}
	seen := make(map[string]bool, len(cfg.Backends))
	for _, b := range cfg.Backends {
		if b == "" {
			return nil, fmt.Errorf("route: empty backend URL")
		}
		if seen[b] {
			return nil, fmt.Errorf("route: duplicate backend %s", b)
		}
		seen[b] = true
	}
	reg := cfg.Registry
	rt := &Router{
		cfg:       cfg,
		ring:      newRing(cfg.Backends, cfg.Replicas),
		downTill:  make(map[string]time.Time),
		requests:  reg.Counter("route_requests_total"),
		failovers: reg.Counter("route_failovers_total"),
		noBackend: reg.Counter("route_no_backend_total"),
		badReqs:   reg.Counter("route_bad_requests_total"),
		backends:  reg.Gauge("route_backends"),
		latency:   reg.Histogram("route_request_seconds", obs.DefaultBuckets()),
	}
	rt.backends.Set(float64(len(cfg.Backends)))
	return rt, nil
}

// Handler returns the router surface: /solve forwards by digest,
// /healthz answers liveness, /metrics exposes the registry.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", rt.handleSolve)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", obs.MetricsHandler(rt.cfg.Registry))
	if rt.cfg.Tracer != nil {
		mux.Handle("/debug/requests", obs.RequestsHandler(rt.cfg.Tracer))
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "transchedd shard router\n\nPOST /solve\nGET  /healthz\nGET  /metrics\n")
	})
	return mux
}

func (rt *Router) writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"error": %s}`, strconv.Quote(msg))
}

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.requests.Inc()
	if r.Method != http.MethodPost {
		rt.badReqs.Inc()
		w.Header().Set("Allow", http.MethodPost)
		rt.writeError(w, http.StatusMethodNotAllowed, "POST a trace to /solve")
		return
	}

	// The router is where a request's trace identity is born (or, when
	// a client already carries one, continued): the same SpanContext is
	// injected on every forward attempt, so router and backend spans
	// share one trace ID across processes. tr is nil with tracing off.
	var parent obs.SpanContext
	if rt.cfg.Tracer != nil {
		parent, _ = obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
	}
	tr := rt.cfg.Tracer.Start("route", parent)
	defer tr.Finish()

	raw, err := readBody(r)
	if err != nil {
		rt.badReqs.Inc()
		tr.SetStatus(http.StatusBadRequest)
		rt.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Parse exactly as a backend would, so malformed requests die here
	// instead of consuming an upstream round trip, and the digest — the
	// routing key — is the one the backend's cache will key on.
	dt := tr.StartStage(obs.StageDecode)
	p, err := parseBody(r, raw)
	dt.End()
	if err != nil {
		rt.badReqs.Inc()
		tr.SetStatus(http.StatusBadRequest)
		rt.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	tr.SetDigest(p.digest)
	key, err := strconv.ParseUint(p.digest, 16, 64)
	if err != nil { // unreachable: Digest always prints 16 hex chars
		rt.badReqs.Inc()
		tr.SetStatus(http.StatusBadRequest)
		rt.writeError(w, http.StatusBadRequest, fmt.Sprintf("digest %q: %v", p.digest, err))
		return
	}

	// Ring order starting at the key's owner; healthy backends first,
	// cooling ones demoted to the tail rather than dropped, so a fully
	// cooling fleet still gets tried instead of blackholed.
	order := rt.ring.order(key)
	healthy := make([]string, 0, len(order))
	cooling := make([]string, 0, len(order))
	rt.mu.Lock()
	for _, b := range order {
		if time.Now().Before(rt.downTill[b]) {
			cooling = append(cooling, b)
		} else {
			healthy = append(healthy, b)
		}
	}
	rt.mu.Unlock()
	attempts := append(healthy, cooling...)

	for i, backend := range attempts {
		// Each attempt is its own router-stage span: a failover's stage
		// sum shows the dead hop's cost next to the one that answered.
		ft := tr.StartStage(obs.StageRouter)
		resp, err := rt.forward(r, backend, raw, tr)
		ft.End()
		if err != nil {
			rt.mu.Lock()
			rt.downTill[backend] = time.Now().Add(rt.cfg.Cooldown)
			rt.mu.Unlock()
			if i < len(attempts)-1 {
				rt.failovers.Inc()
			}
			if rt.cfg.Logger != nil {
				rt.cfg.Logger.Warn("route: backend failed", "backend", backend, "digest", p.digest, "err", err)
			}
			continue
		}
		rt.mu.Lock()
		delete(rt.downTill, backend)
		rt.mu.Unlock()
		tr.SetBackend(backend)
		tr.SetStatus(resp.StatusCode)
		rt.relay(w, resp, backend, tr, start)
		rt.latency.Observe(time.Since(start).Seconds())
		return
	}

	rt.noBackend.Inc()
	tr.SetStatus(http.StatusBadGateway)
	if rt.cfg.Logger != nil {
		rt.cfg.Logger.Error("route: no backend reachable", "digest", p.digest, "backends", len(order))
	}
	w.Header().Set("Retry-After", strconv.Itoa(int((rt.cfg.RetryAfter+time.Second-1)/time.Second)))
	rt.writeError(w, http.StatusBadGateway, "no backend reachable")
}

// forward replays the request body against one backend, preserving the
// query string (option form) and content type. With tracing on it
// injects the request's X-Transched-Trace so the backend's spans join
// the router's trace.
func (rt *Router) forward(orig *http.Request, backend string, raw []byte, tr *obs.ReqTrace) (*http.Response, error) {
	url := backend + "/solve"
	if q := orig.URL.RawQuery; q != "" {
		url += "?" + q
	}
	req, err := http.NewRequestWithContext(orig.Context(), http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	if ct := orig.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if tr != nil {
		req.Header.Set(obs.TraceHeader, tr.Context().HeaderValue())
	}
	return rt.cfg.Client.Do(req)
}

// relay copies an upstream response through verbatim — status, solver
// headers and body — plus the backend that produced it, so clients and
// smoke tests can observe placement. With tracing on, the router's own
// wall time is appended to the backend's X-Transched-Timing breakdown
// so the client sees one header covering both hops, and the trace ID
// is supplied even when the backend ran untraced.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, backend string, tr *obs.ReqTrace, start time.Time) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", "X-Transched-Cache", "X-Transched-Digest", obs.TraceHeader, timingHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Transched-Backend", backend)
	if tr != nil {
		entry := fmt.Sprintf("router;dur=%.3f", float64(time.Since(start).Microseconds())/1e3)
		if timing := w.Header().Get(timingHeader); timing != "" {
			entry = timing + ", " + entry
		}
		w.Header().Set(timingHeader, entry)
		if w.Header().Get(obs.TraceHeader) == "" {
			w.Header().Set(obs.TraceHeader, tr.Context().HeaderValue())
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// ring is a consistent-hash ring: Replicas virtual points per backend,
// sorted by hash. A key is owned by the first point clockwise from its
// hash; removing a backend moves only that backend's keys.
type ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash    uint64
	backend string
}

func newRing(backends []string, replicas int) *ring {
	points := make([]ringPoint, 0, len(backends)*replicas)
	for _, b := range backends {
		for i := 0; i < replicas; i++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s|%d", b, i)
			// FNV clusters on the sequential "|i" suffixes; the mix
			// spreads the vnodes evenly around the ring.
			points = append(points, ringPoint{hash: mix64(h.Sum64()), backend: b})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		// Hash ties (vanishingly rare) break on the URL so the ring is
		// identical no matter the configured backend order.
		return points[i].backend < points[j].backend
	})
	return &ring{points: points}
}

// owner returns the backend that owns key.
func (r *ring) owner(key uint64) string {
	return r.points[r.at(key)].backend
}

// order returns every distinct backend in ring order starting at key's
// owner — the failover sequence for that key.
func (r *ring) order(key uint64) []string {
	start := r.at(key)
	seen := make(map[string]bool)
	out := make([]string, 0, 4)
	for i := 0; i < len(r.points); i++ {
		b := r.points[(start+i)%len(r.points)].backend
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// mix64 is the splitmix64 finalizer: a bijective avalanche so nearby
// inputs land far apart on the ring.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// at locates the first point with hash >= key, wrapping past the top.
func (r *ring) at(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		return 0
	}
	return i
}
