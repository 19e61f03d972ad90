package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"transched/internal/obs"
)

// raceEnabled is set by race_test.go in -race builds, whose
// instrumentation allocates on its own.
var raceEnabled bool

// reusableWriter is a ResponseWriter a test can reset between requests
// without allocating, so an allocation count sees only the handler.
type reusableWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *reusableWriter) Header() http.Header { return w.h }

func (w *reusableWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *reusableWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

func (w *reusableWriter) reset() {
	clear(w.h)
	w.code = 0
	w.body.Reset()
}

// maxHitAllocs bounds the allocations of one cache hit through the
// handler: the body buffer, the query map, the parsed trace, the digest
// string, the deadline, the response headers and the metric updates.
// The re-encoding digest and the bufio.Scanner reader it replaced cost
// about 800 on this request.
const maxHitAllocs = 64

// TestCacheHitAllocs pins the allocation cost of a cache hit, the path
// the result cache exists to make cheap.
func TestCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	data := []byte(genTraceText(t, 23, 150))
	h := New(Config{Registry: obs.NewRegistry()}).Handler()
	body := bytes.NewReader(data)
	req := httptest.NewRequest(http.MethodPost, "/solve?capacity=1.5", nil)
	req.Body = io.NopCloser(body)
	req.ContentLength = int64(len(data))
	w := &reusableWriter{h: make(http.Header)}
	serve := func() {
		body.Reset(data)
		w.reset()
		h.ServeHTTP(w, req)
	}
	serve() // the miss that fills the cache
	if w.code != http.StatusOK {
		t.Fatalf("priming solve: status %d: %s", w.code, w.body.Bytes())
	}
	allocs := testing.AllocsPerRun(50, serve)
	if w.code != http.StatusOK || w.h.Get("X-Transched-Cache") != "hit" {
		t.Fatalf("status %d, cache %q: not a hit", w.code, w.h.Get("X-Transched-Cache"))
	}
	if allocs > maxHitAllocs {
		t.Errorf("a cache hit allocates %.0f times, want <= %d", allocs, maxHitAllocs)
	}
	t.Logf("cache hit: %.0f allocations", allocs)
}

// TestCacheHitStageCoverage checks the stage-accounting identity on
// cache hits, where the decode stage no longer dwarfs the bookkeeping
// around it: the stages must still tile >= 95% of the request span. The
// median over many hits keeps a single descheduled request from failing
// the check.
func TestCacheHitStageCoverage(t *testing.T) {
	data := []byte(genTraceText(t, 23, 150))
	reg := obs.NewRegistry()
	tr := obs.NewReqTracer(obs.ReqTracerConfig{Registry: reg})
	h := New(Config{Registry: reg, Tracer: tr}).Handler()
	body := bytes.NewReader(data)
	req := httptest.NewRequest(http.MethodPost, "/solve?capacity=1.5", nil)
	req.Body = io.NopCloser(body)
	req.ContentLength = int64(len(data))
	w := &reusableWriter{h: make(http.Header)}
	var covs []float64
	for i := 0; i < 201; i++ {
		body.Reset(data)
		w.reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.code, w.body.Bytes())
		}
		if i == 0 {
			continue // the miss that fills the cache
		}
		if w.h.Get("X-Transched-Cache") != "hit" {
			t.Fatalf("request %d: not a hit", i)
		}
		recent := tr.Snapshot().Recent
		if len(recent) == 0 {
			t.Fatal("no completed request in the tracer")
		}
		covs = append(covs, recent[0].StageCoverage)
	}
	slices.Sort(covs)
	med := covs[len(covs)/2]
	if med < 0.95 {
		t.Errorf("median stage coverage of a cache hit %.3f, want >= 0.95", med)
	}
	t.Logf("cache hit stage coverage: min %.3f, median %.3f", covs[0], med)
}
