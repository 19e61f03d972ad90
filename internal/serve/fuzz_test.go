package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"transched/internal/core"
	"transched/internal/flowshop"
	"transched/internal/obs"
)

// documentedStatuses is the /solve status set of SERVING.md.
var documentedStatuses = map[int]bool{
	http.StatusOK:                  true,
	http.StatusBadRequest:          true,
	http.StatusMethodNotAllowed:    true,
	http.StatusUnprocessableEntity: true,
	http.StatusTooManyRequests:     true,
	http.StatusServiceUnavailable:  true,
	http.StatusGatewayTimeout:      true,
}

// FuzzServeSolve drives /solve in process with arbitrary bodies,
// option values and content types. Whatever the input: the handler
// does not panic, answers with a status SERVING.md documents, answers
// every 200 with a timeline that is a valid schedule no shorter than
// the OMIM lower bound, and keeps the accounting identity hits +
// misses + shed + timeouts + errors == requests.
func FuzzServeSolve(f *testing.F) {
	small := "# transched trace v1\napp HF\ntask a 1 2 1\ntask b 2 1 2\ntask c 1 1 1\n"
	f.Add([]byte(small), "1.5", "", "", "", "text/plain")
	f.Add([]byte(small), "2", "2", "oolcmr", "500", "")
	f.Add([]byte(small), "0.5", "", "", "", "")
	f.Add([]byte(small), "1e308", "1", "", "1", "")
	f.Add([]byte(messyText), "", "", "nope", "x", "text/plain; charset=utf-8")
	f.Add([]byte(`{"trace": "# transched trace v1\ntask a 1 2 3\n", "capacity": 2, "heuristic": "OOLCMR"}`), "", "", "", "", "application/json")
	f.Add([]byte(`{"trace": "", "nope": 1}`), "", "", "", "", "application/json")
	f.Add([]byte("# transched trace v1\n"), "", "", "", "", "")
	f.Add([]byte("# transched trace v1\ntask a 0 0 0\n"), "-0", "-1", "", "-5", "")
	f.Add([]byte("\x00\xff"), "NaN", "99999999999999999999", "", "", "application/json;;")

	reg := obs.NewRegistry()
	h := New(Config{Registry: reg, MaxTimeout: 2 * time.Second}).Handler()
	counter := func(name string) int64 { return reg.Counter(name).Value() }
	f.Fuzz(func(t *testing.T, body []byte, capacity, batch, heuristic, timeoutMS, contentType string) {
		q := url.Values{}
		for k, v := range map[string]string{"capacity": capacity, "batch": batch, "heuristic": heuristic, "timeout_ms": timeoutMS} {
			if v != "" {
				q.Set(k, v)
			}
		}
		req := httptest.NewRequest(http.MethodPost, "/solve?"+q.Encode(), bytes.NewReader(body))
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		if !documentedStatuses[rec.Code] {
			t.Fatalf("status %d is not documented: %s", rec.Code, rec.Body.Bytes())
		}
		if rec.Code == http.StatusOK {
			checkSolved(t, req, body, rec.Body.Bytes())
		}
		requests := counter("serve_requests_total")
		accounted := counter("serve_cache_hits_total") + counter("serve_cache_misses_total") +
			counter("serve_shed_total") + counter("serve_timeouts_total") + counter("serve_errors_total")
		if accounted != requests {
			t.Fatalf("accounting identity broken: %d accounted, %d requests", accounted, requests)
		}
	})
}

// checkSolved checks a 200 body: its timeline places every task of the
// request's trace once, forms a valid schedule under the reported
// capacity, and its makespan is the reported one and at least OMIM.
func checkSolved(t *testing.T, req *http.Request, body, reply []byte) {
	t.Helper()
	req.Body = io.NopCloser(bytes.NewReader(body))
	p, err := parseRequest(req)
	if err != nil {
		t.Fatalf("answered 200 to a request the codec rejects: %v", err)
	}
	var resp Response
	if err := json.Unmarshal(reply, &resp); err != nil {
		t.Fatalf("decoding the reply: %v", err)
	}
	tasks := make(map[string]core.Task, len(p.trace.Tasks))
	for _, task := range p.trace.Tasks {
		tasks[task.Name] = task
	}
	s := core.NewScheduleCap(resp.Capacity, len(resp.Timeline))
	for _, ev := range resp.Timeline {
		task, ok := tasks[ev.Task]
		if !ok {
			t.Fatalf("timeline names unknown or repeated task %q", ev.Task)
		}
		delete(tasks, ev.Task)
		s.Append(core.Assignment{Task: task, CommStart: ev.CommStart, CompStart: ev.CompStart})
	}
	if len(tasks) != 0 {
		t.Fatalf("timeline misses %d tasks", len(tasks))
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("timeline is not a valid schedule: %v", err)
	}
	mk, omim := s.Makespan(), flowshop.OMIM(p.trace.Tasks)
	if mk != resp.Best.Makespan {
		t.Fatalf("timeline makespan %g, reported %g", mk, resp.Best.Makespan)
	}
	if mk < omim*(1-1e-9) {
		t.Fatalf("makespan %g beats the OMIM lower bound %g", mk, omim)
	}
}
