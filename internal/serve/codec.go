// Package serve is the scheduling service: an HTTP/JSON front end over
// the transched facade that turns the solver portfolio into a
// low-latency daemon (cmd/transchedd). Three mechanisms make the
// NP-complete instances affordable under traffic:
//
//   - a content-addressed result cache (codec.go, cache.go): requests
//     are parsed and their fields digested, identical instances hit a bounded
//     LRU, and concurrent identical requests compute once;
//   - admission control (admission.go): a fixed number of concurrent
//     solves, a bounded wait queue, per-request deadlines propagated
//     via context, and 429/503 + Retry-After on overload;
//   - graceful drain (server.go): stop accepting, finish in-flight,
//     hard cutoff.
//
// The determinism contract, asserted by the end-to-end tests: an
// identical request produces a byte-identical response body, whether it
// was computed or served from the cache (SERVING.md).
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"unsafe"

	"transched"
	"transched/internal/heuristics"
	"transched/internal/trace"
)

// Request is the solve envelope. Clients either POST it as
// application/json, or POST the raw trace text (any other content type)
// with the remaining fields as query parameters of the same names —
// the curl-friendly form the smoke scripts use.
type Request struct {
	// Trace is the instance in the plain-text v1 trace format.
	Trace string `json:"trace"`
	// Capacity is the memory capacity as a multiple of the trace's
	// minimum requirement mc; 0 means 1.5 (the cmd/transched default).
	Capacity float64 `json:"capacity,omitempty"`
	// Heuristic runs only the named strategy; empty runs the whole
	// portfolio and returns the best schedule.
	Heuristic string `json:"heuristic,omitempty"`
	// Batch, when positive, schedules through the online runtime in
	// submission batches of this size (automatic per-batch selection
	// when Heuristic is empty).
	Batch int `json:"batch,omitempty"`
	// TimeoutMS caps this request's solve time in milliseconds; 0 uses
	// the server default. Values above the server maximum are clamped.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Result is one strategy's outcome on the wire.
type Result struct {
	Heuristic string  `json:"heuristic"`
	Makespan  float64 `json:"makespan"`
	Ratio     float64 `json:"ratio"`
}

// Event is one task's placement on the wire.
type Event struct {
	Task      string  `json:"task"`
	CommStart float64 `json:"comm_start"`
	CommEnd   float64 `json:"comm_end"`
	CompStart float64 `json:"comp_start"`
	CompEnd   float64 `json:"comp_end"`
}

// Response is the solve reply: the instance profile, the committed
// strategy, the portfolio comparison, the Table 6 advice and the
// per-event timeline. Marshalling is deterministic (fixed field order,
// no maps), which the byte-identical caching contract relies on.
type Response struct {
	App         string   `json:"app"`
	Process     int      `json:"process"`
	Tasks       int      `json:"tasks"`
	MinCapacity float64  `json:"min_capacity"`
	Multiplier  float64  `json:"multiplier"`
	Capacity    float64  `json:"capacity"`
	OMIM        float64  `json:"omim"`
	Sequential  float64  `json:"sequential"`
	Best        Result   `json:"best"`
	Results     []Result `json:"results"`
	Advised     []string `json:"advised"`
	Batches     int      `json:"batches,omitempty"`
	Choices     []string `json:"choices,omitempty"`
	// ModelFilled counts the feature-only tasks whose durations were
	// filled in by the configured duration model (Config.Model) before
	// the solve; absent when no fill happened.
	ModelFilled int     `json:"model_filled,omitempty"`
	Timeline    []Event `json:"timeline"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds a request body; the 800-task paper traces are a
// few tens of KB, so 16MB leaves three orders of magnitude of headroom
// while keeping a hostile client from buffering the server out.
const maxBodyBytes = 16 << 20

// parsedRequest is a decoded, validated, canonicalised request.
type parsedRequest struct {
	req    Request
	trace  *trace.Trace
	digest string
	opts   transched.SolveOptions
	// modelFilled is set by handleSolve when Config.Model filled in
	// durations for feature-only tasks; it rides into the response.
	modelFilled int
}

// maxBodyPresize caps how much of a declared Content-Length readBody
// allocates before the body arrives. The 800-task paper traces are a few
// tens of KB, so real bodies fit in one buffer, while a client that
// declares a 16MB body and sends nothing holds at most this much.
const maxBodyPresize = 256 << 10

// readBody reads a request body, at most maxBodyBytes of it, into one
// buffer presized from Content-Length up to maxBodyPresize (plus a byte,
// so the read that reports io.EOF needs no growth). A larger body, or
// one without a declared length, grows the buffer as io.ReadAll would.
func readBody(r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	n := 512
	if r.ContentLength > 0 {
		n = int(min(r.ContentLength, maxBodyPresize)) + 1
	}
	b := make([]byte, 0, n)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		m, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, fmt.Errorf("reading request body: %w", err)
		}
	}
}

// decodeRequest decodes the envelope from either accepted form. A raw
// trace body becomes req.Trace without a copy: body is never written
// again, so the string shares its bytes.
func decodeRequest(r *http.Request, body []byte) (Request, error) {
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil && mt == "application/json" {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return Request{}, fmt.Errorf("decoding JSON envelope: %w", err)
		}
		return req, nil
	}
	// Raw trace body; options ride in the query string.
	req := Request{Trace: unsafe.String(unsafe.SliceData(body), len(body))}
	q := r.URL.Query()
	if v := q.Get("capacity"); v != "" {
		c, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return Request{}, fmt.Errorf("query capacity %q: %w", v, err)
		}
		req.Capacity = c
	}
	req.Heuristic = q.Get("heuristic")
	if v := q.Get("batch"); v != "" {
		b, err := strconv.Atoi(v)
		if err != nil {
			return Request{}, fmt.Errorf("query batch %q: %w", v, err)
		}
		req.Batch = b
	}
	if v := q.Get("timeout_ms"); v != "" {
		t, err := strconv.Atoi(v)
		if err != nil {
			return Request{}, fmt.Errorf("query timeout_ms %q: %w", v, err)
		}
		req.TimeoutMS = t
	}
	return req, nil
}

// parseRequest reads r's body and parses it with parseBody.
func parseRequest(r *http.Request) (*parsedRequest, error) {
	body, err := readBody(r)
	if err != nil {
		return nil, err
	}
	return parseBody(r, body)
}

// parseBody validates the envelope in body and computes the canonical
// cache key. Every malformed input dies here, at the codec, before a
// solver or a cache slot is touched. The parsed trace's names share
// body's bytes, which must not change afterwards.
func parseBody(r *http.Request, body []byte) (*parsedRequest, error) {
	req, err := decodeRequest(r, body)
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(req.Trace) == "" {
		return nil, fmt.Errorf("empty trace")
	}
	tr, err := trace.Parse(req.Trace)
	if err != nil {
		return nil, err
	}
	if req.Capacity == 0 {
		req.Capacity = 1.5
	}
	if req.Capacity <= 0 || math.IsNaN(req.Capacity) || math.IsInf(req.Capacity, 0) {
		return nil, fmt.Errorf("capacity multiplier %g must be positive and finite", req.Capacity)
	}
	if req.Batch < 0 {
		return nil, fmt.Errorf("batch %d must be non-negative", req.Batch)
	}
	req.Heuristic = strings.ToUpper(strings.TrimSpace(req.Heuristic))
	if req.Heuristic != "" {
		if _, err := heuristics.ByName(req.Heuristic, 1); err != nil {
			return nil, err
		}
	}
	p := &parsedRequest{
		req:   req,
		trace: tr,
		opts: transched.SolveOptions{
			CapacityMultiplier: req.Capacity,
			Heuristic:          req.Heuristic,
			BatchSize:          req.Batch,
		},
	}
	// Parse accepts only traces Validate passes, so the digest needs
	// no second validation pass.
	p.digest = digest(tr, p.opts)
	return p, nil
}

// digestTag versions the digest's field layout. Any change to what
// digest hashes, or how, must change the tag, and with it the disk
// store's index tag (store.indexTag), so that no digest of one layout
// can address a response cached under another.
const digestTag = "transched digest v2"

// Digest returns the content address of a solve: FNV-64a over the
// parsed trace fields and the normalised solve options (see digest).
// Whitespace, comments, directive order and float spelling of the
// client's encoding never reach the parsed fields, so two requests
// share a digest exactly when they describe the same instance and
// options. Digest fails on a trace the format cannot represent
// (trace.Validate), which no parsed trace is.
func Digest(tr *trace.Trace, opts transched.SolveOptions) (string, error) {
	if err := trace.Validate(tr); err != nil {
		return "", err
	}
	return digest(tr, opts), nil
}

// digest hashes, behind digestTag: the app, process and feature names;
// per task its length-prefixed name, the IEEE-754 bits of comm, comp
// and mem, and its feature row (length, then bits); then the options.
// Every string and list is length-prefixed, so no field can run into
// the next, and float bits tell apart exactly the values
// strconv.FormatFloat tells apart, so the digest equates the traces
// the canonical trace.Write encoding equates.
func digest(tr *trace.Trace, opts transched.SolveOptions) string {
	h := fnv64a(fnvOffset)
	h.str(digestTag)
	h.str(tr.App)
	h.u64(uint64(tr.Process))
	h.u64(uint64(len(tr.FeatureNames)))
	for _, n := range tr.FeatureNames {
		h.str(n)
	}
	h.u64(uint64(len(tr.Tasks)))
	for i, t := range tr.Tasks {
		h.str(t.Name)
		h.f64(t.Comm)
		h.f64(t.Comp)
		h.f64(t.Mem)
		row := tr.FeatureRow(i)
		h.u64(uint64(len(row)))
		for _, v := range row {
			h.f64(v)
		}
	}
	h.f64(opts.CapacityMultiplier)
	h.u64(uint64(opts.BatchSize))
	h.str(opts.Heuristic)
	return h.hex()
}

// fnv64a is FNV-64a (hash/fnv's New64a), fed fields directly so that
// hashing a trace allocates nothing.
type fnv64a uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// u64 hashes v's eight bytes, least significant first.
func (h *fnv64a) u64(v uint64) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ fnv64a(byte(v))) * fnvPrime
		v >>= 8
	}
}

func (h *fnv64a) f64(v float64) { h.u64(math.Float64bits(v)) }

// str hashes s's length, then its bytes.
func (h *fnv64a) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		*h = (*h ^ fnv64a(s[i])) * fnvPrime
	}
}

// hex renders the hash as 16 lowercase hex digits.
func (h fnv64a) hex() string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[h&0xf]
		h >>= 4
	}
	return string(b[:])
}

// buildResponse shapes a facade result for the wire.
func buildResponse(res *transched.SolveResult) *Response {
	out := &Response{
		App:         res.App,
		Process:     res.Process,
		Tasks:       res.Tasks,
		MinCapacity: res.MinCapacity,
		Multiplier:  res.Multiplier,
		Capacity:    res.Capacity,
		OMIM:        res.OMIM,
		Sequential:  res.Sequential,
		Best:        Result(res.Best),
		Results:     make([]Result, len(res.Results)),
		Advised:     res.Advised,
		Batches:     res.Batches,
		Choices:     res.Choices,
		Timeline:    make([]Event, 0, res.Tasks),
	}
	for i, r := range res.Results {
		out.Results[i] = Result(r)
	}
	for _, e := range res.Timeline() {
		out.Timeline = append(out.Timeline, Event(e))
	}
	return out
}
