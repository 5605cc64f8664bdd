package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/dwarf"
	"repro/internal/serve"
)

// node is one dwarfd cluster member as seen by the coordinator: a base
// URL plus the per-attempt timeout and bounded retry/backoff policy.
type node struct {
	base       string
	partialURL string
	client     *http.Client
	timeout    time.Duration
	retries    int
	backoff    time.Duration
}

func newNode(baseURL string, client *http.Client, timeout time.Duration, retries int, backoff time.Duration) *node {
	base := strings.TrimRight(baseURL, "/")
	return &node{
		base: base, partialURL: base + "/query/partial", client: client,
		timeout: timeout, retries: retries, backoff: backoff,
	}
}

// ---- partial calls ----

// partialContentType is serve.PartialContentType as a header value,
// assigned without Header.Set's per-request allocation.
var partialContentType = []string{serve.PartialContentType}

// respPool recycles the buffers partial responses are read into; decoders
// copy what they keep, so a buffer is free again once its body decoded.
var respPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// respBufMax is the largest buffer returned to respPool.
const respBufMax = 1 << 20

// partial POSTs one encoded /query/partial request to n and decodes the
// 200 body with decode, under the bounded retry policy: queries are
// idempotent, so transport failures and 5xx responses are retried up to
// n.retries times with doubling backoff. body is shared by every node of
// the scatter and only read.
func partial[T any](n *node, body []byte, decode func([]byte) (uint64, T, error)) (T, error) {
	backoff := n.backoff
	for attempt := 0; ; attempt++ {
		v, err := partialOnce(n, body, decode)
		if err == nil || !retryable(err) || attempt >= n.retries {
			return v, err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

func partialOnce[T any](n *node, body []byte, decode func([]byte) (uint64, T, error)) (T, error) {
	var zero T
	ctx, cancel := context.WithTimeout(context.Background(), n.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.partialURL, bytes.NewReader(body))
	if err != nil {
		return zero, err
	}
	req.Header["Content-Type"] = partialContentType
	resp, err := n.roundTrip(req)
	if err != nil {
		return zero, err
	}
	defer closeBody(resp)
	if ct := resp.Header.Get("Content-Type"); ct != serve.PartialContentType {
		return zero, &protocolError{fmt.Errorf("200 response of Content-Type %q, want %q", ct, serve.PartialContentType)}
	}
	buf := respPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= respBufMax {
			respPool.Put(buf)
		}
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return zero, err
	}
	_, v, err := decode(buf.Bytes())
	if err != nil {
		return zero, &protocolError{err}
	}
	return v, nil
}

// protocolError is a 200 answer the coordinator cannot read: the wrong
// Content-Type or a malformed body. The node would answer the same way
// again, so it is not retried.
type protocolError struct{ err error }

func (e *protocolError) Error() string { return "bad partial response: " + e.err.Error() }
func (e *protocolError) Unwrap() error { return e.err }

type wireTuple struct {
	Dims    []string `json:"dims"`
	Measure float64  `json:"measure"`
}

// ingest appends one node's slice of a batch. NO retry: the store has no
// idempotent dedupe, so re-sending after an ambiguous failure (timeout
// after the node may have logged the batch) could double-count it. The
// caller's error names the node so the operator can reconcile explicitly.
func (n *node) ingest(tuples []dwarf.Tuple) error {
	specs := make([]wireTuple, len(tuples))
	for i, tu := range tuples {
		specs[i] = wireTuple{Dims: tu.Dims, Measure: tu.Measure}
	}
	var resp struct {
		Appended int `json:"appended"`
	}
	err := n.post("/ingest", map[string]any{"tuples": specs}, &resp)
	if err != nil {
		return err
	}
	if resp.Appended != len(tuples) {
		return fmt.Errorf("node acknowledged %d of %d tuples", resp.Appended, len(tuples))
	}
	return nil
}

// generation reads the node's visible-state generation from /store/stats.
func (n *node) generation() (uint64, error) {
	var resp struct {
		Stats struct {
			Generation uint64 `json:"generation"`
		} `json:"stats"`
	}
	if err := n.get("/store/stats", &resp); err != nil {
		return 0, err
	}
	return resp.Stats.Generation, nil
}

// ---- transport ----

// errorResp is the JSON error envelope of a non-200 node response.
type errorResp struct {
	Error string `json:"error"`
}

// statusError is a non-2xx node response; 5xx ones are retryable.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("HTTP %d: %s", e.status, e.msg)
	}
	return fmt.Sprintf("HTTP %d", e.status)
}

func retryable(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.status >= 500
	}
	var pe *protocolError
	if errors.As(err, &pe) {
		return false
	}
	// Everything else at this layer is a transport/timeout failure.
	return true
}

func (n *node) post(path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return n.do(req, out)
}

func (n *node) get(path string, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), n.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.base+path, nil)
	if err != nil {
		return err
	}
	return n.do(req, out)
}

// do sends a JSON request and decodes the JSON 200 body into out.
func (n *node) do(req *http.Request, out any) error {
	resp, err := n.roundTrip(req)
	if err != nil {
		return err
	}
	defer closeBody(resp)
	return json.NewDecoder(resp.Body).Decode(out)
}

// roundTrip sends req and returns the 200 response, which the caller
// closes with closeBody. Any other status is a statusError carrying the
// node's JSON error message.
func (n *node) roundTrip(req *http.Request) (*http.Response, error) {
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	defer closeBody(resp)
	var e errorResp
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(msg, &e) == nil && e.Error != "" {
		return nil, &statusError{status: resp.StatusCode, msg: e.Error}
	}
	return nil, &statusError{status: resp.StatusCode}
}

// closeBody drains a little of what is left of a body, so the connection
// can be reused, and closes it.
func closeBody(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
}
