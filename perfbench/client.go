package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/dwarf"
)

// The load generator speaks HTTP/1.1 over one raw keep-alive TCP
// connection per client goroutine: preformatted request bytes out, one
// response read into a reused buffer. It is not net/http.Client, so the
// client side adds no per-request allocation churn to the process the
// server shares, and its own cost stays fixed across runs.

// dialect is the request body spelling a server accepts. dwarfd requires
// a "cube" field on every query body; the cluster gateway decodes with
// DisallowUnknownFields and rejects the same field.
type dialect int

const (
	dialectDwarfd dialect = iota
	dialectGateway
)

// request is one preformatted HTTP request. head is the request line plus
// Host; tail is the remaining headers, the blank line and the body. A
// traced run writes an X-Bench-Req header between the two.
type request struct {
	head, tail []byte
}

func getRequest(addr, path string) request {
	return request{
		head: []byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: %s\r\n", path, addr)),
		tail: []byte("\r\n"),
	}
}

func postRequest(addr, path string, body []byte) request {
	return request{
		head: []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: %s\r\n", path, addr)),
		tail: []byte(fmt.Sprintf("Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)),
	}
}

// conn is one keep-alive client connection.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	body []byte
	idb  []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 16<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

var (
	hdrContentLen = []byte("content-length:")
	hdrTransfer   = []byte("transfer-encoding:")
	hdrReqID      = []byte("X-Bench-Req: ")
)

// do sends one request and reads its response. reqID > 0 adds the trace
// header. The returned body aliases the connection's buffer and is valid
// until the next call.
func (c *conn) do(r request, reqID uint64) (int, []byte, error) {
	// A server that stops answering must not hang the run; the watchdog is
	// the last resort, this is the first.
	c.c.SetDeadline(time.Now().Add(30 * time.Second))
	c.bw.Write(r.head)
	if reqID > 0 {
		c.bw.Write(hdrReqID)
		c.idb = strconv.AppendUint(c.idb[:0], reqID, 10)
		c.bw.Write(c.idb)
		c.bw.WriteString("\r\n")
	}
	c.bw.Write(r.tail)
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	contentLen, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		switch {
		case hasFoldPrefix(line, hdrContentLen):
			contentLen, err = strconv.Atoi(string(bytes.TrimSpace(line[len(hdrContentLen):])))
			if err != nil {
				return 0, nil, fmt.Errorf("bad content-length %q", line)
			}
		case hasFoldPrefix(line, hdrTransfer):
			chunked = bytes.Contains(line, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	if chunked {
		err = c.readChunks()
	} else if contentLen >= 0 {
		err = c.readN(contentLen)
	} else {
		err = errors.New("response without content-length or chunking")
	}
	return status, c.body, err
}

func (c *conn) readN(n int) error {
	start := len(c.body)
	if cap(c.body)-start < n {
		nb := make([]byte, start, 2*(start+n))
		copy(nb, c.body)
		c.body = nb
	}
	c.body = c.body[:start+n]
	_, err := io.ReadFull(c.br, c.body[start:])
	return err
}

func (c *conn) readChunks() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 64)
		if err != nil {
			return fmt.Errorf("bad chunk size line %q", line)
		}
		if size == 0 {
			_, err = c.br.Discard(2)
			return err
		}
		if err := c.readN(int(size)); err != nil {
			return err
		}
		if _, err := c.br.Discard(2); err != nil {
			return err
		}
	}
}

func hasFoldPrefix(line, prefix []byte) bool {
	if len(line) < len(prefix) {
		return false
	}
	for i, p := range prefix {
		c := line[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != p {
			return false
		}
	}
	return true
}

// ---- request bodies, in both dialects ----

type wireSel struct {
	Keys []string `json:"keys,omitempty"`
}

// wireSels spells a full selector list as the wire form, dropping trailing
// ALL selectors (both servers pad them back).
func wireSels(sels []dwarf.Selector) []wireSel {
	n := len(sels)
	for n > 0 && len(sels[n-1].Keys) == 0 {
		n--
	}
	out := make([]wireSel, n)
	for i := 0; i < n; i++ {
		out[i].Keys = sels[i].Keys
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed benchmark-built structs are marshalled
	}
	return b
}

// httpParts spells a query for one server dialect.
func (q *query) httpParts(d dialect) (method, target string, body []byte) {
	cube := ""
	if d == dialectDwarfd {
		cube = liveCube
	}
	switch q.shape {
	case shapePoint:
		var b strings.Builder
		b.WriteString("/query/point?")
		if cube != "" {
			b.WriteString("cube=" + cube + "&")
		}
		for i, k := range q.keys {
			if i > 0 {
				b.WriteByte('&')
			}
			b.WriteString("key=" + url.QueryEscape(k))
		}
		return "GET", b.String(), nil
	case shapeRange:
		return "POST", "/query/range", mustJSON(struct {
			Cube      string    `json:"cube,omitempty"`
			Selectors []wireSel `json:"selectors"`
		}{cube, wireSels(q.sels)})
	case shapeGroupBy:
		return "POST", "/query/groupby", mustJSON(struct {
			Cube      string    `json:"cube,omitempty"`
			Dim       string    `json:"dim"`
			Selectors []wireSel `json:"selectors"`
		}{cube, dimName(q.dim), wireSels(q.sels)})
	default:
		return "POST", "/query/topk", mustJSON(struct {
			Cube      string    `json:"cube,omitempty"`
			Dim       string    `json:"dim"`
			K         int       `json:"k"`
			By        string    `json:"by"`
			Selectors []wireSel `json:"selectors"`
		}{cube, dimName(q.dim), q.spec.K, q.by, wireSels(q.sels)})
	}
}

// httpRequest preformats a query for one server dialect.
func (q *query) httpRequest(host string, d dialect) request {
	method, target, body := q.httpParts(d)
	if method == "GET" {
		return getRequest(host, target)
	}
	return postRequest(host, target, body)
}

func ingestBody(tuples []dwarf.Tuple) []byte {
	type tu struct {
		Dims    []string `json:"dims"`
		Measure float64  `json:"measure"`
	}
	body := struct {
		Tuples []tu `json:"tuples"`
	}{make([]tu, len(tuples))}
	for i, t := range tuples {
		body.Tuples[i] = tu{t.Dims, t.Measure}
	}
	return mustJSON(body)
}

// ---- response checks ----

// scanAgg reads the first "aggregate" object of a response by scanning for
// its four state fields; both servers' point and range envelopes carry
// exactly one. It avoids a full JSON decode on the hot shapes.
func scanAgg(body []byte) (dwarf.Aggregate, error) {
	i := bytes.Index(body, []byte(`"aggregate"`))
	if i < 0 {
		return dwarf.Aggregate{}, fmt.Errorf("no aggregate in %.200q", body)
	}
	b := body[i:]
	var a dwarf.Aggregate
	var err error
	if a.Sum, err = numField(b, `"sum"`); err != nil {
		return a, err
	}
	cnt, err := numField(b, `"count"`)
	if err != nil {
		return a, err
	}
	a.Count = int64(cnt)
	if a.Min, err = numField(b, `"min"`); err != nil {
		return a, err
	}
	a.Max, err = numField(b, `"max"`)
	return a, err
}

func numField(b []byte, key string) (float64, error) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("field %s missing", key)
	}
	b = b[i+len(key):]
	j := 0
	for j < len(b) && (b[j] == ' ' || b[j] == ':' || b[j] == '\n' || b[j] == '\t') {
		j++
	}
	k := j
	for k < len(b) && b[k] != ',' && b[k] != '}' && b[k] != '\n' && b[k] != ' ' {
		k++
	}
	return strconv.ParseFloat(string(b[j:k]), 64)
}

type wireAgg struct {
	Sum   float64 `json:"sum"`
	Count int64   `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

func (w wireAgg) agg() dwarf.Aggregate {
	return dwarf.Aggregate{Sum: w.Sum, Count: w.Count, Min: w.Min, Max: w.Max}
}

// groupedResp covers both servers' groupby and topk envelopes.
type groupedResp struct {
	Groups      map[string]wireAgg `json:"groups"`
	TotalGroups int                `json:"total_groups"`
	Entries     []struct {
		Key       string  `json:"key"`
		Aggregate wireAgg `json:"aggregate"`
	} `json:"entries"`
	Truncated bool `json:"truncated"`
}

// checkResponse compares one response body with the query's reference
// answer; it returns nil for shapes whose answer is not fixed.
func (q *query) checkResponse(body []byte, want *answer) error {
	switch q.shape {
	case shapePoint, shapeRange:
		got, err := scanAgg(body)
		if err != nil {
			return err
		}
		if !got.Equal(want.agg) {
			return fmt.Errorf("%s: got %v, want %v", q, got, want.agg)
		}
		return nil
	}
	var r groupedResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s: decoding: %v", q, err)
	}
	if r.Truncated {
		return fmt.Errorf("%s: response truncated", q)
	}
	if q.shape == shapeGroupBy {
		got := make(map[string]dwarf.Aggregate, len(r.Groups))
		for k, a := range r.Groups {
			got[k] = a.agg()
		}
		return sameGroups(q, got, want.groups)
	}
	got := make([]dwarf.GroupEntry, len(r.Entries))
	for i, e := range r.Entries {
		got[i] = dwarf.GroupEntry{Key: e.Key, Agg: e.Aggregate.agg()}
	}
	return sameEntries(q, got, want.top)
}

func sameGroups(q *query, got, want map[string]dwarf.Aggregate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d groups, want %d", q, len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || !g.Equal(w) {
			return fmt.Errorf("%s: group %q = %v, want %v", q, k, g, w)
		}
	}
	return nil
}

func sameEntries(q *query, got, want []dwarf.GroupEntry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d entries, want %d", q, len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || !got[i].Agg.Equal(want[i].Agg) {
			return fmt.Errorf("%s: entry %d = %s %v, want %s %v", q, i, got[i].Key, got[i].Agg, want[i].Key, want[i].Agg)
		}
	}
	return nil
}
