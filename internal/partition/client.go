package partition

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	paretomon "repro"
	"repro/internal/wire"
)

// client is one partition's HTTP surface: the existing internal/server
// JSON API, spoken with explicit contexts so the Router's retry budget
// bounds every attempt.
type client struct {
	base string
	hc   *http.Client
	// ring, when non-nil, is the router's current ring version; every
	// request with a non-zero value carries it in RingHeader, and a 409
	// echoing the header back decodes to *RingVersionError.
	ring *atomic.Uint64

	// smu guards st, the partition's open ingest stream (nil: none), and
	// retired, set once the ring no longer names the partition.
	smu     sync.Mutex
	st      *stream
	retired bool
}

func newClient(base string, hc *http.Client, ring *atomic.Uint64) *client {
	return &client{base: strings.TrimRight(base, "/"), hc: hc, ring: ring}
}

// stampRing attaches the router's ring version, when one is installed.
func (c *client) stampRing(req *http.Request) {
	if c.ring != nil {
		if v := c.ring.Load(); v != 0 {
			req.Header.Set(RingHeader, strconv.FormatUint(v, 10))
		}
	}
}

// send performs one request and returns its 200 response, body open. A
// non-nil body is sent as contentType, and a non-nil batch as the
// BatchHeader value. Non-200 responses decode the server's {"error":
// ...} envelope into a *StatusError (a ring-version 409 into a
// *RingVersionError); everything transport-level is returned as-is (and
// therefore retryable).
func (c *client) send(ctx context.Context, method, path, contentType string, body io.Reader, batch []string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if batch != nil {
		req.Header[BatchHeader] = batch
	}
	c.stampRing(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeStatusError(resp)
	}
	return resp, nil
}

// sendJSON is send with in (when non-nil) marshalled as the body.
func (c *client) sendJSON(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("partition: encoding %s %s: %w", method, path, err)
		}
		body = bytes.NewReader(data)
	}
	return c.send(ctx, method, path, "application/json", body, nil)
}

// decodeReply closes out a 200 response: out (when non-nil) receives
// the decoded JSON body, which is otherwise drained.
func decodeReply(resp *http.Response, out any, what string) error {
	defer resp.Body.Close()
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("partition: decoding %s response: %w", what, err)
	}
	return nil
}

// do performs one JSON request. in (when non-nil) is the request body;
// out (when non-nil) receives the decoded 200 response.
func (c *client) do(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.sendJSON(ctx, method, path, in)
	if err != nil {
		return err
	}
	return decodeReply(resp, out, method+" "+path)
}

// postBatch is do for the ingest path: POST /objects/batch with an
// already encoded body (internal/wire; the Router shares one encoding
// across partitions) under the batch id header value batch, and the
// reply decoded without reflection out of a pooled buffer. The reply
// must answer sent one delivery per object, in order: a partition that
// says 200 to anything else has not told us what it applied, which is a
// lost reply — a plain, retryable error whose retry re-sends the batch
// under its id — not a result.
func (c *client) postBatch(ctx context.Context, body []byte, batch []string, sent []paretomon.Object) ([]paretomon.Delivery, error) {
	resp, err := c.send(ctx, http.MethodPost, "/objects/batch", "application/json", bytes.NewReader(body), batch)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf := wire.GetBuffer()
	defer buf.Free()
	// Not capped: a reply is as long as the deliveries it carries.
	err = buf.ReadAll(resp.Body, math.MaxInt)
	var ds []paretomon.Delivery
	if err == nil {
		ds, err = wire.DecodeDeliveries(buf)
	}
	if err != nil {
		return nil, fmt.Errorf("partition: decoding POST /objects/batch response: %w", err)
	}
	if err := checkReply(ds, sent); err != nil {
		return nil, err
	}
	return ds, nil
}

// checkReply holds a batch reply to the objects sent: one delivery per
// object, in order. A partition that answers anything else has not told
// us what it applied — a lost reply, retryable.
func checkReply(ds []paretomon.Delivery, sent []paretomon.Object) error {
	if len(ds) != len(sent) {
		return fmt.Errorf("partition: a batch reply answered %d deliveries for %d objects", len(ds), len(sent))
	}
	for i, d := range ds {
		if d.Object != sent[i].Name {
			return fmt.Errorf("partition: a batch reply's delivery %d is for %q, sent %q", i, d.Object, sent[i].Name)
		}
	}
	return nil
}

// decodeStatusError turns a non-200 response into a *StatusError,
// preserving the server's error message when the body carries the
// JSON envelope. A 409 that echoes the partition's installed ring
// version in RingHeader is the typed ring conflict instead.
func decodeStatusError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	return statusError(resp.StatusCode, resp.Header.Get(RingHeader), data)
}

// statusError is decodeStatusError over a status, its RingHeader value
// and its body.
func statusError(status int, ring string, data []byte) error {
	var envelope struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(data))
	if json.Unmarshal(data, &envelope) == nil && envelope.Error != "" {
		msg = envelope.Error
	}
	if status == http.StatusConflict && ring != "" {
		if have, err := strconv.ParseUint(ring, 10, 64); err == nil {
			return &RingVersionError{Have: have, Msg: msg}
		}
	}
	return &StatusError{Status: status, Msg: msg}
}

// getStream performs a request whose 200 response body is a raw stream
// (replica frames) the caller consumes and closes. in, when non-nil,
// is a JSON request body.
func (c *client) getStream(ctx context.Context, method, path string, in any) (io.ReadCloser, error) {
	resp, err := c.sendJSON(ctx, method, path, in)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// postStream performs a request whose body is a raw stream (typically
// another partition's getStream response, piped through unbuffered);
// out, when non-nil, receives the decoded JSON 200 response.
func (c *client) postStream(ctx context.Context, path string, body io.Reader, out any) error {
	resp, err := c.send(ctx, http.MethodPost, path, "application/octet-stream", body, nil)
	if err != nil {
		return err
	}
	return decodeReply(resp, out, path)
}

// ready probes GET /readyz: nil means the partition is serving (store
// open, follower synced — see Monitor.Ready).
func (c *client) ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}
