package partition

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	paretomon "repro"
	"repro/internal/wire"
)

// The ingest stream: a Router sends its batches to a partition over one
// upgraded connection (GET /objects/stream, then internal/wire's frames)
// instead of one POST /objects/batch each. The stream changes only the
// transport and the encoding: a request frame carries the POST's batch
// (binary), batch id and ring version, a reply frame its status, ring
// version and deliveries (binary) or error body, and the partition
// answers both from one function. A partition that says it has no
// stream — an older build (404, 405, or 426 for a stream of JSON bodies),
// a ResponseWriter that cannot hand
// its connection over (501), a proxy that strips Upgrade (426) — gets
// POSTs, as before, until a ring install replaces its remote. Any other
// answer (a 503 from a closing or restarting partition, a tenant's 401 or
// 429) sends only the batch at hand as a POST, whose answer stands; the
// next batch asks for the stream again.

var (
	// errRefused is an upgrade answered as if the route were missing or
	// the connection could not switch.
	errRefused = errors.New("partition: the partition has no ingest stream")
	// errNotNow is an upgrade answered with any other status.
	errNotNow = errors.New("partition: the partition did not switch to the ingest stream")
)

// stream is one open ingest stream.
type stream struct {
	c  *client
	rw io.ReadWriteCloser
	br *bufio.Reader
	// in holds the last reply frame's payload and the reply decoder's
	// string cache, which the stream's replies share.
	in wire.Buffer
	// deadline closes rw once the running exchange is past its deadline
	// (see send).
	deadline *time.Timer
}

// openStream asks the partition to switch GET /objects/stream to the
// ingest stream, within ctx. A transport error is returned as-is
// (retryable); 404, 405, 426, 501 or a client that does not hand the
// connection over (an http.Client with a Timeout) is errRefused, any other
// answer but 101 errNotNow.
func (c *client) openStream(ctx context.Context) (*stream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/objects/stream", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", wire.StreamProtocol)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	rw, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || !ok {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
		why := errNotNow
		switch resp.StatusCode {
		case http.StatusSwitchingProtocols, http.StatusNotFound, http.StatusMethodNotAllowed,
			http.StatusUpgradeRequired, http.StatusNotImplemented:
			why = errRefused
		}
		return nil, fmt.Errorf("%w: GET /objects/stream answered %s", why, resp.Status)
	}
	st := &stream{c: c, rw: rw, br: bufio.NewReader(rw)}
	st.deadline = time.AfterFunc(math.MaxInt64, func() { rw.Close() }) // armed by send
	return st, nil
}

// ingest returns the partition's open ingest stream, opening one before
// deadline when none is. A retired client opens none: its batches go as
// POSTs.
func (c *client) ingest(deadline time.Time) (*stream, error) {
	c.smu.Lock()
	st, retired := c.st, c.retired
	c.smu.Unlock()
	if st != nil {
		return st, nil
	}
	if retired {
		return nil, fmt.Errorf("%w: %s left the ring", errRefused, c.base)
	}
	// A switched connection outlives the request that opened it.
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	st, err := c.openStream(ctx)
	if err != nil {
		return nil, err
	}
	c.smu.Lock()
	defer c.smu.Unlock()
	if c.retired {
		st.rw.Close()
		return nil, fmt.Errorf("%w: %s left the ring", errRefused, c.base)
	}
	c.st = st
	return st, nil
}

// closeStream closes the partition's ingest stream, if one is open;
// retire also keeps the client from opening another (the ring no longer
// names the partition, but a batch that snapshot the old ring may still
// be on its way to it).
func (c *client) closeStream(retire bool) {
	c.smu.Lock()
	st := c.st
	c.st = nil
	c.retired = c.retired || retire
	c.smu.Unlock()
	if st != nil {
		st.rw.Close()
	}
}

// drop closes st and forgets it, so the next batch opens a new stream.
func (st *stream) drop() {
	st.rw.Close()
	st.c.smu.Lock()
	if st.c.st == st {
		st.c.st = nil
	}
	st.c.smu.Unlock()
}

// failed drops st after a transport or frame error and says why; past
// the exchange's deadline the cause is that.
func (st *stream) failed(deadline time.Time, err error) error {
	st.drop()
	if !time.Now().Before(deadline) {
		err = context.DeadlineExceeded
	}
	return fmt.Errorf("partition: ingest stream to %s: %w", st.c.base, err)
}

// send writes one request frame and bounds the exchange it opens by
// deadline: past it, before receive has read the reply, the stream's
// timer closes the stream, which ends a write or read blocked on it.
func (st *stream) send(deadline time.Time, frame []byte) error {
	st.deadline.Reset(time.Until(deadline))
	if _, err := st.rw.Write(frame); err != nil {
		st.deadline.Stop()
		return st.failed(deadline, err)
	}
	return nil
}

// receive reads the reply to the frame send wrote. A 200 must answer
// sent one delivery per object, in order, as checkReply holds a POST's
// reply to; any other status is the error POST /objects/batch would have
// been answered with, and keeps the stream. Everything else drops it.
func (st *stream) receive(deadline time.Time, sent []paretomon.Object) ([]paretomon.Delivery, error) {
	p, err := wire.ReadFrame(st.br, wire.TagReply, st.in.B, wire.MaxReplyPayload)
	st.deadline.Stop()
	st.in.B = p
	if err != nil {
		return nil, st.failed(deadline, err)
	}
	status, ring, hasRing, body, err := wire.ParseReply(p)
	if err != nil {
		return nil, st.failed(deadline, err)
	}
	if status != http.StatusOK {
		hdr := ""
		if hasRing {
			hdr = strconv.FormatUint(ring, 10)
		}
		return nil, statusError(status, hdr, body)
	}
	ds, err := wire.DecodeReplyPayload(&st.in, body, sent)
	if err != nil {
		return nil, st.failed(deadline, fmt.Errorf("decoding a batch reply: %w", err))
	}
	return ds, nil
}

// addBatch is one attempt at a batch on p after its first: over p's
// ingest stream (opened when none is) within ctx's deadline, which every
// attempt has, or as a POST when p does not switch to the stream or frame
// is nil (a batch too long for a frame, or one p would not take a stream
// for).
func (p *remote) addBatch(ctx context.Context, frame, body []byte, batch []string, sent []paretomon.Object) ([]paretomon.Delivery, error) {
	if frame != nil && !p.refused.Load() {
		deadline, _ := ctx.Deadline()
		st, err := p.ingest(deadline)
		switch {
		case errors.Is(err, errRefused):
			p.refused.Store(true)
		case errors.Is(err, errNotNow):
		case err != nil:
			return nil, err
		default:
			if err := st.send(deadline, frame); err != nil {
				return nil, err
			}
			return st.receive(deadline, sent)
		}
	}
	return p.postBatch(ctx, body, batch, sent)
}
