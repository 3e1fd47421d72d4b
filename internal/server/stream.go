package server

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	paretomon "repro"
	"repro/internal/wire"
)

// switchingProtocols is the whole 101 answer to GET /objects/stream.
const switchingProtocols = "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + wire.StreamProtocol + "\r\n\r\n"

// handleStream serves GET /objects/stream, the ingest stream (see
// internal/wire): a request carrying "Connection: Upgrade" and "Upgrade:
// paretomon-batch/2" is answered 101 on the hijacked connection, which
// then carries one batch per request frame, each answered by a reply
// frame with what POST /objects/batch would have answered (a 200's
// deliveries in the binary reply payload). Any other request, the old
// token "paretomon-batch" included, is answered 426. A
// ResponseWriter that cannot hand its connection over (a wrapper without
// Hijack or Unwrap, HTTP/2) is answered 501 as an ordinary response,
// and the router sends its batches as POSTs instead.
//
// A switched connection is outside http.Server's bookkeeping: the stream
// ends when the client closes it, on Close, on Shutdown of the
// http.Server that accepted it, and when r's context ends (a tenant's
// token rotation or deletion, see TenantServer). After Close the upgrade
// is refused (503).
func (f *facade) handleStream(w http.ResponseWriter, r *http.Request) {
	if !hasToken(r.Header["Connection"], "upgrade") || !hasToken(r.Header["Upgrade"], wire.StreamProtocol) {
		w.Header().Set("Connection", "Upgrade")
		w.Header().Set("Upgrade", wire.StreamProtocol)
		httpError(w, http.StatusUpgradeRequired, "GET /objects/stream needs Connection: Upgrade and Upgrade: %s", wire.StreamProtocol)
		return
	}
	select {
	case <-f.done:
		// Requests still route after Close; a new stream would be cut at
		// once, so its batches go as POSTs instead.
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	default:
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		httpError(w, http.StatusNotImplemented, "this connection cannot switch protocols: %v", err)
		return
	}
	defer conn.Close()
	// The server's read and write timeouts were set for one request.
	_ = conn.SetDeadline(time.Time{})
	ended := make(chan struct{})
	defer close(ended)
	shutdown := f.shutdownOf(r)
	go func() {
		select {
		case <-f.done:
		case <-shutdown:
		case <-r.Context().Done():
		case <-ended:
		}
		conn.Close()
	}()
	if _, err := brw.WriteString(switchingProtocols); err != nil || brw.Flush() != nil {
		return
	}
	admit, _ := r.Context().Value(admitKey{}).(func() error)
	f.streamBatches(conn, brw.Reader, admit)
}

// admitKey carries, in an ingest stream's request context, the check
// each of its batches passes before it is applied (a tenant's request
// rate, see TenantServer): the stream stands for one request per batch.
type admitKey struct{}

// streamBatches answers request frames until the stream ends or a frame
// cannot be trusted; either way the connection closes, and the router
// re-sends an unanswered batch under its id on a new one. A batch is
// decoded straight out of the frame, through the stream's own string
// cache; each reply goes out in one Write. A batch admit refuses is
// answered with the refusal and not applied.
func (f *facade) streamBatches(conn net.Conn, br *bufio.Reader, admit func() error) {
	var in, out []byte
	var dec wire.Buffer
	for {
		p, err := wire.ReadFrame(br, wire.TagBatch, in, wire.MaxRequestPayload)
		in = p
		if err != nil {
			return
		}
		id, ring, batch, err := wire.ParseBatchFrame(p)
		if err != nil {
			return
		}
		hdr := ""
		if ring != 0 {
			hdr = strconv.FormatUint(ring, 10)
		}
		if admit != nil {
			err = admit()
		}
		var ds []paretomon.Delivery
		if err == nil {
			ds, err = f.applyBatch(hdr, string(id), func() ([]paretomon.Object, error) {
				if len(batch) > maxBodyBytes {
					return nil, wire.ErrTooLarge
				}
				return wire.DecodeBatchPayload(&dec, batch)
			})
		}
		out = wire.BeginReply(out)
		status, have, v := http.StatusOK, "", uint64(0)
		if err != nil {
			var msg string
			status, have, msg = answer(err)
			v, _ = strconv.ParseUint(have, 10, 64)
			// httpError's body: json.Encoder writes Marshal's bytes and a newline.
			data, _ := json.Marshal(map[string]string{"error": msg})
			out = append(append(out, data...), '\n')
		} else {
			out = wire.AppendReplyPayload(out, ds)
		}
		if _, err := conn.Write(wire.EndReply(out, status, v, have != "")); err != nil {
			return
		}
	}
}

// hasToken reports whether a comma-separated header's values name token,
// case-insensitively.
func hasToken(values []string, token string) bool {
	for _, v := range values {
		for t := range strings.SplitSeq(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}

// shutdowns maps each http.Server that has served a stream to a channel
// its Shutdown closes (registered once per server).
type shutdowns struct {
	mu sync.Mutex
	m  map[*http.Server]chan struct{}
}

// shutdownOf returns a channel closed when the http.Server serving r
// shuts down; nil (never closed) when r carries none.
func (f *facade) shutdownOf(r *http.Request) <-chan struct{} {
	srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	if srv == nil {
		return nil
	}
	f.shut.mu.Lock()
	defer f.shut.mu.Unlock()
	ch, ok := f.shut.m[srv]
	if !ok {
		ch = make(chan struct{})
		if f.shut.m == nil {
			f.shut.m = make(map[*http.Server]chan struct{})
		}
		f.shut.m[srv] = ch
		srv.RegisterOnShutdown(func() { close(ch) })
	}
	return ch
}
