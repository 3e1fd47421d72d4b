package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/storage"
)

// SeqHeader carries a snapshot's log position on GET /snapshot/latest
// and the primary's head position on GET /wal responses.
const SeqHeader = "X-Paretomon-Seq"

// ErrGone reports a /wal request for a position the primary has pruned
// away (HTTP 410): the follower is too far behind the retained log and
// must re-bootstrap from the newest snapshot.
var ErrGone = errors.New("replica: requested WAL position no longer retained by the primary")

// ErrPermanent marks a rebootstrap failure retrying cannot fix — the
// primary's snapshot does not decode, or was written under a different
// monitor configuration. The Tailer stops instead of looping
// reset-and-fail forever; the error surfaces through the follower's
// Replication().Err.
var ErrPermanent = errors.New("replica: permanent replication failure")

// ErrNoFeed reports a primary that cannot serve the changefeed at all
// (HTTP 501): it was started without a store, so there is no WAL to
// ship. Point the follower at a primary running with a data directory.
var ErrNoFeed = errors.New("replica: primary has no write-ahead log (started without a store)")

// Client speaks the changefeed protocol against one primary.
type Client struct {
	// Base is the primary's base URL, e.g. "http://primary:8080".
	Base string
	// HTTP is the underlying client; nil means a default with no overall
	// timeout (feed responses are unbounded streams).
	HTTP *http.Client
}

// NewClient builds a client for the primary at base (trailing slashes
// are tolerated).
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: &http.Client{}}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Snapshot fetches the primary's newest snapshot. ok is false when the
// primary has not snapshotted yet (the follower then builds from its
// community and tails the feed from seq 0).
func (c *Client) Snapshot(ctx context.Context) (seq uint64, body []byte, ok bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/snapshot/latest", nil)
	if err != nil {
		return 0, nil, false, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return 0, nil, false, nil
	case http.StatusNotImplemented:
		return 0, nil, false, ErrNoFeed
	default:
		return 0, nil, false, fmt.Errorf("replica: GET /snapshot/latest: %s", resp.Status)
	}
	seq, err = strconv.ParseUint(resp.Header.Get(SeqHeader), 10, 64)
	if err != nil {
		return 0, nil, false, fmt.Errorf("replica: snapshot response missing %s header: %w", SeqHeader, err)
	}
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, false, err
	}
	return seq, body, true, nil
}

// Head returns the primary's current last-appended log position, read
// from GET /storage/stats. Unlike the head watermarks riding the feed —
// which describe the log as of some already-shipped page — this is a
// fresh synchronous read, so "applied >= Head()" proves the follower
// has caught up to everything the primary had at the time of the call.
func (c *Client) Head(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/storage/stats", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("replica: GET /storage/stats: %s", resp.Status)
	}
	var body struct {
		LastAppendedSeq uint64 `json:"last_appended_seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, fmt.Errorf("replica: decoding /storage/stats: %w", err)
	}
	return body.LastAppendedSeq, nil
}

// Stream is one open /wal connection.
type Stream struct {
	// Head is the primary's last-appended seq when the stream opened
	// (from the response header); head messages update it.
	Head uint64

	body io.ReadCloser
	fr   *FeedReader
}

// Next returns the next feed message, blocking while the primary
// long-polls at the tail.
func (s *Stream) Next() (Msg, error) {
	msg, err := s.fr.Next()
	if err == nil && msg.IsHead {
		s.Head = msg.Head
	}
	return msg, err
}

// Close drops the connection.
func (s *Stream) Close() error { return s.body.Close() }

// Tail opens the changefeed after the given position. The returned
// stream delivers records with Seq > after in order and stays open at
// the tail until the context ends, the connection drops, or the primary
// shuts down. ErrGone means the position is pruned: re-bootstrap.
func (c *Client) Tail(ctx context.Context, after uint64) (*Stream, error) {
	u := c.Base + "/wal?after=" + url.QueryEscape(strconv.FormatUint(after, 10))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		resp.Body.Close()
		return nil, ErrGone
	case http.StatusNotImplemented:
		resp.Body.Close()
		return nil, ErrNoFeed
	default:
		resp.Body.Close()
		return nil, fmt.Errorf("replica: GET /wal: %s", resp.Status)
	}
	head, err := strconv.ParseUint(resp.Header.Get(SeqHeader), 10, 64)
	if err != nil {
		// The header is part of the protocol: the tailer compares it
		// against the applied position to detect a primary that lost
		// acknowledged records, so a missing head must not read as 0.
		resp.Body.Close()
		return nil, fmt.Errorf("replica: feed response missing %s header: %w", SeqHeader, err)
	}
	return &Stream{Head: head, body: resp.Body, fr: NewFeedReader(resp.Body)}, nil
}

// Hooks are the follower's callbacks into the monitor it feeds.
type Hooks struct {
	// Applied returns the last applied seq — the resume cursor.
	Applied func() uint64
	// Apply applies one record. A non-nil error is fatal for the
	// follower: the feed and the monitor state have diverged.
	Apply func(rec storage.Record) error
	// Head observes the primary's head watermark (for lag accounting).
	Head func(seq uint64)
	// Rebootstrap rebuilds the monitor from a newer snapshot after the
	// follower's position was pruned away (ErrGone).
	Rebootstrap func(ctx context.Context) error
	// Connected observes transitions of the feed connection state.
	Connected func(up bool)
}

// Reconnect delays: a failed connect, and an empty stream after another,
// waits minBackoff, doubling up to maxBackoff while they keep coming. The
// first failed connect after a stream waits only restartBackoff, doubling
// from there: a restarting primary is usually back within milliseconds.
const (
	restartBackoff = 10 * time.Millisecond
	minBackoff     = 100 * time.Millisecond
	maxBackoff     = 5 * time.Second
)

// Tailer is the resilient follower loop: connect, apply, and on any
// failure reconnect from the applied position with exponential backoff —
// records are applied exactly once because the resume cursor only
// advances on apply.
type Tailer struct {
	Client *Client
	Hooks  Hooks
}

// Run tails the feed until the context ends or an apply fails (the
// returned error; nil on context cancellation). Transport errors are
// retried forever: a follower outliving a primary restart is the point.
func (t *Tailer) Run(ctx context.Context) error {
	delay := minBackoff
	empty := 0 // streams in a row that ended without applying a record
	setConnected := func(up bool) {
		if t.Hooks.Connected != nil {
			t.Hooks.Connected(up)
		}
	}
	defer setConnected(false)
	for ctx.Err() == nil {
		stream, err := t.Client.Tail(ctx, t.Hooks.Applied())
		if err != nil {
			if errors.Is(err, ErrGone) && t.Hooks.Rebootstrap != nil {
				switch rbErr := t.Hooks.Rebootstrap(ctx); {
				case rbErr == nil:
					delay = minBackoff
					continue
				case errors.Is(rbErr, ErrPermanent):
					return rbErr
				case ctx.Err() != nil:
					return nil
				}
			}
			setConnected(false)
			if !sleep(ctx, delay) {
				return nil
			}
			delay = min(delay*2, maxBackoff)
			continue
		}
		// A primary head behind our applied position means the primary
		// lost records it had acknowledged and shipped — a power cut
		// past the fsync policy, or a wiped data directory behind the
		// same URL. Applying its new history on top of our old one
		// would silently diverge, so stop instead. (Detection is
		// best-effort: it closes once the primary re-appends past our
		// position; see docs/REPLICATION.md.)
		if applied := t.Hooks.Applied(); stream.Head < applied {
			stream.Close()
			return fmt.Errorf("%w: primary head %d is behind our applied position %d — the primary lost acknowledged log records; re-bootstrap this follower",
				ErrPermanent, stream.Head, applied)
		}
		// Publish the head watermark before flipping connected, so a
		// "connected and lag == 0" check never passes on a stale head.
		if t.Hooks.Head != nil {
			t.Hooks.Head(stream.Head)
		}
		setConnected(true)
		delay = restartBackoff
		applied, err := t.drain(stream)
		stream.Close()
		setConnected(false)
		if err != nil {
			return err // fatal apply failure
		}
		// Transport-level end of stream: reconnect from the applied seq,
		// at once after a stream that applied records or after the first
		// that ended without one (an idle feed through a primary restart
		// or Server.Close). Streams that keep ending empty back off, so a
		// primary that closes every stream never makes this a busy loop;
		// the shift stops growing once minBackoff<<6 is past maxBackoff.
		if applied {
			empty = 0
			continue
		}
		if empty++; empty == 1 {
			continue
		}
		if !sleep(ctx, min(minBackoff<<min(empty-2, 6), maxBackoff)) {
			return nil
		}
	}
	return nil
}

// drain applies stream messages until the stream ends or an apply fails
// (the error); applied reports whether it applied any record.
func (t *Tailer) drain(stream *Stream) (applied bool, err error) {
	for {
		msg, err := stream.Next()
		if err != nil {
			return applied, nil // disconnect, tear, or damaged frame: resume
		}
		if msg.IsHead {
			if t.Hooks.Head != nil {
				t.Hooks.Head(msg.Head)
			}
			continue
		}
		if err := t.Hooks.Apply(msg.Rec); err != nil {
			return applied, err
		}
		applied = true
		if t.Hooks.Head != nil {
			t.Hooks.Head(msg.Rec.Seq)
		}
	}
}

// sleep waits d or until ctx ends; it reports whether the full wait
// elapsed. Tests swap it to record the delays Run asks for.
var sleep = func(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}
