package paretomon

import (
	"sync"
	"sync/atomic"
)

// defaultSubscriptionBuffer is the per-subscriber channel capacity when
// WithSubscriptionBuffer is not given.
const defaultSubscriptionBuffer = 64

// CancelFunc tears down a subscription: the subscriber is unregistered
// and its channel closed. Safe to call more than once.
type CancelFunc func()

// FrontierDelta is one observed change to a subscribed user's Pareto
// frontier — the v3 subscription payload, which makes removals
// observable (the v2 payload only reported entering objects).
type FrontierDelta struct {
	// Object names the triggering arrival for ingestion events (Add /
	// AddBatch); lifecycle events (RemoveObject, RetractPreference,
	// AddPreference) leave it empty.
	Object string
	// Entered lists, sorted, the object names that joined the user's
	// frontier: the arriving object, or objects promoted by a removal
	// or retraction mend.
	Entered []string
	// Left lists, sorted, the object names that left the frontier: a
	// removed object, or objects evicted by an AddPreference repair.
	// Ingestion events do not track evictions (nor window expiry);
	// consumers needing the full picture resynchronize via Frontier.
	Left []string
}

// subscriber is one push-delivery consumer for one user: a legacy
// Delivery channel (Subscribe) or a FrontierDelta channel
// (SubscribeDeltas), never both.
type subscriber struct {
	ch     chan Delivery
	dch    chan FrontierDelta
	closed bool // guarded by subscriptions.mu
}

func (s *subscriber) close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.ch != nil {
		close(s.ch)
	}
	if s.dch != nil {
		close(s.dch)
	}
}

// subscriptions is the Monitor's push-delivery fan-out. It has its own
// mutex, acquired after Monitor.mu when publishing, so subscription
// churn never blocks readers and never deadlocks against ingestion.
type subscriptions struct {
	mu      sync.Mutex
	byUser  map[int][]*subscriber
	buffer  int
	closed  bool
	dropped atomic.Uint64
}

func (s *subscriptions) init(buffer int) {
	s.byUser = make(map[int][]*subscriber)
	s.buffer = buffer
}

// add registers a subscriber for the user index.
func (s *subscriptions) add(user int, sub *subscriber) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrMonitorClosed
	}
	s.byUser[user] = append(s.byUser[user], sub)
	return nil
}

// remove unregisters and closes a subscriber. Idempotent.
func (s *subscriptions) remove(user int, sub *subscriber) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sub.closed {
		return
	}
	sub.close()
	list := s.byUser[user]
	for i, candidate := range list {
		if candidate == sub {
			s.byUser[user] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(s.byUser[user]) == 0 {
		delete(s.byUser, user)
	}
}

// send delivers v on ch without ever blocking ingestion: when the buffer
// is full, the oldest pending value is discarded to make room for the
// newest, and the loss is counted.
func send[T any](s *subscriptions, ch chan T, v T) {
	for {
		select {
		case ch <- v:
			return
		default:
			select {
			case <-ch:
				s.dropped.Add(1)
			default:
			}
		}
	}
}

// publish fans an ingestion delivery out to every subscriber of every
// target user: legacy subscribers receive the Delivery, delta
// subscribers an enter-only FrontierDelta for the arriving object.
func (s *subscriptions) publish(d Delivery, users []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.byUser) == 0 {
		return
	}
	var delta *FrontierDelta
	for _, u := range users {
		for _, sub := range s.byUser[u] {
			if sub.ch != nil {
				send(s, sub.ch, d)
				continue
			}
			if delta == nil {
				delta = &FrontierDelta{Object: d.Object, Entered: []string{d.Object}}
			}
			send(s, sub.dch, *delta)
		}
	}
}

// publishDelta fans a lifecycle frontier change out to one user's delta
// subscribers (legacy subscribers keep the v2 enter-only contract and
// see nothing).
func (s *subscriptions) publishDelta(user int, delta FrontierDelta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	for _, sub := range s.byUser[user] {
		if sub.dch != nil {
			send(s, sub.dch, delta)
		}
	}
}

// closeUser closes and unregisters every subscriber of one user
// (RemoveUser teardown): consumers ranging over the channel observe the
// close and stop; a later Subscribe for the name fails with
// ErrUnknownUser until the name is re-added.
func (s *subscriptions) closeUser(user int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sub := range s.byUser[user] {
		sub.close()
	}
	delete(s.byUser, user)
}

// closeAll closes every subscriber and rejects future Subscribe calls.
func (s *subscriptions) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, list := range s.byUser {
		for _, sub := range list {
			sub.close()
		}
	}
	s.byUser = map[int][]*subscriber{}
}

func (s *subscriptions) droppedCount() uint64 { return s.dropped.Load() }

// isClosed reports whether closeAll has run — the Monitor-level closed
// flag readiness probes check.
func (s *subscriptions) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Subscribe registers for push delivery: every future object that is
// Pareto-optimal for the named user at arrival time is sent on the
// returned channel as it is ingested, in ingestion order. Multiple
// subscriptions per user are independent; each gets every delivery.
//
// The channel is buffered (WithSubscriptionBuffer, default 64). A
// consumer that falls behind loses its oldest pending deliveries rather
// than stalling ingestion; Stats.DroppedDeliveries counts the losses —
// consumers needing a complete picture should resynchronize via Frontier.
//
// The returned CancelFunc unregisters the subscription and closes the
// channel; after Monitor.Close — or a RemoveUser of this user — the
// channel is closed too, so consumers should simply range over it.
//
// Deprecated: Subscribe carries the v2 enter-only payload and never
// reports objects leaving a frontier. New code should use
// SubscribeDeltas, whose FrontierDelta events also observe RemoveObject,
// RetractPreference and AddPreference changes.
//
// subscriptions are ephemeral and deliberately not persisted.
//
//paretomon:nowal — registers an in-process fan-out channel;
func (m *Monitor) Subscribe(user string) (<-chan Delivery, CancelFunc, error) {
	sub := &subscriber{ch: make(chan Delivery, m.subs.buffer)}
	cancel, err := m.register(user, sub)
	if err != nil {
		return nil, nil, err
	}
	return sub.ch, cancel, nil
}

// SubscribeDeltas registers for push delivery of the named user's
// frontier changes: one FrontierDelta per observed mutation — an
// arriving object entering the frontier, objects promoted by
// RemoveObject or RetractPreference mends, objects evicted by an
// AddPreference repair. Buffering, loss accounting and teardown follow
// the Subscribe contract; the channel closes on cancel, Monitor.Close,
// and RemoveUser of this user.
//
//paretomon:nowal — same ephemeral registration as Subscribe.
func (m *Monitor) SubscribeDeltas(user string) (<-chan FrontierDelta, CancelFunc, error) {
	sub := &subscriber{dch: make(chan FrontierDelta, m.subs.buffer)}
	cancel, err := m.register(user, sub)
	if err != nil {
		return nil, nil, err
	}
	return sub.dch, cancel, nil
}

// register attaches a subscriber to the named user. It holds the read
// lock across lookup AND registration: RemoveUser closes a user's
// subscribers under the write lock, so registering after an unlocked
// lookup could attach a channel to a user removed in between — a
// channel nothing would ever close.
func (m *Monitor) register(user string, sub *subscriber) (CancelFunc, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	idx, err := m.user(user)
	if err != nil {
		return nil, err
	}
	if err := m.subs.add(idx, sub); err != nil {
		return nil, err
	}
	return func() { m.subs.remove(idx, sub) }, nil
}

// Close shuts down delivery fan-out: every subscription channel is
// closed and further Subscribe calls return ErrMonitorClosed. Reads
// (Frontier, Stats, Clusters, TargetsOf) keep working. On a follower
// (OpenFollower) the changefeed tail goroutine is stopped first, so no
// replicated mutation applies after Close returns. On a monitor
// built with Open — which owns its file store — the store is closed
// too, after which mutations fail with an error wrapping
// ErrMonitorClosed; with a caller-provided WithStore the caller owns the
// store's lifecycle and ingestion keeps working. Close implements
// io.Closer for composition with server lifecycles.
//
// follower; there is no operation to log.
//
//paretomon:nowal — shutdown tears down subscriptions and the
func (m *Monitor) Close() error {
	if m.follower != nil {
		m.follower.cancel()
		<-m.follower.done
	}
	m.subs.closeAll()
	if m.ownsStore && m.store != nil {
		m.mu.Lock()
		if m.storeErr == nil {
			m.storeErr = ErrMonitorClosed
		}
		m.mu.Unlock()
		return m.store.Close()
	}
	return nil
}
