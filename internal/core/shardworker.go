package core

import (
	"runtime"
	"sync"

	"repro/internal/object"
	"repro/internal/ring"
)

// shardJob is one unit of work handed to a shard worker: process objs in
// order, store each object's target users in out (same indexing), then
// signal wg. The producer owns objs and out until the worker's wg.Done;
// the ring's atomic publish orders the field writes before the worker's
// reads, and wg orders the worker's out writes before the producer reads
// them back.
type shardJob struct {
	objs []object.Object
	out  [][]int
	wg   *sync.WaitGroup
}

// shardWorker is one shard's persistent consumer goroutine. Jobs arrive
// over a private SPSC ring — the ingest goroutine is the only producer —
// so the steady-state hand-off is two atomic stores and one channel send
// that almost always finds the doorbell already rung. Compare the old
// harness: one goroutine spawn + WaitGroup churn + a mutex-guarded
// counter drain per object.
type shardWorker struct {
	eng      ShardEngine
	q        *ring.SPSC[shardJob]
	doorbell chan struct{} // cap 1: "the ring is non-empty", never blocks the producer
	quit     chan struct{}
	done     chan struct{}

	// Batch-result arena: per-object target lists are copied out of the
	// engine's scratch (which the next Process overwrites) into one flat
	// slice reused across batches, so a B-object batch costs O(1)
	// steady-state allocations instead of B.
	arena []int
	offs  []int
}

func newShardWorker(eng ShardEngine) *shardWorker {
	w := &shardWorker{
		eng:      eng,
		q:        ring.New[shardJob](2),
		doorbell: make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go w.run()
	return w
}

// submit enqueues a job and rings the doorbell. Calls are serialized by
// the harness (single producer). The ring cannot be full in practice —
// the harness waits for each call's jobs before issuing more — but spin
// politely rather than assume.
func (w *shardWorker) submit(job shardJob) {
	for !w.q.Push(job) {
		runtime.Gosched()
	}
	select {
	case w.doorbell <- struct{}{}:
	default:
	}
}

// stop shuts the worker down after it drains the ring.
func (w *shardWorker) stop() {
	close(w.quit)
	<-w.done
}

func (w *shardWorker) run() {
	defer close(w.done)
	for {
		w.drain()
		select {
		case <-w.doorbell:
		case <-w.quit:
			w.drain()
			return
		}
	}
}

func (w *shardWorker) drain() {
	for {
		job, ok := w.q.Pop()
		if !ok {
			return
		}
		w.exec(job)
	}
}

// exec runs one batch. Each result must be copied before the next
// Process overwrites the engine's scratch slice. Offsets, not subslices,
// during the fill — arena reallocation would invalidate earlier spans.
func (w *shardWorker) exec(job shardJob) {
	arena, offs := w.arena[:0], w.offs[:0]
	for _, o := range job.objs {
		offs = append(offs, len(arena))
		arena = append(arena, w.eng.Process(o)...)
	}
	offs = append(offs, len(arena))
	for j := range job.objs {
		job.out[j] = arena[offs[j]:offs[j+1]:offs[j+1]]
	}
	w.arena, w.offs = arena, offs
	job.wg.Done()
}
