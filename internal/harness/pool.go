package harness

import (
	"context"
	"sync"
)

// Pool is the scheduling machinery shared by the CLI sweep (Run) and the
// simulation service (internal/simsvc): a fixed set of worker goroutines
// dequeuing tasks from a FIFO queue. Workers always invoke the task with
// the pool's context; tasks observe cancellation themselves, so a
// cancelled pool drains its queue quickly (each task bails out early)
// while runs that already started are allowed to finish — exactly the
// graceful-shutdown behaviour the service needs, and the error behaviour
// the sweep needs (no new simulations once one has failed).
type Pool struct {
	// OnIdle, when set before the first Submit, is called by a worker that
	// finished a task and found nothing queued: the moment a slot frees up
	// for optional work. It runs after the slot is released, so a Busy read
	// made from inside it already excludes the finished task.
	OnIdle func()

	ctx    context.Context
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func(context.Context)
	closed bool
	active int
	wg     sync.WaitGroup
}

// NewPool starts a pool of `workers` goroutines (minimum 1) bound to ctx.
func NewPool(ctx context.Context, workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{ctx: ctx}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		fn := p.queue[0]
		p.queue = p.queue[1:]
		p.active++
		p.mu.Unlock()
		fn(p.ctx)
		p.mu.Lock()
		p.active--
		idle := len(p.queue) == 0
		p.mu.Unlock()
		if idle && p.OnIdle != nil {
			p.OnIdle()
		}
	}
}

// Submit enqueues fn. It reports false (dropping fn) once Close has been
// called.
func (p *Pool) Submit(fn func(context.Context)) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.queue = append(p.queue, fn)
	p.cond.Signal()
	return true
}

// Close stops intake; workers exit once the queue has drained.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Wait blocks until Close has been called and every queued task has run.
func (p *Pool) Wait() { p.wg.Wait() }

// QueueDepth returns the number of tasks waiting for a worker.
func (p *Pool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Active returns the number of tasks currently executing.
func (p *Pool) Active() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active
}

// Busy returns the number of tasks executing or waiting, read as one
// value (a task moving from the queue to a worker is never missed or
// counted twice).
func (p *Pool) Busy() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active + len(p.queue)
}

// RunPool runs fn(ctx, i) for every i in [0, n) on a pool of `workers`
// goroutines and waits for completion. The first error cancels the
// derived context, which stops remaining tasks from starting (they are
// dequeued but return immediately); in-flight tasks finish. Returns the
// first task error, or the parent context's error if it was cancelled.
func RunPool(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex
	var firstErr error
	p := NewPool(ctx, workers)
	for i := 0; i < n; i++ {
		i := i
		p.Submit(func(ctx context.Context) {
			if ctx.Err() != nil {
				return
			}
			if err := fn(ctx, i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				cancel()
			}
		})
	}
	p.Close()
	p.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr == nil && parent.Err() != nil {
		return parent.Err()
	}
	return firstErr
}
