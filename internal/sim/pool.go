package sim

// Proc goroutine pooling. Every virtual thread is a goroutine, and a
// multi-run experiment over a 100k-thread workload would otherwise
// create (and let the GC tear down) 100k goroutines per run. The pool
// keeps finished workers parked on their own channel and hands them
// the next Proc body instead of spawning fresh — worker stacks that
// already grew to fit the VFS call depth get reused, so repeated runs
// stop paying stack growth and spawn cost.
//
// The peak number of live stacks is unchanged: a parked virtual
// thread blocks mid-body and inherently holds its stack. What the
// pool amortizes is creation across consecutive runs (benchmark
// iterations, an Experiment's Runs, sweep points).
//
// This is deliberately not a sync.Pool: a GC-cleared sync.Pool entry
// holding a goroutine blocked on a channel nobody references anymore
// would leak that goroutine forever. A plain bounded free list under
// a mutex keeps every pooled goroutine reachable; workers beyond the
// bound simply exit.

import "sync"

// maxPooledProcs bounds the free list. Idle pooled workers cost one
// dormant goroutine each (stacks shrink back at GC), so the bound
// caps idle memory while still covering common workload sizes whole.
const maxPooledProcs = 8192

// procJob is one body handed to a pooled worker.
type procJob struct {
	p    *Proc
	body func(*Proc)
}

// procWorker is one pooled goroutine, parked on its jobs channel.
type procWorker struct {
	jobs chan procJob
}

var procPool struct {
	mu   sync.Mutex
	free []*procWorker
}

// spawnProc runs body(p) on a pooled worker goroutine, creating one
// if the pool is empty. The worker performs the standard Proc
// lifecycle: wait for the first wake, run the body, signal park.
func spawnProc(p *Proc, body func(*Proc)) {
	procPool.mu.Lock()
	var w *procWorker
	if n := len(procPool.free); n > 0 {
		w = procPool.free[n-1]
		procPool.free[n-1] = nil
		procPool.free = procPool.free[:n-1]
	}
	procPool.mu.Unlock()
	if w == nil {
		w = &procWorker{jobs: make(chan procJob)}
		go w.loop()
	}
	w.jobs <- procJob{p: p, body: body}
}

// loop is the worker's life: run Proc bodies until the pool is full.
// The free-list push happens before the final park signal, so by the
// time the loop sees a body finish its worker is back in the pool. A
// Go on another loop that pops the worker in between only waits on
// the jobs send until the worker, its signal taken, reaches the
// receive.
func (w *procWorker) loop() {
	for job := range w.jobs {
		p := job.p
		p.now = <-p.wake
		job.body(p)
		pooled := putProcWorker(w)
		p.park <- struct{}{}
		if !pooled {
			return
		}
	}
}

// putProcWorker returns a finished worker to the pool; false means
// the pool is full and the worker must exit.
func putProcWorker(w *procWorker) bool {
	procPool.mu.Lock()
	defer procPool.mu.Unlock()
	if len(procPool.free) >= maxPooledProcs {
		return false
	}
	procPool.free = append(procPool.free, w)
	return true
}

// pooledProcs reports the free-list size (tests only).
func pooledProcs() int {
	procPool.mu.Lock()
	defer procPool.mu.Unlock()
	return len(procPool.free)
}
