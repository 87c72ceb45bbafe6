// Package worklist provides the chunked parallel worklist backing the
// Galois-style asynchronous engine. Work items (node IDs) are held in
// fixed-size chunks; workers pop chunks from a shared bag, process items,
// and push newly generated items into a worker-local chunk that is flushed
// to the bag when full. Processing continues until no items remain anywhere,
// so updates generated inside a round are consumed in the same round — the
// "asynchronous within a host" behaviour the paper credits for D-Galois
// needing fewer BSP rounds than level-synchronous systems.
package worklist

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ChunkSize is the number of items per chunk. Chunks amortize bag
// synchronization; 128 matches Galois' default order of magnitude.
const ChunkSize = 128

// Bag is an unordered pool of uint32 work items supporting concurrent
// chunked push/pop. The zero value is an empty bag ready for use.
type Bag struct {
	mu     sync.Mutex
	chunks [][]uint32
}

// PushChunk adds a chunk of items to the bag. The bag takes ownership.
func (b *Bag) PushChunk(chunk []uint32) {
	if len(chunk) == 0 {
		return
	}
	b.mu.Lock()
	b.chunks = append(b.chunks, chunk)
	b.mu.Unlock()
}

// PopChunk removes and returns a chunk, or nil if the bag is empty.
func (b *Bag) PopChunk() []uint32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.chunks)
	if n == 0 {
		return nil
	}
	c := b.chunks[n-1]
	b.chunks = b.chunks[:n-1]
	return c
}

// Executor runs operator applications over a Bag until quiescence. It
// keeps its bag, its drained chunks and its workers from one Run to the
// next, so once they have grown a Run on one worker allocates nothing. One
// Run at a time.
type Executor struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int

	bag     Bag
	pending atomic.Int64
	op      func(item uint32, push func(uint32))
	workers []*worker

	freeMu sync.Mutex
	free   [][]uint32 // drained chunks, empty, for reuse
}

// worker is one pool slot: its chunk of pushed items and the push that
// fills it, built once.
type worker struct {
	x     *Executor
	local []uint32
	push  func(uint32)
}

// Run processes every item in initial, plus every item pushed during
// processing, using op. op receives the item and a push function that
// schedules more work in the same invocation (push is only safe to call
// from inside op, on the worker that received it). Run blocks until the
// worklist is fully drained (local quiescence).
//
// Termination is tracked by a precise pending-item counter: an item counts
// as pending from the moment it is pushed until its operator application
// finishes, so pending==0 means no work exists anywhere.
func (x *Executor) Run(initial []uint32, op func(item uint32, push func(uint32))) {
	x.op = op
	x.pending.Store(int64(len(initial)))
	for lo := 0; lo < len(initial); lo += ChunkSize {
		x.bag.PushChunk(append(x.chunk(), initial[lo:min(lo+ChunkSize, len(initial))]...))
	}
	n := x.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	for len(x.workers) < n {
		w := &worker{x: x, local: x.chunk()}
		w.push = w.pushItem
		x.workers = append(x.workers, w)
	}
	if n == 1 {
		x.workers[0].run()
	} else {
		var wg sync.WaitGroup
		for _, w := range x.workers[:n] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.run()
			}()
		}
		wg.Wait()
	}
	x.op = nil
}

// chunk returns an empty chunk of capacity ChunkSize.
func (x *Executor) chunk() []uint32 {
	x.freeMu.Lock()
	defer x.freeMu.Unlock()
	if n := len(x.free); n > 0 {
		c := x.free[n-1]
		x.free = x.free[:n-1]
		return c
	}
	return make([]uint32, 0, ChunkSize)
}

// recycle takes back a chunk whose items have all been applied.
func (x *Executor) recycle(c []uint32) {
	x.freeMu.Lock()
	x.free = append(x.free, c[:0])
	x.freeMu.Unlock()
}

func (w *worker) pushItem(item uint32) {
	w.x.pending.Add(1)
	w.local = append(w.local, item)
	if len(w.local) >= ChunkSize {
		w.x.bag.PushChunk(w.local)
		w.local = w.x.chunk()
	}
}

// run pops and applies chunks until no work exists anywhere; it returns
// with its own chunk empty.
func (w *worker) run() {
	x := w.x
	for {
		chunk := x.bag.PopChunk()
		if chunk == nil {
			if x.pending.Load() == 0 {
				return
			}
			runtime.Gosched()
			continue
		}
		for _, item := range chunk {
			x.op(item, w.push)
			x.pending.Add(-1)
		}
		x.recycle(chunk)
		if len(w.local) > 0 {
			x.bag.PushChunk(w.local)
			w.local = x.chunk()
		}
	}
}
