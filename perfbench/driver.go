package main

import (
	"bytes"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"cop/internal/copnet"
	"cop/internal/memctrl"
	"cop/internal/shard"
)

// layer is one ladder rung's way of executing a frame of operations: the
// full copnet client path, a shard.Batched group window, direct
// memctrl.Controller calls, or no layer at all (the harness alone).
type layer interface {
	read(i int, addr uint64)
	write(i int, addr uint64, data []byte)
	// finish completes the frame; an error fails every op in it.
	finish() error
	// result is op i's read payload and error once finish returned nil.
	result(i int) ([]byte, error)
}

// clientLayer sends each frame as one copnet batch: one HTTP/2 request,
// one server-side group window.
type clientLayer struct {
	c    *copnet.Client
	b    *copnet.Batch
	rs   []copnet.Result
	sent uint64 // ops shipped, for the server-count cross-check
}

func newClientLayer(c *copnet.Client) *clientLayer {
	return &clientLayer{c: c, b: c.NewBatch()}
}

func (l *clientLayer) read(_ int, addr uint64)               { l.b.Read(addr) }
func (l *clientLayer) write(_ int, addr uint64, data []byte) { l.b.Write(addr, data) }
func (l *clientLayer) result(i int) ([]byte, error)          { return l.rs[i].Data, l.rs[i].Err }

func (l *clientLayer) finish() error {
	l.sent += uint64(l.b.Len())
	rs, err := l.b.Do()
	l.rs = rs
	return err
}

func (l *clientLayer) flush() error {
	l.sent++
	return l.c.Flush()
}

// shardLayer submits each frame as one group window on a batched
// front-end; a window error is charged to every op in it, as the server
// does.
type shardLayer struct {
	b     *shard.Batched
	g     *shard.Group
	got   []byte
	spans *spanLog
	start time.Time
}

func newShardLayer(b *shard.Batched, spans *spanLog) *shardLayer {
	return &shardLayer{b: b, got: make([]byte, windowOps*blockBytes), spans: spans}
}

func (l *shardLayer) open() {
	if l.g == nil {
		if l.spans != nil {
			l.start = time.Now()
		}
		l.g = l.b.NewGroup()
	}
}

func (l *shardLayer) read(i int, addr uint64) {
	l.open()
	l.g.Read(l.got[i*blockBytes:(i+1)*blockBytes], addr)
}

func (l *shardLayer) write(_ int, addr uint64, data []byte) {
	l.open()
	l.g.Write(addr, data)
}

func (l *shardLayer) finish() error {
	if l.g == nil {
		return nil
	}
	err := l.g.Wait()
	l.b.PutGroup(l.g)
	l.g = nil
	if l.spans != nil {
		l.spans.add(spanShardWindow, l.start, time.Since(l.start))
	}
	return err
}

func (l *shardLayer) result(i int) ([]byte, error) {
	return l.got[i*blockBytes : (i+1)*blockBytes], nil
}

// memctrlLayer calls memctrl controllers directly, one op at a time, on
// the worker's goroutine. It stripes blocks over the controllers exactly
// as shard does (the block-address bits above the offset pick the
// controller and are dropped from the address it sees), so with one
// controller per shard, each holding its share of the LLC, the rung models
// the tenant's silicon op for op. Controllers are not safe for concurrent
// use, and with fewer shards than workers two workers share one, so each
// frame holds mu, which every layer of a rung shares: the workers' frames
// reach the controllers one at a time.
type memctrlLayer struct {
	cs    []*memctrl.Controller
	logN  uint
	mu    *sync.Mutex
	held  bool
	got   []byte
	errs  [windowOps]error
	spans *spanLog
}

func newMemctrlLayer(cs []*memctrl.Controller, mu *sync.Mutex, spans *spanLog) *memctrlLayer {
	return &memctrlLayer{cs: cs, logN: uint(bits.TrailingZeros(uint(len(cs)))), mu: mu,
		got: make([]byte, windowOps*blockBytes), spans: spans}
}

func (l *memctrlLayer) route(addr uint64) (*memctrl.Controller, uint64) {
	if !l.held {
		l.mu.Lock()
		l.held = true
	}
	blk := addr / blockBytes
	return l.cs[blk&uint64(len(l.cs)-1)], (blk >> l.logN) * blockBytes
}

func (l *memctrlLayer) read(i int, addr uint64) {
	c, inner := l.route(addr)
	dst := l.got[i*blockBytes : (i+1)*blockBytes]
	if l.spans == nil {
		_, l.errs[i] = c.ReadInto(dst, inner)
		return
	}
	t0 := time.Now()
	_, l.errs[i] = c.ReadInto(dst, inner)
	l.spans.add(spanMemctrlRead, t0, time.Since(t0))
}

func (l *memctrlLayer) write(i int, addr uint64, data []byte) {
	c, inner := l.route(addr)
	if l.spans == nil {
		l.errs[i] = c.Write(inner, data)
		return
	}
	t0 := time.Now()
	l.errs[i] = c.Write(inner, data)
	l.spans.add(spanMemctrlWrite, t0, time.Since(t0))
}

func (l *memctrlLayer) finish() error {
	if l.held {
		l.held = false
		l.mu.Unlock()
	}
	return nil
}

func (l *memctrlLayer) result(i int) ([]byte, error) {
	err := l.errs[i]
	l.errs[i] = nil
	return l.got[i*blockBytes : (i+1)*blockBytes], err
}

// nullLayer answers every read from the shadow model itself: the
// harness's own cost (op generation, model updates, verification), which
// the ladder subtracts from the memctrl rung.
type nullLayer struct {
	m   *model
	got []byte
}

func (l *nullLayer) read(i int, addr uint64) {
	copy(l.got[i*blockBytes:(i+1)*blockBytes], l.m.data[addr:addr+blockBytes])
}
func (l *nullLayer) write(int, uint64, []byte) {}
func (l *nullLayer) finish() error             { return nil }
func (l *nullLayer) result(i int) ([]byte, error) {
	return l.got[i*blockBytes : (i+1)*blockBytes], nil
}

// worker is one closed-loop client: it builds a frame from its op stream,
// waits for the layer to complete it, and checks every get byte for byte
// against the shadow model before building the next.
type worker struct {
	id      int
	s       *opStream
	m       *model
	tainted []bool // shared; workers own disjoint keys
	ops     []op
	want    []byte
	check   [windowOps]bool
	spans   *spanLog

	done                          atomic.Uint64 // ops completed, read by the sampler
	attempted, failed, mismatches uint64
	frames                        uint64
	rtts                          []int64 // frame round trips while recording
	record                        bool
}

func newWorkers(w Workload, seed uint64, m *model, n int) []*worker {
	tainted := make([]bool, w.Blocks)
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = &worker{id: i, s: newOpStream(w, seed, i, n), m: m, tainted: tainted,
			want: make([]byte, windowOps*blockBytes)}
	}
	return ws
}

// frame runs one generated frame through x.
func (w *worker) frame(x layer) {
	var t0 time.Time
	if w.spans != nil {
		t0 = time.Now()
	}
	w.ops = w.s.frame(w.ops)
	for i, o := range w.ops {
		addr := keyAddr(o.key)
		if o.kind == opGet {
			w.check[i] = !w.tainted[o.key]
			copy(w.want[i*blockBytes:], w.m.block(o.key))
			x.read(i, addr)
		} else {
			x.write(i, addr, w.m.apply(o))
		}
	}
	w.complete(x, t0)
}

// preload writes the model's current content of every key the worker
// owns, one full frame at a time.
func (w *worker) preload(x layer) {
	for k := uint32(w.id); int(k) < len(w.tainted); {
		w.ops = w.ops[:0]
		for ; len(w.ops) < windowOps && int(k) < len(w.tainted); k += w.s.workers {
			x.write(len(w.ops), keyAddr(k), w.m.block(k))
			w.ops = append(w.ops, op{kind: opSet, key: k})
		}
		w.complete(x, time.Time{})
	}
}

// sweep reads back and verifies every key the worker owns.
func (w *worker) sweep(x layer) {
	for k := uint32(w.id); int(k) < len(w.tainted); {
		w.ops = w.ops[:0]
		for ; len(w.ops) < windowOps && int(k) < len(w.tainted); k += w.s.workers {
			i := len(w.ops)
			w.check[i] = !w.tainted[k]
			copy(w.want[i*blockBytes:], w.m.block(k))
			x.read(i, keyAddr(k))
			w.ops = append(w.ops, op{kind: opGet, key: k})
		}
		w.complete(x, time.Time{})
	}
}

// complete finishes the frame built in w.ops and folds its outcome into
// the worker's counters. t0 is the frame's build start when tracing.
func (w *worker) complete(x layer, t0 time.Time) {
	start := time.Now()
	if w.spans != nil && !t0.IsZero() {
		w.spans.add(spanFrameBuild, t0, start.Sub(t0))
	}
	err := x.finish()
	rtt := time.Since(start)
	if w.record {
		w.rtts = append(w.rtts, int64(rtt))
	}
	if w.spans != nil {
		if _, ok := x.(*clientLayer); ok {
			w.spans.add(spanClientDo, start, rtt)
		}
		start = time.Now()
	}
	n := uint64(len(w.ops))
	w.attempted += n
	w.frames++
	if err != nil {
		w.failed += n
		for _, o := range w.ops {
			w.tainted[o.key] = true
		}
	} else {
		for i, o := range w.ops {
			data, opErr := x.result(i)
			if opErr != nil {
				w.failed++
				if o.kind != opGet {
					w.tainted[o.key] = true
				}
				continue
			}
			switch {
			case o.kind != opGet:
				w.tainted[o.key] = false
			case w.check[i] && !bytes.Equal(data, w.want[i*blockBytes:(i+1)*blockBytes]):
				w.mismatches++
			}
		}
	}
	if w.spans != nil {
		w.spans.add(spanVerify, start, time.Since(start))
	}
	w.done.Add(n)
}

// parallel runs fn once per worker, each on its own goroutine, and waits
// for all of them.
func parallel(ws []*worker, fn func(w *worker)) {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// totals sums the workers' outcome counters.
func totals(ws []*worker) (attempted, failed, mismatches uint64) {
	for _, w := range ws {
		attempted += w.attempted
		failed += w.failed
		mismatches += w.mismatches
	}
	return
}

func doneOps(ws []*worker) uint64 {
	var n uint64
	for _, w := range ws {
		n += w.done.Load()
	}
	return n
}
