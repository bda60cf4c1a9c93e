package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cop/internal/memctrl"
	"cop/internal/telemetry"
	"cop/internal/trace"
)

// This file is the batched datapath: a front-end over the same per-shard
// controllers as Controller, but with per-shard MPSC request rings and one
// worker goroutine per shard that dequeues *batches* — one lock
// acquisition amortized over up to BatchMax accesses, FR-FCFS-friendly
// reordering within a batch, and the word-parallel codec run back-to-back
// so parity masks and codec scratch stay hot. In-flight requests are
// pure-data Txn records; each shard carries an explicit Mode
// (Enabled / Paused / Draining) and Draining quiesces the shard to a
// fenced, flushed state — the handoff point live scheme migration needs.

// ErrClosed is returned for operations submitted after Close.
var ErrClosed = errors.New("shard: batched controller is closed")

// Mode is a batched shard's controller state.
type Mode int32

const (
	// ModeEnabled accepts and executes requests (the normal state).
	ModeEnabled Mode = iota
	// ModePaused accepts no new requests and executes nothing; requests
	// already in the ring wait until the shard is re-enabled.
	ModePaused
	// ModeDraining accepts no new requests, executes everything already in
	// the ring, then flushes the shard to a fenced state (memctrl.Drain).
	// The fence covers every request whose submit returned before the
	// drain began.
	ModeDraining
	// modeClosed is the terminal state set by Close.
	modeClosed
	// modeRetired is the terminal state a reshard leaves a shard in after
	// its stripes have been cut over to new shards: the worker exits and
	// blocked producers re-resolve the topology instead of waiting.
	modeRetired
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeEnabled:
		return "enabled"
	case ModePaused:
		return "paused"
	case ModeDraining:
		return "draining"
	case modeClosed:
		return "closed"
	case modeRetired:
		return "retired"
	}
	return fmt.Sprintf("mode(%d)", int32(m))
}

// txnOp selects what a Txn does when its batch executes.
type txnOp uint8

const (
	opNone     txnOp = iota
	opRead           // read t.n bytes at t.off within the block into t.dst
	opWrite          // write t.data[:t.n] at t.off (RMW when partial)
	opWriteRaw       // full-block write of t.dst (invalid-length passthrough)
	opFlush
	opSettle
	opInjectBit
	opInjectChip
	opInDRAM
	opStoredKind
)

// Txn is one in-flight request: pure data, copied by value through the
// ring, no closures. Result pointers (dst/info/ok/kind) point into the
// submitting caller's memory and are written by the worker before the
// transaction's group is signalled.
type Txn struct {
	op    txnOp
	off   uint8 // byte offset within the block (opRead/opWrite)
	n     uint8 // byte count within the block (opRead/opWrite)
	pat   byte  // chip pattern (opInjectChip)
	arg   int32 // bit index (opInjectBit) or chip (opInjectChip)
	addr  uint64
	inner uint64
	flow  uint64            // externally supplied trace flow id; 0 = allocate
	data  [BlockBytes]byte  // write payload (copied at submit)
	dst   []byte            // read destination / raw write payload
	info  *memctrl.ReadInfo // decoder observations (optional)
	ok    *bool             // injection / residency result (optional)
	kind  *memctrl.StoredKind
	g     *Group
	err   error // set by the worker before completion
}

// Group tracks the completion of a set of asynchronous transactions: an
// atomic pending count, the first error observed, and a single-waiter
// wakeup. Submitting a window of operations through one Group and calling
// Wait once is the batched front-end's memory-level-parallelism API — it
// is what lets a shard's worker see deep batches. At most one goroutine
// may call Wait at a time, and no operation may be added between the last
// submit and Wait's return.
type Group struct {
	b         *Batched
	submitted int64         // ops submitted since the last Wait; owner-only
	pending   atomic.Int64  // submitted-minus-completed, settled at Wait
	wake      chan struct{} // cap 1; the token the emptying completion sends
	mu        sync.Mutex
	err       error // first error
}

// completeN retires n transactions, waking the waiter when the group
// empties. Between windows pending rests at zero, so completions that
// outrun Wait's deferred submission count drive it negative, and a
// completion can only bring it to zero after Wait has added a count that
// left it positive — that is, while Wait is committed to block. So the
// zero crossing happens exactly once per blocked Wait, and its token is
// consumed before the group can be reused.
func (g *Group) completeN(n int64) {
	if g.pending.Add(-n) == 0 {
		g.wake <- struct{}{}
	}
}

func (g *Group) setErr(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
}

// Wait blocks until every submitted operation has completed, then returns
// the first error any of them produced (nil if none) and resets the group
// for reuse. The window's operations are accounted to pending here, in one
// atomic add, rather than one per submit — the submitter is a single
// goroutine (the Group contract), so the deferred count is exact.
func (g *Group) Wait() error {
	n := g.submitted
	g.submitted = 0
	if n != 0 && g.pending.Add(n) > 0 {
		// Operations are outstanding: the one that empties the window
		// sends the token. The waiter must not claim an early finish
		// itself, or a completer delayed between seeing zero and waking
		// could wake the group's next Wait before its window is done.
		<-g.wake
	}
	g.mu.Lock()
	err := g.err
	g.err = nil
	g.mu.Unlock()
	return err
}

// BatchedConfig parameterizes a batched controller.
type BatchedConfig struct {
	// Shard configures the underlying sharded controller (stripe count,
	// protection mode, total LLC capacity — see Config).
	Shard Config
	// RingSize is each shard's request-ring capacity (power of two).
	// Zero selects 256. Producers backpressure when a ring is full.
	RingSize int
	// BatchMax caps how many transactions a worker executes per lock
	// acquisition. Zero selects 64; values above RingSize are clamped.
	BatchMax int
}

// normalize validates cfg and applies defaults.
func (cfg BatchedConfig) normalize() (BatchedConfig, error) {
	if cfg.RingSize == 0 {
		cfg.RingSize = 256
	}
	if cfg.RingSize < 2 || cfg.RingSize&(cfg.RingSize-1) != 0 {
		return BatchedConfig{}, fmt.Errorf("shard: ring size %d is not a power of two >= 2", cfg.RingSize)
	}
	if cfg.BatchMax < 0 {
		return BatchedConfig{}, fmt.Errorf("shard: negative batch max %d", cfg.BatchMax)
	}
	if cfg.BatchMax == 0 {
		cfg.BatchMax = 64
	}
	if cfg.BatchMax > cfg.RingSize {
		cfg.BatchMax = cfg.RingSize
	}
	return cfg, nil
}

// routeEntry maps one stripe to its owning shard. logN rides per entry
// because mid-reshard different stripes are owned by shards built for
// different stripe counts, and the inner (shard-local) address depends on
// the stripe count the OWNER was built for.
type routeEntry struct {
	bs   *batchShard
	logN uint
}

// topology is the batched front-end's immutable routing state. Producers
// load it once per submission (one atomic pointer read), so a reshard can
// cut stripes over to new shards by publishing a fresh topology — the
// datapath never takes a reconfiguration lock. entries is indexed by
// blockIdx & mask and always covers every stripe; bshards lists each
// distinct live shard once (the iteration set for whole-memory sweeps);
// n is the logical stripe count (NumShards); scheme is the committed
// protection mode; inner is an equivalent sharded Controller over the
// same slots, rebuilt when a reshard completes (mid-transition it lags
// the route table — Sharded and Shard are diagnostics, not datapath).
type topology struct {
	mask    uint64
	entries []routeEntry
	bshards []*batchShard
	n       int
	scheme  memctrl.Mode
	inner   *Controller
}

// Batched is the batched, concurrency-safe front-end: the same striping,
// telemetry, and memory image as Controller (a single-threaded replay
// through either produces byte-identical DRAM images and snapshots), but
// requests flow through per-shard rings to per-shard workers instead of
// taking a mutex per access. Synchronous methods mirror Controller's API;
// NewGroup exposes the asynchronous window API that makes batching pay.
//
// Batched is also the substrate for online reconfiguration: Reshard grows
// or shrinks the stripe count under live traffic, and the hooks consumed
// by the migrate package (Reconfigure, WithShard, CommitScheme) let a
// live scheme migration re-encode resident blocks shard by shard. Both
// work by swapping the topology pointer; in-flight and future requests
// re-resolve their route instead of failing.
type Batched struct {
	topo     atomic.Pointer[topology]
	batchMax int
	ringSize int
	gpool    sync.Pool
	wg       sync.WaitGroup

	// reconfMu serializes reconfiguration (Reshard, Reconfigure,
	// SetTracer, Close). Never taken on the datapath.
	reconfMu sync.Mutex
	cfg      BatchedConfig // normalized current logical config (reconfMu)
	tracer   *trace.Tracer // attached flight recorder (reconfMu)
	closed   bool          // set by Close (reconfMu)

	// Retired-shard accumulators: when a reshard retires a shard its final
	// counters fold in here, keeping Ops/Stats/Snapshot monotonic across
	// topology swaps.
	retiredOps   atomic.Uint64
	retiredMu    sync.Mutex
	retiredTel   telemetry.Snapshot
	haveRetired  bool
	retiredStats memctrl.Stats
	retiredBatch telemetry.BatchStats

	// migTel counts reconfiguration progress (scheme migrations, reshards,
	// chunks, blocks); surfaced as the Migration snapshot section.
	migTel telemetry.MigrationCounters
}

// batchShard is one shard's batching state around its shardSlot.
type batchShard struct {
	ring     *txnRing
	slot     *shardSlot
	idx      int          // stripe index within the topology the shard was built for
	logN     uint         // log2 of that topology's stripe count
	inflight atomic.Int64 // producers between route resolution and publish
	mode     atomic.Int32 // Mode; fast-path mirror of the mu-guarded state
	sleeping atomic.Bool  // worker parked (or parking)
	wake     chan struct{}
	mu       sync.Mutex // guards mode transitions, fenced, drainErr
	cond     *sync.Cond // broadcast on mode change and on fence completion
	fenced   bool
	drainErr error
	tel      telemetry.BatchCounters
}

// newBatchShard builds one shard's batching state (worker not started).
func newBatchShard(ringSize int, slot *shardSlot, idx int, logN uint) *batchShard {
	bs := &batchShard{
		ring: newTxnRing(ringSize),
		slot: slot,
		idx:  idx,
		logN: logN,
		wake: make(chan struct{}, 1),
	}
	bs.cond = sync.NewCond(&bs.mu)
	return bs
}

// NewBatched builds a batched controller, panicking on an invalid config
// (NewBatchedChecked reports the error instead). The workers it starts are
// released by Close.
func NewBatched(cfg BatchedConfig) *Batched {
	b, err := NewBatchedChecked(cfg)
	if err != nil {
		panic(err.Error())
	}
	return b
}

// NewBatchedChecked builds a batched controller, returning an error for an
// invalid config instead of panicking.
func NewBatchedChecked(cfg BatchedConfig) (*Batched, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	// Normalize the shard config here as well (NewChecked re-normalizes,
	// idempotently) so the stored config carries the resolved stripe count
	// and LLC geometry a later Reshard scales from.
	scfg, err := cfg.Shard.Normalize()
	if err != nil {
		return nil, err
	}
	cfg.Shard = scfg
	inner, err := NewChecked(scfg)
	if err != nil {
		return nil, err
	}
	n := len(inner.shards)
	b := &Batched{
		batchMax: cfg.BatchMax,
		ringSize: cfg.RingSize,
		cfg:      cfg,
		tracer:   scfg.Mem.Tracer,
	}
	b.gpool.New = func() any { return &Group{wake: make(chan struct{}, 1)} }
	bshards := make([]*batchShard, n)
	entries := make([]routeEntry, n)
	for i := range bshards {
		bshards[i] = newBatchShard(cfg.RingSize, inner.shards[i], i, inner.logN)
		entries[i] = routeEntry{bshards[i], inner.logN}
	}
	b.topo.Store(&topology{
		mask:    inner.mask,
		entries: entries,
		bshards: bshards,
		n:       n,
		scheme:  scfg.Mem.Mode,
		inner:   inner,
	})
	b.wg.Add(n)
	for _, bs := range bshards {
		go b.run(bs)
	}
	return b, nil
}

// --- submission ---------------------------------------------------------

// reserve resolves addr through the current topology, gates on the owning
// shard's mode, accounts the submission to g, and claims a ring cell,
// blocking while the shard is not Enabled. The caller fills c.txn in place
// (every field the operation's execution reads — see txnRing.reserve) and
// hands it off with bs.publish, which also drops the inflight hold taken
// here. Returns ok=false after Close, with ErrClosed already recorded on g.
//
// The inflight counter is the reshard quiesce handshake: it is raised
// BEFORE the mode check, so a producer that observed ModeEnabled is
// visible to a resharder that flipped the mode afterwards and now waits
// for inflight to reach zero (the mode store and the inflight load are
// both sequentially consistent atomics). A producer that observes any
// other mode backs out its hold and waits; retirement sends it back here
// to re-resolve the (by then updated) topology.
func (b *Batched) reserve(g *Group, addr uint64) (bs *batchShard, inner uint64, c *txnCell, pos uint64, ok bool) {
	blockIdx := addr / BlockBytes
	for {
		topo := b.topo.Load()
		e := topo.entries[blockIdx&topo.mask]
		bs = e.bs
		bs.inflight.Add(1)
		if Mode(bs.mode.Load()) == ModeEnabled {
			g.submitted++
			inner = (blockIdx>>e.logN)*BlockBytes | (addr % BlockBytes)
			c, pos = bs.ring.reserve()
			return bs, inner, c, pos, true
		}
		bs.inflight.Add(-1)
		switch bs.await() {
		case awaitReady, awaitReroute:
			// Re-resolve: the shard was re-enabled, or it retired and the
			// published topology now routes this stripe elsewhere.
		case awaitClosed:
			g.setErr(ErrClosed)
			return nil, 0, nil, 0, false
		}
	}
}

// publish makes a filled cell visible to the worker, releases the
// submission's inflight hold, and wakes the worker.
func (bs *batchShard) publish(c *txnCell, pos uint64) {
	bs.ring.publish(c, pos)
	bs.inflight.Add(-1)
	bs.wakeWorker()
}

// submit routes and copies a fully built prototype transaction (addr set)
// into its shard's ring and binds it to g — the generic path used by the
// synchronous API, where one struct copy per op is irrelevant next to the
// Wait round-trip. (The asynchronous Group methods fill their cells in
// place instead.)
func (b *Batched) submit(g *Group, t *Txn) {
	bs, inner, c, pos, ok := b.reserve(g, t.addr)
	if !ok {
		return
	}
	t.inner = inner
	t.g = g
	c.txn = *t
	bs.publish(c, pos)
}

// awaitVerdict is await's outcome.
type awaitVerdict int

const (
	awaitReady   awaitVerdict = iota // shard re-enabled; claim from it
	awaitReroute                     // shard retired; re-resolve topology
	awaitClosed                      // front-end closed; fail the op
)

// await blocks while the shard is Paused or Draining.
func (bs *batchShard) await() awaitVerdict {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	for {
		switch Mode(bs.mode.Load()) {
		case ModeEnabled:
			return awaitReady
		case modeRetired:
			return awaitReroute
		case modeClosed:
			return awaitClosed
		}
		bs.cond.Wait()
	}
}

// wakeWorker hands the parked worker a wake token. The CAS commits exactly
// one token per park episode, so the cap-1 send never blocks; the leading
// load keeps the running-worker fast path free of atomic read-modify-writes.
func (bs *batchShard) wakeWorker() {
	if bs.sleeping.Load() && bs.sleeping.CompareAndSwap(true, false) {
		bs.wake <- struct{}{}
	}
}

// park blocks the worker until a producer or mode change wakes it. ready
// is re-evaluated after the sleeping flag is visible, so a wakeup that
// raced the park is never lost; spurious wakeups are possible and the
// worker loop tolerates them.
func (bs *batchShard) park(ready func() bool) {
	bs.sleeping.Store(true)
	if ready() && bs.sleeping.CompareAndSwap(true, false) {
		return
	}
	<-bs.wake
}

// --- worker -------------------------------------------------------------

// run is one shard's worker loop: dequeue a batch, execute it under a
// single lock acquisition, signal completions; park when idle.
func (b *Batched) run(bs *batchShard) {
	defer b.wg.Done()
	batch := make([]*Txn, 0, b.batchMax)
	gcs := make([]groupCount, 0, b.batchMax)
	rs := newRowSorter(b.batchMax)
	var scratch [BlockBytes]byte
	for {
		m := Mode(bs.mode.Load())
		if m == ModePaused {
			bs.park(func() bool { return Mode(bs.mode.Load()) != ModePaused })
			continue
		}
		batch = bs.ring.peek(batch[:0], b.batchMax)
		if len(batch) > 0 {
			bs.exec(batch, gcs, rs, &scratch)
			bs.ring.release(len(batch))
			continue
		}
		switch m {
		case modeClosed:
			return
		case modeRetired:
			// Retirement follows a quiesce (inflight drained to zero under
			// a non-Enabled mode), so nothing can be published after this
			// point: an empty ring is empty forever.
			return
		case ModeDraining:
			bs.completeDrain()
		}
		bs.park(func() bool {
			return !bs.ring.empty() || Mode(bs.mode.Load()) != m
		})
	}
}

// groupCount accumulates one batch's completions per distinct group, so
// a group submitting many operations into one batch is retired with a
// single atomic add instead of one per transaction.
type groupCount struct {
	g *Group
	n int64
}

// exec runs one peeked batch in place: reorder for row locality, take the
// shard lock once, execute every transaction, then signal completions
// outside the lock. The caller releases the ring cells afterwards, so no
// Txn is ever copied out of the ring.
func (bs *batchShard) exec(batch []*Txn, gcs []groupCount, rs *rowSorter, scratch *[BlockBytes]byte) {
	depth := uint64(len(batch))
	bs.tel.Enqueued.Add(depth)
	bs.tel.Batches.Inc()
	bs.tel.Depth.Observe(depth)
	bs.tel.MaxDepth.Observe(depth)
	rs.reorder(batch)
	s := bs.slot
	s.mu.Lock()
	if s.th.Enabled() {
		s.th.ResetFlow()
		s.th.Record(trace.KindBatchBegin, 0, uint32(depth), 0, 0, 0, 0)
	}
	for _, t := range batch {
		bs.execOne(t, scratch)
	}
	if s.th.Enabled() {
		s.th.ResetFlow()
		s.th.Record(trace.KindBatchEnd, 0, uint32(depth), 0, 0, 0, 0)
	}
	s.mu.Unlock()
	// Coalesce completions per group: the distinct-group count is bounded
	// by the number of concurrent submitters, so the scan stays short.
	gcs = gcs[:0]
	for _, t := range batch {
		if t.err != nil {
			t.g.setErr(t.err)
		}
		k := 0
		for ; k < len(gcs) && gcs[k].g != t.g; k++ {
		}
		if k == len(gcs) {
			gcs = append(gcs, groupCount{t.g, 1})
		} else {
			gcs[k].n++
		}
	}
	for i := range gcs {
		gcs[i].g.completeN(gcs[i].n)
	}
}

// execOne executes one transaction under the shard lock, mirroring the
// sharded Controller's per-operation sequence (op count, route record,
// controller call) exactly — that is what makes single-threaded replays
// byte-identical between the two front-ends.
func (bs *batchShard) execOne(t *Txn, scratch *[BlockBytes]byte) {
	s := bs.slot
	switch t.op {
	case opRead:
		s.ops.Add(1)
		s.traceRouteFlow(t.addr, t.inner, 0, t.flow)
		if t.off == 0 && int(t.n) == BlockBytes {
			info, err := s.ctrl.ReadInto(t.dst, t.inner)
			if t.info != nil {
				*t.info = info
			}
			t.err = err
			return
		}
		info, err := s.ctrl.ReadInto(scratch[:], t.inner)
		if t.info != nil {
			*t.info = info
		}
		if err == nil {
			copy(t.dst, scratch[t.off:int(t.off)+int(t.n)])
		}
		t.err = err
	case opWrite:
		s.ops.Add(1)
		if t.off == 0 && int(t.n) == BlockBytes {
			s.traceRouteFlow(t.addr, t.inner, trace.FlagWrite, t.flow)
			t.err = s.ctrl.Write(t.inner, t.data[:])
			return
		}
		// RMW: the internal load is a read and is traced as one; the
		// store opens its own write-flagged flow (same as WriteBytes).
		s.traceRouteFlow(t.addr, t.inner, 0, t.flow)
		if _, err := s.ctrl.ReadInto(scratch[:], t.inner); err != nil {
			t.err = err
		} else {
			copy(scratch[t.off:int(t.off)+int(t.n)], t.data[:t.n])
			s.traceRouteFlow(t.addr, t.inner, trace.FlagWrite, t.flow)
			t.err = s.ctrl.Write(t.inner, scratch[:])
		}
	case opWriteRaw:
		s.ops.Add(1)
		s.traceRouteFlow(t.addr, t.inner, trace.FlagWrite, t.flow)
		t.err = s.ctrl.Write(t.inner, t.dst)
	case opFlush:
		t.err = s.ctrl.Flush()
	case opSettle:
		s.ops.Add(1)
		t.err = s.ctrl.Settle(t.inner)
	case opInjectBit:
		s.ops.Add(1)
		ok := s.ctrl.InjectBitFlip(t.inner, int(t.arg))
		if t.ok != nil {
			*t.ok = ok
		}
	case opInjectChip:
		s.ops.Add(1)
		ok := s.ctrl.InjectChipFailure(t.inner, int(t.arg), t.pat)
		if t.ok != nil {
			*t.ok = ok
		}
	case opInDRAM:
		if t.ok != nil {
			*t.ok = s.ctrl.InDRAM(t.inner)
		}
	case opStoredKind:
		if t.kind != nil {
			*t.kind = s.ctrl.StoredKind(t.inner)
		}
	}
}

// completeDrain flushes the shard and publishes the fence. Re-invoked on
// every idle pass while Draining, so a straggler that raced the drain is
// re-fenced as soon as it has executed.
func (bs *batchShard) completeDrain() {
	s := bs.slot
	s.mu.Lock()
	err := s.ctrl.Drain()
	s.mu.Unlock()
	bs.mu.Lock()
	if !bs.fenced {
		bs.fenced = true
		bs.tel.Drains.Inc()
	}
	if err != nil && bs.drainErr == nil {
		bs.drainErr = err
	}
	bs.cond.Broadcast()
	bs.mu.Unlock()
}

// --- FR-FCFS batch reordering ------------------------------------------

// batchRowShift approximates DRAM row granularity for batch scheduling:
// blocks within the same 8 KB span share a row, so sorting a batch by row
// id turns scattered accesses into row-buffer-friendly runs.
const batchRowShift = 13

// rowSorter is one worker's reusable scratch for batch reordering: a
// scatter buffer and a counting array. Allocation-free after construction.
type rowSorter struct {
	out    []*Txn
	counts [257]uint32
}

func newRowSorter(batchMax int) *rowSorter {
	return &rowSorter{out: make([]*Txn, batchMax)}
}

// reorder stable-sorts runs of plain reads/writes by DRAM row id.
// Same-block accesses keep their enqueue order (every pass is stable and a
// block never spans rows), preserving single-block linearizability; any
// other operation (flush, settle, injection, query) is a scheduling
// barrier that pins the runs around it. Only the batch's pointers move —
// the Txn records themselves stay put in their ring cells.
func (rs *rowSorter) reorder(batch []*Txn) {
	for i := 0; i < len(batch); {
		if op := batch[i].op; op != opRead && op != opWrite {
			i++
			continue
		}
		j := i + 1
		for j < len(batch) && (batch[j].op == opRead || batch[j].op == opWrite) {
			j++
		}
		rs.sortRunByRow(batch[i:j])
		i = j
	}
}

// sortRunByRow sorts one run on the shard-local row id. A batch of
// neighborly traffic touches a handful of nearby rows, so the common case
// is a stable counting sort over the run's row range — three linear
// passes, no comparisons. Runs scattered over more than 256 distinct rows
// fall back to a stable insertion sort.
func (rs *rowSorter) sortRunByRow(run []*Txn) {
	if len(run) < 2 {
		return
	}
	minRow := run[0].inner >> batchRowShift
	maxRow := minRow
	for _, t := range run[1:] {
		switch r := t.inner >> batchRowShift; {
		case r < minRow:
			minRow = r
		case r > maxRow:
			maxRow = r
		}
	}
	if minRow == maxRow {
		return
	}
	if span := maxRow - minRow; span < 256 {
		counts := rs.counts[:span+2]
		for i := range counts {
			counts[i] = 0
		}
		for _, t := range run {
			counts[(t.inner>>batchRowShift)-minRow+1]++
		}
		for i := 1; i < len(counts); i++ {
			counts[i] += counts[i-1]
		}
		out := rs.out[:len(run)]
		for _, t := range run {
			k := (t.inner >> batchRowShift) - minRow
			out[counts[k]] = t
			counts[k]++
		}
		copy(run, out)
		return
	}
	for i := 1; i < len(run); i++ {
		for j := i; j > 0 && run[j-1].inner>>batchRowShift > run[j].inner>>batchRowShift; j-- {
			run[j-1], run[j] = run[j], run[j-1]
		}
	}
}

// --- synchronous API (mirrors Controller) -------------------------------

func (b *Batched) getGroup() *Group {
	g := b.gpool.Get().(*Group)
	g.b = b
	return g
}

// syncOp submits t in a fresh single-op group and waits it out.
func (b *Batched) syncOp(t *Txn) error {
	g := b.getGroup()
	b.submit(g, t)
	err := g.Wait()
	b.gpool.Put(g)
	return err
}

// Read loads the 64-byte block at addr.
func (b *Batched) Read(addr uint64) ([]byte, error) {
	out := make([]byte, BlockBytes)
	if _, err := b.ReadInto(out, addr); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadWithInfo is Read plus the owning controller's decoder observations.
func (b *Batched) ReadWithInfo(addr uint64) ([]byte, memctrl.ReadInfo, error) {
	out := make([]byte, BlockBytes)
	info, err := b.ReadInto(out, addr)
	if err != nil {
		return nil, info, err
	}
	return out, info, nil
}

// ReadInto reads the block holding addr into dst (at least BlockBytes).
func (b *Batched) ReadInto(dst []byte, addr uint64) (memctrl.ReadInfo, error) {
	var info memctrl.ReadInfo
	t := Txn{op: opRead, n: BlockBytes, addr: addr, dst: dst, info: &info}
	err := b.syncOp(&t)
	return info, err
}

// Write stores a full 64-byte block at addr.
func (b *Batched) Write(addr uint64, data []byte) error {
	t := Txn{op: opWriteRaw, addr: addr, dst: data}
	if len(data) == BlockBytes {
		t.op = opWrite
		t.n = BlockBytes
		t.dst = nil
		copy(t.data[:], data)
	}
	return b.syncOp(&t)
}

// Settle forces the block holding addr out of its shard's LLC (see
// memctrl.Settle).
func (b *Batched) Settle(addr uint64) error {
	return b.syncOp(&Txn{op: opSettle, addr: addr})
}

// StoredKind returns the ground-truth form of addr's DRAM image.
func (b *Batched) StoredKind(addr uint64) memctrl.StoredKind {
	var kind memctrl.StoredKind
	_ = b.syncOp(&Txn{op: opStoredKind, addr: addr, kind: &kind})
	return kind
}

// InDRAM reports whether addr has a DRAM image.
func (b *Batched) InDRAM(addr uint64) bool {
	var ok bool
	_ = b.syncOp(&Txn{op: opInDRAM, addr: addr, ok: &ok})
	return ok
}

// InjectBitFlip flips one bit of the DRAM image holding addr (bit 0..511),
// returning false when the block is not resident in DRAM.
func (b *Batched) InjectBitFlip(addr uint64, bit int) bool {
	var ok bool
	_ = b.syncOp(&Txn{op: opInjectBit, addr: addr, arg: int32(bit), ok: &ok})
	return ok
}

// InjectChipFailure corrupts every byte one chip contributes to the DRAM
// image holding addr, returning false when the block is not resident.
func (b *Batched) InjectChipFailure(addr uint64, chip int, pattern byte) bool {
	var ok bool
	_ = b.syncOp(&Txn{op: opInjectChip, addr: addr, arg: int32(chip), pat: pattern, ok: &ok})
	return ok
}

// ReadBytes reads an arbitrary byte range, crossing block (and hence
// shard) boundaries as needed.
func (b *Batched) ReadBytes(addr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := b.ReadBytesInto(out, addr); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadBytesInto fills dst from addr. The covered blocks are submitted as
// one group, so a range spanning multiple shards reads them in parallel.
func (b *Batched) ReadBytesInto(dst []byte, addr uint64) error {
	g := b.getGroup()
	for len(dst) > 0 {
		base := addr &^ (BlockBytes - 1)
		off := int(addr - base)
		take := BlockBytes - off
		if take > len(dst) {
			take = len(dst)
		}
		t := Txn{op: opRead, off: uint8(off), n: uint8(take), addr: base, dst: dst[:take]}
		b.submit(g, &t)
		addr += uint64(take)
		dst = dst[take:]
	}
	err := g.Wait()
	b.gpool.Put(g)
	return err
}

// WriteBytes writes an arbitrary byte range, performing read-modify-write
// on partially covered blocks. Each covered block updates atomically; the
// range as a whole is not atomic (same contract as Controller.WriteBytes),
// and the covered blocks are submitted as one group so a range spanning
// multiple shards writes them in parallel.
func (b *Batched) WriteBytes(addr uint64, data []byte) error {
	g := b.getGroup()
	for len(data) > 0 {
		base := addr &^ (BlockBytes - 1)
		off := int(addr - base)
		take := BlockBytes - off
		if take > len(data) {
			take = len(data)
		}
		t := Txn{op: opWrite, off: uint8(off), n: uint8(take), addr: base}
		copy(t.data[:take], data[:take])
		b.submit(g, &t)
		addr += uint64(take)
		data = data[take:]
	}
	err := g.Wait()
	b.gpool.Put(g)
	return err
}

// flushShard submits one opFlush to a specific shard, gating on its mode
// like reserve. Returns false when the shard retired before the claim —
// the caller must re-resolve the topology, because the stripes this flush
// was meant to cover now live elsewhere. A closed front-end records
// ErrClosed on g and reports done.
func (b *Batched) flushShard(bs *batchShard, g *Group) (done bool) {
	for {
		bs.inflight.Add(1)
		if Mode(bs.mode.Load()) == ModeEnabled {
			g.submitted++
			c, pos := bs.ring.reserve()
			t := &c.txn
			t.op = opFlush
			t.g = g
			bs.publish(c, pos)
			return true
		}
		bs.inflight.Add(-1)
		switch bs.await() {
		case awaitReady:
		case awaitReroute:
			return false
		case awaitClosed:
			g.setErr(ErrClosed)
			return true
		}
	}
}

// Flush drains every shard's dirty LLC lines to DRAM (first error wins).
// The flush transactions queue behind everything already submitted, so
// Flush fences all operations whose submit returned before it was called.
// If a concurrent reshard retires a shard mid-Flush, the pass restarts on
// the new topology (flushing a shard twice is harmless).
func (b *Batched) Flush() error {
	g := b.getGroup()
	for {
		topo := b.topo.Load()
		all := true
		for _, bs := range topo.bshards {
			if !b.flushShard(bs, g) {
				all = false
				break
			}
		}
		if all {
			break
		}
		// Settle what was already submitted, then retry on the topology
		// the reshard published.
		if err := g.Wait(); err != nil {
			b.gpool.Put(g)
			return err
		}
	}
	err := g.Wait()
	b.gpool.Put(g)
	return err
}

// --- asynchronous API ---------------------------------------------------

// NewGroup returns a completion group for asynchronous submission. Issue a
// window of Read/Write calls, then Wait once; the deeper the window, the
// deeper the batches the shard workers can execute. The group is reusable
// after Wait.
func (b *Batched) NewGroup() *Group { return b.getGroup() }

// PutGroup returns a group to the front-end's pool for reuse. Callers
// that submit one window per request (the networked serve datapath) would
// otherwise allocate a fresh group — and its wake channel — per frame.
// The group must be quiescent: every issued op waited out, and no further
// use after the call.
func (b *Batched) PutGroup(g *Group) {
	if g == nil || g.b != b {
		return
	}
	b.gpool.Put(g)
}

// Read enqueues an asynchronous full-block read of addr into dst (at
// least BlockBytes long). dst must stay untouched until Wait returns.
// The transaction is filled directly in its ring cell — the submission
// fast path copies no Txn and allocates nothing.
func (g *Group) Read(dst []byte, addr uint64) { g.ReadFlow(dst, addr, 0) }

// ReadFlow is Read with an explicit flight-recorder flow id: the shard
// route record and everything the controller performs underneath (cache
// lookup, decode, DRAM commands) join the given flow instead of
// allocating a fresh one. The networked serve datapath passes wire-derived
// span ids here; flow 0 behaves exactly like Read. The flow is written
// unconditionally because ring cells retain value fields from their
// previous occupant.
func (g *Group) ReadFlow(dst []byte, addr uint64, flow uint64) {
	bs, inner, c, pos, ok := g.b.reserve(g, addr)
	if !ok {
		return
	}
	t := &c.txn
	t.op = opRead
	t.off = 0
	t.n = BlockBytes
	t.addr = addr
	t.inner = inner
	t.flow = flow
	t.dst = dst
	t.g = g
	bs.publish(c, pos)
}

// Write enqueues an asynchronous full-block write. data is copied (once,
// straight into the ring cell) before Write returns, so the caller may
// reuse the buffer immediately.
func (g *Group) Write(addr uint64, data []byte) { g.WriteFlow(addr, data, 0) }

// WriteFlow is Write with an explicit flight-recorder flow id (see
// ReadFlow).
func (g *Group) WriteFlow(addr uint64, data []byte, flow uint64) {
	bs, inner, c, pos, ok := g.b.reserve(g, addr)
	if !ok {
		return
	}
	t := &c.txn
	t.addr = addr
	t.inner = inner
	t.flow = flow
	t.g = g
	if len(data) == BlockBytes {
		t.op = opWrite
		t.off = 0
		t.n = BlockBytes
		copy(t.data[:], data)
	} else {
		// Invalid-length passthrough: carry the caller's slice so the
		// controller's length validation produces the identical error.
		t.op = opWriteRaw
		t.dst = data
	}
	bs.publish(c, pos)
}

// --- mode control -------------------------------------------------------

// setMode publishes m to one shard and wakes everyone who cares. Terminal
// states (retired, closed) are never overwritten — their workers have
// exited, so re-enabling would strand submissions in a ring nobody reads.
func (b *Batched) setMode(bs *batchShard, m Mode) {
	bs.mu.Lock()
	switch Mode(bs.mode.Load()) {
	case modeRetired, modeClosed:
		bs.mu.Unlock()
		return
	}
	bs.mode.Store(int32(m))
	if m != ModeDraining {
		bs.fenced = false
		bs.drainErr = nil
	}
	bs.cond.Broadcast()
	bs.mu.Unlock()
	bs.wakeWorker()
}

// SetShardMode moves shard i to m. Producers targeting a non-Enabled shard
// block until it is re-enabled.
func (b *Batched) SetShardMode(i int, m Mode) { b.setMode(b.topo.Load().bshards[i], m) }

// ShardMode returns shard i's current mode.
func (b *Batched) ShardMode(i int) Mode { return Mode(b.topo.Load().bshards[i].mode.Load()) }

// SetMode moves every shard to m.
func (b *Batched) SetMode(m Mode) {
	for _, bs := range b.topo.Load().bshards {
		b.setMode(bs, m)
	}
}

// Drain moves every shard to ModeDraining and blocks until each is fenced:
// ring empty, executed, and flushed (memctrl.Drain). The fence covers
// every operation whose submit returned before Drain was called;
// operations submitted concurrently with Drain may execute after the
// fence (the worker re-fences as soon as they complete). Returns the first
// flush error. The shards stay Draining — and producers stay blocked —
// until Resume.
func (b *Batched) Drain() error {
	bshards := b.topo.Load().bshards
	for _, bs := range bshards {
		b.setMode(bs, ModeDraining)
	}
	var ferr error
	for _, bs := range bshards {
		bs.mu.Lock()
		for !bs.fenced && Mode(bs.mode.Load()) == ModeDraining {
			bs.cond.Wait()
		}
		if bs.drainErr != nil && ferr == nil {
			ferr = bs.drainErr
		}
		bs.mu.Unlock()
	}
	return ferr
}

// DrainShard is Drain for a single shard — the per-shard quiesce the live
// migration path uses while the other shards keep serving.
func (b *Batched) DrainShard(i int) error {
	bs := b.topo.Load().bshards[i]
	b.setMode(bs, ModeDraining)
	bs.mu.Lock()
	defer bs.mu.Unlock()
	for !bs.fenced && Mode(bs.mode.Load()) == ModeDraining {
		bs.cond.Wait()
	}
	return bs.drainErr
}

// Resume re-enables every shard after a Pause or Drain, unblocking any
// waiting producers.
func (b *Batched) Resume() { b.SetMode(ModeEnabled) }

// Quiesced reports whether every shard holds no dirty non-alias LLC lines
// (true after a successful Drain with no concurrent producers).
func (b *Batched) Quiesced() bool {
	for _, bs := range b.topo.Load().bshards {
		bs.slot.mu.Lock()
		q := bs.slot.ctrl.Quiesced()
		bs.slot.mu.Unlock()
		if !q {
			return false
		}
	}
	return true
}

// Close marks every shard closed and waits for the workers to finish
// whatever is still in the rings. Submissions after Close complete with
// ErrClosed. Callers should wait out their groups before closing;
// submissions racing Close may be dropped with ErrClosed. Close waits out
// any reconfiguration in progress (and fails subsequent ones).
func (b *Batched) Close() {
	b.reconfMu.Lock()
	defer b.reconfMu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, bs := range b.topo.Load().bshards {
		bs.mu.Lock()
		bs.mode.Store(int32(modeClosed))
		bs.cond.Broadcast()
		bs.mu.Unlock()
		bs.wakeWorker()
	}
	b.wg.Wait()
}

// --- delegation ---------------------------------------------------------

// NumShards returns the stripe count.
func (b *Batched) NumShards() int { return b.topo.Load().n }

// Mode returns the protection mode (the memctrl scheme, not the batch
// Mode — see ShardMode for that). After a committed live migration it
// reports the new scheme.
func (b *Batched) Mode() memctrl.Mode { return b.topo.Load().scheme }

// Ops returns the total operations routed through the controller (same
// counted set as Controller.Ops), including operations executed by shards
// that a reshard has since retired.
func (b *Batched) Ops() uint64 {
	n := b.retiredOps.Load()
	for _, bs := range b.topo.Load().bshards {
		n += bs.slot.ops.Load()
	}
	return n
}

// Stats aggregates every shard's counters (retired shards included).
//
// Deprecated: thin wrapper over the merged telemetry snapshot; use
// Snapshot in new code.
func (b *Batched) Stats() memctrl.Stats {
	var total memctrl.Stats
	for _, bs := range b.topo.Load().bshards {
		bs.slot.mu.Lock()
		st := bs.slot.ctrl.Stats()
		bs.slot.mu.Unlock()
		total.Add(st)
	}
	b.retiredMu.Lock()
	total.Add(b.retiredStats)
	b.retiredMu.Unlock()
	return total
}

// Snapshot merges every shard's telemetry tree and attaches the batch
// section (ring/batch/drain counters merged across shards). Every
// hierarchy section is byte-identical to what the equivalent sharded
// Controller would report for the same single-threaded access sequence;
// the Batch section is the only unconditional addition, and a Migration
// section appears once any reconfiguration has run. Counters from shards
// retired by a reshard stay included via the retired accumulators; a
// snapshot taken while a reshard is mid-cutover may transiently miss the
// shard being folded in.
func (b *Batched) Snapshot() telemetry.Snapshot {
	topo := b.topo.Load()
	var snap telemetry.Snapshot
	batch := &telemetry.BatchStats{}
	for i, bs := range topo.bshards {
		s := bs.slot.ctrl.Snapshot()
		if i == 0 {
			snap = s
		} else {
			snap.Merge(s)
		}
		batch.Merge(bs.tel.Snapshot())
	}
	b.retiredMu.Lock()
	if b.haveRetired {
		snap.Merge(b.retiredTel)
		batch.Merge(b.retiredBatch)
	}
	b.retiredMu.Unlock()
	snap.Batch = batch
	if m := b.migTel.Snapshot(); !m.Zero() {
		snap.Migration = &m
	}
	return snap
}

// MigrationTel exposes the reconfiguration counters for the migrate
// package to advance (chunk and block progress land here and surface in
// Snapshot's Migration section).
func (b *Batched) MigrationTel() *telemetry.MigrationCounters { return &b.migTel }

// SetTracer attaches an execution-trace flight recorder to every live
// shard (safe under live traffic; see Controller.SetTracer). Shards built
// by later reshards inherit the tracer.
func (b *Batched) SetTracer(t *trace.Tracer) {
	b.reconfMu.Lock()
	defer b.reconfMu.Unlock()
	b.tracer = t
	b.cfg.Shard.Mem.Tracer = t
	topo := b.topo.Load()
	if t != nil {
		maxIdx := 0
		for _, bs := range topo.bshards {
			if bs.idx > maxIdx {
				maxIdx = bs.idx
			}
		}
		t.EnsureShards(maxIdx + 1)
	}
	for _, bs := range topo.bshards {
		var h *trace.Handle
		if t != nil {
			h = t.Handle(bs.idx)
		}
		bs.slot.mu.Lock()
		bs.slot.th = h
		bs.slot.ctrl.AttachTracer(h)
		bs.slot.mu.Unlock()
	}
}

// Shard exposes one per-shard controller for diagnostics and tests. The
// caller owns synchronization: using it while workers are executing is
// racy — Drain (or Close) the front-end first.
func (b *Batched) Shard(i int) *memctrl.Controller { return b.topo.Load().bshards[i].slot.ctrl }

// Sharded exposes an equivalent sharded controller over the same slots.
// Mixing direct calls on it with batched submissions is safe (both paths
// take the same shard locks) but forfeits batching for those calls. It is
// rebuilt when a reshard completes; during an active reshard it lags the
// route table, so treat it as diagnostics-only under reconfiguration.
func (b *Batched) Sharded() *Controller { return b.topo.Load().inner }
