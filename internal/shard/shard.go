// Package shard provides a concurrency-safe front-end over
// memctrl.Controller: block addresses are striped across N independent
// per-shard controllers, each serialized by its own mutex, so goroutines
// touching different shards never contend. It is the substrate for
// parallel fault-injection campaigns and multi-client traffic over one
// logical memory image.
//
// Striping is set-index compatible: the shard index is taken from the
// block-address bits directly above the block offset, and those bits are
// then removed from the address handed to the shard's controller. Each
// shard's LLC is 1/N of the configured capacity (a power-of-two set
// count), and a set conflict occurs between two blocks if and only if it
// would occur in the equivalent unsharded controller — single-threaded
// replays produce byte-identical DRAM images and identical hit/miss/
// eviction behavior, sharded or not.
//
// Consistency model: operations on a single block are linearizable (the
// owning shard's mutex orders them). Operations on different blocks are
// independent, exactly as in real multi-channel memory controllers.
// Multi-block calls (ReadBytes/WriteBytes/Flush) are not atomic across
// shard boundaries: concurrent writers to the same byte range can
// interleave per block.
//
// The batched front-end (Batched, batch.go) keeps the same model with one
// refinement: within a dequeued batch, accesses to *different* blocks may
// be reordered for DRAM row locality (FR-FCFS style), while accesses to
// the same block always execute in enqueue order. A caller that needs
// cross-block ordering must wait for the earlier operation's Group before
// enqueueing the later one — exactly the fence a real memory controller
// requires. Single-block linearizability, Flush, and Drain ordering are
// unchanged: a Drain fences every operation whose enqueue returned before
// the Drain began.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cop/internal/memctrl"
	"cop/internal/telemetry"
	"cop/internal/trace"
)

// BlockBytes is the access granularity, re-exported for convenience.
const BlockBytes = memctrl.BlockBytes

// Config parameterizes a sharded controller.
//
// LLC capacity rule — stated once, here, for every front-end that embeds
// this config (cop.ShardedMemoryConfig included): Mem.LLCBytes is the
// TOTAL cache capacity of the logical memory; each shard receives exactly
// LLCBytes/Shards. A sharded and an unsharded controller built from the
// same Mem therefore model the same silicon, and single-threaded replays
// produce identical hit/miss behavior (see the package comment).
type Config struct {
	// Mem configures every per-shard controller. Mem.LLCBytes is the
	// TOTAL capacity (see the Config comment); zero selects the paper's
	// 4 MB / 16-way LLC.
	Mem memctrl.Config
	// Shards is the stripe count and must be a power of two no larger
	// than the LLC set count (so each shard's slice keeps at least one
	// set). Zero means auto: the smallest power of two >= GOMAXPROCS,
	// clamped to the set count. Anything else is a configuration error —
	// Normalize reports it; New panics on it.
	Shards int
}

// Normalize validates cfg and returns it with defaults applied (LLC
// geometry filled in, auto shard count resolved). It is the single
// validation path for sharded configs: an explicit Shards that is not a
// power of two, or that exceeds the LLC set count, is an error — never
// silently rounded.
func (cfg Config) Normalize() (Config, error) {
	if cfg.Mem.LLCBytes == 0 {
		cfg.Mem.LLCBytes = 4 << 20
	}
	if cfg.Mem.LLCWays == 0 {
		cfg.Mem.LLCWays = 16
	}
	totalSets := cfg.Mem.LLCBytes / (cfg.Mem.LLCWays * BlockBytes)
	if totalSets <= 0 || totalSets&(totalSets-1) != 0 {
		return Config{}, fmt.Errorf("shard: LLC of %d bytes / %d ways is not a power-of-two set count", cfg.Mem.LLCBytes, cfg.Mem.LLCWays)
	}
	switch n := cfg.Shards; {
	case n < 0:
		return Config{}, fmt.Errorf("shard: negative shard count %d", n)
	case n == 0:
		auto := nextPow2(runtime.GOMAXPROCS(0))
		if auto > totalSets {
			auto = totalSets
		}
		cfg.Shards = auto
	case n&(n-1) != 0:
		return Config{}, fmt.Errorf("shard: shard count %d is not a power of two", n)
	case n > totalSets:
		return Config{}, fmt.Errorf("shard: %d shards exceed the %d LLC sets (each shard needs at least one set)", n, totalSets)
	}
	return cfg, nil
}

// shardSlot pairs one controller with its lock and a lock-free op counter.
// Slots are heap-allocated individually so the hot counters of different
// shards do not share a cache line.
type shardSlot struct {
	mu   sync.Mutex
	ctrl *memctrl.Controller
	ops  atomic.Uint64
	th   *trace.Handle // this shard's execution-trace ring; nil-safe
}

// traceRoute records the shard-routing step and opens the access's flow.
// Must be called with s.mu held (the handle is single-writer).
func (s *shardSlot) traceRoute(outer, inner uint64, f trace.Flags) {
	s.traceRouteFlow(outer, inner, f, 0)
}

// traceRouteFlow is traceRoute with an externally supplied flow id (0 =
// allocate a fresh one). The batched front-end passes wire trace spans
// here, so a client-generated id follows the access through every layer's
// records down to DRAM.
func (s *shardSlot) traceRouteFlow(outer, inner uint64, f trace.Flags, flow uint64) {
	if s.th.Enabled() {
		if flow != 0 {
			s.th.BeginOuterFlow(flow)
		} else {
			s.th.BeginOuter()
		}
		s.th.Record(trace.KindShardRoute, inner, 0, f, outer, 0, 0)
	}
}

// Controller is a sharded, concurrency-safe memctrl front-end. All methods
// may be called from any number of goroutines.
type Controller struct {
	shards []*shardSlot
	mask   uint64
	logN   uint
	mode   memctrl.Mode
}

// New builds a sharded controller. The zero Config (beyond Mem.Mode) gives
// the paper's 4 MB / 16-way LLC split across GOMAXPROCS-many shards. An
// invalid config (see Config.Normalize) is reported as an error.
func New(cfg Config) (*Controller, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	n := cfg.Shards
	perShard := cfg.Mem
	perShard.LLCBytes = cfg.Mem.LLCBytes / n
	// The tracer is attached per shard below (each shard gets its own
	// single-writer ring); memctrl.New would bind every shard to ring 0.
	perShard.Tracer = nil
	c := &Controller{
		shards: make([]*shardSlot, n),
		mask:   uint64(n - 1),
		logN:   log2(n),
		mode:   cfg.Mem.Mode,
	}
	for i := range c.shards {
		c.shards[i] = &shardSlot{ctrl: memctrl.New(perShard)}
	}
	if cfg.Mem.Tracer != nil {
		c.SetTracer(cfg.Mem.Tracer)
	}
	return c, nil
}

// SetTracer attaches an execution-trace flight recorder: the ring set is
// grown to the shard count and each shard records into its own ring through
// its own single-writer handle (the shard mutex serializes writers). Safe
// to call while traffic is running — each handle swap happens under the
// owning shard's lock, so the telemetry handler's /trace/start and
// /trace/stop endpoints can toggle tracing on a live instance. Pass nil to
// detach.
func (c *Controller) SetTracer(t *trace.Tracer) {
	if t != nil {
		t.EnsureShards(len(c.shards))
	}
	for i, s := range c.shards {
		var h *trace.Handle
		if t != nil {
			h = t.Handle(i)
		}
		s.mu.Lock()
		s.th = h
		s.ctrl.AttachTracer(h)
		s.mu.Unlock()
	}
}

// NextPow2 returns the smallest power of two >= n (1 for n <= 0): the
// helper callers use to turn an arbitrary worker count into a valid
// Shards value when they genuinely want rounding.
func NextPow2(n int) int { return nextPow2(n) }

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func log2(n int) uint {
	var l uint
	for 1<<l != n {
		l++
	}
	return l
}

// locate returns the slot owning addr and the shard-local address (the
// shard-index bits stripped from the block index, offset preserved).
func (c *Controller) locate(addr uint64) (*shardSlot, uint64) {
	blockIdx := addr / BlockBytes
	inner := (blockIdx>>c.logN)*BlockBytes | (addr % BlockBytes)
	return c.shards[blockIdx&c.mask], inner
}

// NumShards returns the stripe count.
func (c *Controller) NumShards() int { return len(c.shards) }

// Mode returns the protection mode.
func (c *Controller) Mode() memctrl.Mode { return c.mode }

// Read loads the 64-byte block at addr.
func (c *Controller) Read(addr uint64) ([]byte, error) {
	s, inner := c.locate(addr)
	s.ops.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traceRoute(addr, inner, 0)
	return s.ctrl.Read(inner)
}

// ReadWithInfo is Read plus the owning controller's decoder observations
// (see memctrl.ReadInfo).
func (c *Controller) ReadWithInfo(addr uint64) ([]byte, memctrl.ReadInfo, error) {
	s, inner := c.locate(addr)
	s.ops.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traceRoute(addr, inner, 0)
	return s.ctrl.ReadWithInfo(inner)
}

// ReadInto reads the block holding addr into dst (at least BlockBytes
// long) without allocating on the steady-state hit path (see
// memctrl.ReadInto).
func (c *Controller) ReadInto(dst []byte, addr uint64) (memctrl.ReadInfo, error) {
	s, inner := c.locate(addr)
	s.ops.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traceRoute(addr, inner, 0)
	return s.ctrl.ReadInto(dst, inner)
}

// Settle forces the block holding addr out of its shard's LLC and into
// DRAM (see memctrl.Settle) — the per-block fault-injection hook, usable
// while other goroutines drive other blocks.
func (c *Controller) Settle(addr uint64) error {
	s, inner := c.locate(addr)
	s.ops.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.Settle(inner)
}

// StoredKind returns the ground-truth form of addr's DRAM image (see
// memctrl.StoredKind).
func (c *Controller) StoredKind(addr uint64) memctrl.StoredKind {
	s, inner := c.locate(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.StoredKind(inner)
}

// Write stores a full 64-byte block at addr.
func (c *Controller) Write(addr uint64, data []byte) error {
	s, inner := c.locate(addr)
	s.ops.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traceRoute(addr, inner, trace.FlagWrite)
	return s.ctrl.Write(inner, data)
}

// ReadBytes reads an arbitrary byte range, crossing block (and hence
// shard) boundaries as needed. It allocates only the result; use
// ReadBytesInto for the allocation-free form.
func (c *Controller) ReadBytes(addr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := c.ReadBytesInto(out, addr); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadBytesInto fills dst with len(dst) bytes starting at addr, crossing
// block (and hence shard) boundaries as needed. The per-call scratch block
// lives on the stack, so a read over LLC-resident blocks performs no
// allocations.
func (c *Controller) ReadBytesInto(dst []byte, addr uint64) error {
	var scratch [BlockBytes]byte
	for len(dst) > 0 {
		base := addr &^ (BlockBytes - 1)
		off := int(addr - base)
		take := BlockBytes - off
		if take > len(dst) {
			take = len(dst)
		}
		s, inner := c.locate(base)
		s.ops.Add(1)
		s.mu.Lock()
		s.traceRoute(base, inner, 0)
		_, err := s.ctrl.ReadInto(scratch[:], inner)
		s.mu.Unlock()
		if err != nil {
			return err
		}
		copy(dst[:take], scratch[off:off+take])
		addr += uint64(take)
		dst = dst[take:]
	}
	return nil
}

// WriteBytes writes an arbitrary byte range, performing read-modify-write
// on partially covered blocks. Each covered block is updated atomically
// (its shard is locked across the read-modify-write); the range as a whole
// is not. The RMW scratch block lives on the stack, so writes over
// LLC-resident blocks perform no allocations.
func (c *Controller) WriteBytes(addr uint64, data []byte) error {
	var scratch [BlockBytes]byte
	for len(data) > 0 {
		base := addr &^ (BlockBytes - 1)
		off := int(addr - base)
		take := BlockBytes - off
		if take > len(data) {
			take = len(data)
		}
		s, inner := c.locate(base)
		s.ops.Add(1)
		s.mu.Lock()
		var err error
		if off == 0 && take == BlockBytes {
			s.traceRoute(base, inner, trace.FlagWrite)
			err = s.ctrl.Write(inner, data[:BlockBytes])
		} else {
			// The RMW's internal load is a read and is traced as one; the
			// store opens its own write-flagged flow.
			s.traceRoute(base, inner, 0)
			if _, err = s.ctrl.ReadInto(scratch[:], inner); err == nil {
				copy(scratch[off:off+take], data[:take])
				s.traceRoute(base, inner, trace.FlagWrite)
				err = s.ctrl.Write(inner, scratch[:])
			}
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
		addr += uint64(take)
		data = data[take:]
	}
	return nil
}

// Flush drains every shard's dirty LLC lines to DRAM. Every shard is
// flushed even when an earlier one errors (each shard's Flush likewise
// drains every line); the first error is returned.
func (c *Controller) Flush() error {
	var ferr error
	for _, s := range c.shards {
		s.mu.Lock()
		err := s.ctrl.Flush()
		s.mu.Unlock()
		if err != nil && ferr == nil {
			ferr = err
		}
	}
	return ferr
}

// Drain quiesces every shard to a fenced state (see memctrl.Drain): all
// dirty non-alias lines reach DRAM, and Quiesced reports true afterwards.
// Every shard is drained even when an earlier one errors; the first error
// is returned.
func (c *Controller) Drain() error {
	var ferr error
	for _, s := range c.shards {
		s.mu.Lock()
		err := s.ctrl.Drain()
		s.mu.Unlock()
		if err != nil && ferr == nil {
			ferr = err
		}
	}
	return ferr
}

// Quiesced reports whether every shard holds no dirty non-alias LLC lines
// (see memctrl.Quiesced).
func (c *Controller) Quiesced() bool {
	for _, s := range c.shards {
		s.mu.Lock()
		q := s.ctrl.Quiesced()
		s.mu.Unlock()
		if !q {
			return false
		}
	}
	return true
}

// InjectBitFlip flips one bit of the DRAM image holding addr (bit 0..511),
// returning false when the block is not resident in DRAM.
func (c *Controller) InjectBitFlip(addr uint64, bit int) bool {
	s, inner := c.locate(addr)
	s.ops.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.InjectBitFlip(inner, bit)
}

// InjectChipFailure corrupts every byte one chip contributes to the DRAM
// image holding addr, returning false when the block is not resident.
func (c *Controller) InjectChipFailure(addr uint64, chip int, pattern byte) bool {
	s, inner := c.locate(addr)
	s.ops.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.InjectChipFailure(inner, chip, pattern)
}

// InDRAM reports whether addr has a DRAM image.
func (c *Controller) InDRAM(addr uint64) bool {
	s, inner := c.locate(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.InDRAM(inner)
}

// Snapshot merges every shard's telemetry tree into one Snapshot. All
// section fields are monotonic sums (histograms merge bucket-wise) and
// derived rates are recomputed after the merge, so a sharded and an
// unsharded run of the same single-threaded trace produce byte-identical
// JSON snapshots. Shards are snapshotted lock-free (the counters are
// atomics), so a snapshot never stalls traffic; the result is per-shard
// consistent, not globally instantaneous.
func (c *Controller) Snapshot() telemetry.Snapshot {
	var total telemetry.Snapshot
	for i, s := range c.shards {
		snap := s.ctrl.Snapshot()
		if i == 0 {
			total = snap
		} else {
			total.Merge(snap)
		}
	}
	return total
}

// Ops returns the total operations routed through the controller, summed
// lock-free from per-shard atomic counters. Counted: every state-affecting
// access — reads (Read, ReadWithInfo, ReadInto), writes, per-block
// ReadBytes/ReadBytesInto/WriteBytes updates, Settle, and fault
// injections. Not counted: pure queries (StoredKind, InDRAM) and
// maintenance sweeps (Flush), which touch no per-block access path. The
// counted set is pinned by TestOpsCountsPerMethod.
func (c *Controller) Ops() uint64 {
	var n uint64
	for _, s := range c.shards {
		n += s.ops.Load()
	}
	return n
}

// Shard exposes one per-shard controller for diagnostics and tests. The
// caller owns synchronization: using it while other goroutines drive the
// sharded controller is racy.
func (c *Controller) Shard(i int) *memctrl.Controller { return c.shards[i].ctrl }

// DumpDRAM returns a copy of every resident DRAM image keyed by outer
// block address (the addresses callers use) — the comparison hook for
// migration and resharding equivalence checks. Intended for drained,
// quiescent instances; under concurrent traffic the result is a
// per-shard-consistent sample, not a global instant.
func (c *Controller) DumpDRAM() map[uint64][]byte {
	out := map[uint64][]byte{}
	for i, s := range c.shards {
		s.mu.Lock()
		d := s.ctrl.DumpDRAM()
		s.mu.Unlock()
		for inner, img := range d {
			outerIdx := (inner/BlockBytes)<<c.logN | uint64(i)
			out[outerIdx*BlockBytes] = img
		}
	}
	return out
}
