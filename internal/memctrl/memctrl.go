// Package memctrl assembles the paper's systems into a functional memory
// hierarchy: a last-level cache in front of a DRAM image store, with the
// write path encoding blocks (COP / COP-ER / ECC-region baseline / ECC
// DIMM / unprotected) and the read path decoding and correcting them. It
// is the substrate for the fault-injection experiments and examples — data
// really round-trips through the encoded DRAM images, and injected bit
// flips really exercise the correction machinery.
package memctrl

import (
	"errors"
	"fmt"

	"cop/internal/bitio"
	"cop/internal/cache"
	"cop/internal/chipkill"
	"cop/internal/core"
	"cop/internal/ecc"
	"cop/internal/telemetry"
	"cop/internal/trace"
)

// BlockBytes is the access granularity.
const BlockBytes = core.BlockBytes

// Mode selects the protection scheme.
type Mode int

// Protection modes, mirroring the paper's evaluated configurations.
const (
	// Unprotected stores raw blocks (the paper's baseline non-ECC DIMM).
	Unprotected Mode = iota
	// COP compresses blocks to fit inline ECC; incompressible blocks are
	// stored raw (unprotected) and incompressible aliases stay in the LLC.
	COP
	// COPER is COP plus the ECC region protecting incompressible blocks.
	COPER
	// ECCRegion is the Virtualized-ECC-like baseline: every block raw in
	// DRAM, an 11-bit (523,512) code word per block in a dedicated
	// region with a 2-byte entry per block.
	ECCRegion
	// ECCDIMM models a conventional ECC DIMM: (72,64) SECDED per 8-byte
	// word in a ninth chip.
	ECCDIMM
	// COPAdaptive uses the two-tier adaptive codec (§3.1's stronger-
	// codes-for-more-compressible-blocks option): 8-byte ECC when the
	// block frees 8 bytes, 4-byte ECC when it frees 4, raw otherwise.
	COPAdaptive
	// COPChipkill uses COP-CK-ER (the §5 future-work extension): every
	// block — compressible or not — survives a whole-chip failure.
	COPChipkill
)

func (m Mode) String() string {
	switch m {
	case Unprotected:
		return "unprotected"
	case COP:
		return "cop"
	case COPER:
		return "cop-er"
	case ECCRegion:
		return "ecc-region"
	case ECCDIMM:
		return "ecc-dimm"
	case COPAdaptive:
		return "cop-adaptive"
	case COPChipkill:
		return "cop-chipkill"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Scheme is one entry of the scheme registry: the name every binary, the
// public Open, the service's tenants, and live migration use for a
// protection scheme, its mode, and the COP code geometry.
type Scheme struct {
	Name string
	Mode Mode
	// COP parameterizes COP and COP-ER (zero value: core.NewConfig4()).
	COP core.Config
}

func (s Scheme) String() string {
	if s.Name == "" {
		return s.Mode.String()
	}
	return s.Name
}

// Schemes is the scheme registry, in the order "all" runs them: baselines
// first, then the COP family, then the alternatives. Whether an entry can
// be a live-migration endpoint is decided by migratable, from its Mode.
var Schemes = []Scheme{
	{Name: "unprotected", Mode: Unprotected},
	{Name: "ecc-dimm", Mode: ECCDIMM},
	{Name: "cop", Mode: COP, COP: core.NewConfig4()},
	{Name: "cop-8", Mode: COP, COP: core.NewConfig8()},
	{Name: "cop-er", Mode: COPER, COP: core.NewConfig4()},
	{Name: "cop-adaptive", Mode: COPAdaptive},
	{Name: "cop-chipkill", Mode: COPChipkill},
	{Name: "ecc-region", Mode: ECCRegion},
}

// LookupScheme resolves a registry name.
func LookupScheme(name string) (Scheme, bool) {
	for _, s := range Schemes {
		if s.Name == name {
			return s, true
		}
	}
	return Scheme{}, false
}

// migratable reports whether a scheme can be an endpoint of a live
// migration. COP-ER and COP-CK are excluded: their raw images own live
// ECC-region entries whose allocation order is not reproducible across an
// online re-encode, so the offline-equivalence guarantee cannot hold.
func migratable(m Mode) bool {
	switch m {
	case Unprotected, COP, COPAdaptive, ECCRegion, ECCDIMM:
		return true
	}
	return false
}

// ErrUncorrectable is surfaced when ECC detects an unrepairable error.
var ErrUncorrectable = errors.New("memctrl: uncorrectable memory error")

// StoredKind is the ground-truth form of a block's DRAM image, recorded at
// writeback time. Fault-injection classifiers compare it against the
// decoder's verdict on a corrupted image to recognize false aliases
// (raw read as compressed, or a compressed block knocked below the
// detection threshold).
type StoredKind int

// Stored-image kinds.
const (
	// StoredNone: the block has no DRAM image (never written back, or an
	// alias pinned in the LLC).
	StoredNone StoredKind = iota
	// StoredKindRaw: the image is the plaintext block (unprotected or
	// region-protected).
	StoredKindRaw
	// StoredKindCompressed: the image holds compressed data with inline
	// check bits.
	StoredKindCompressed
)

// ReadInfo reports what the controller observed servicing one read — the
// decoder verdicts that fault-injection classification needs, which the
// plain Read path only folds into the aggregate counters.
type ReadInfo struct {
	// LLCHit: the read was served from the cache; no DRAM image decoded.
	LLCHit bool
	// FromDRAM: an existing DRAM image was decoded (false for LLC hits
	// and for never-written blocks that fill as zeros).
	FromDRAM bool
	// DecodedCompressed is the decoder's verdict that the image was
	// protected (COP-family modes: ≥ threshold valid code words, or a
	// validated inline chipkill block).
	DecodedCompressed bool
	// ValidCodewords is the observed zero-syndrome code-word count
	// (COP-family modes).
	ValidCodewords int
	// Corrected counts corrected code words / entries / chip
	// reconstructions on this fill.
	Corrected int
	// CorrectedPointer: a COP-ER region pointer was repaired.
	CorrectedPointer bool
	// RegionAccess: the fill consulted an ECC-region entry.
	RegionAccess bool
}

func (i ReadInfo) corrected() bool { return i.Corrected > 0 || i.CorrectedPointer }

// Controller is a functional protected-memory model. Not safe for
// concurrent use.
type Controller struct {
	mode     Mode
	scrub    bool
	codec    *core.Codec
	sc       *core.CodecScratch // codec scratch; controllers are single-threaded
	er       *core.ERCodec
	adaptive *core.AdaptiveCodec
	ck       *chipkill.ERCodec
	llc      *cache.Cache

	store   *imageStore       // DRAM images, block-aligned address → 64B
	dimmECC map[uint64][]byte // ECCDIMM: 8 check bytes per block
	regECC  map[uint64]uint16 // ECCRegion: 11-bit parity per block (2-byte entry)

	everRaw    map[uint64]bool       // blocks ever stored uncompressed (Fig 12)
	kinds      map[uint64]StoredKind // ground-truth form of each DRAM image
	aliasSpill []cache.Line          // alias lines parked during Flush
	freeBlk    [][]byte              // recycled line buffers (see getBlock)
	old        *oldScheme            // non-nil while a live scheme migration is in flight
	tel        telemetry.ControllerCounters
	hooks      *telemetry.Hooks // nil until the first Subscribe
	th         *trace.Handle    // nil until AttachTracer; nil-safe
}

// Config parameterizes the controller.
type Config struct {
	Mode Mode
	// COPConfig is the codec configuration for COP/COP-ER modes; zero
	// value means core.NewConfig4().
	COPConfig core.Config
	// LLCBytes/LLCWays describe the last-level cache (defaults: 4 MB,
	// 16-way — Table 1). When this Config rides inside shard.Config,
	// LLCBytes is the TOTAL capacity across all shards — that rule, and
	// its validation, live in one place: shard.Config.Normalize.
	LLCBytes, LLCWays int
	// ScrubOnCorrect makes the controller rewrite a block's DRAM image
	// after correcting an error on a fill, so latent single-bit faults
	// do not accumulate into uncorrectable doubles. Real memory
	// controllers implement this as demand scrubbing; the paper does
	// not model it, so it defaults off.
	ScrubOnCorrect bool
	// Tracer attaches an execution-trace flight recorder (ring 0; sharded
	// front-ends re-attach per-shard handles). Until the tracer is
	// started, the hot path pays one nil check plus one atomic load and
	// never allocates.
	Tracer *trace.Tracer
}

// New builds a controller.
func New(cfg Config) *Controller {
	if cfg.LLCBytes == 0 {
		cfg.LLCBytes = 4 << 20
	}
	if cfg.LLCWays == 0 {
		cfg.LLCWays = 16
	}
	c := &Controller{
		mode:    cfg.Mode,
		scrub:   cfg.ScrubOnCorrect,
		llc:     cache.New(cfg.LLCBytes, cfg.LLCWays, BlockBytes),
		store:   newImageStore(),
		everRaw: map[uint64]bool{},
		kinds:   map[uint64]StoredKind{},
	}
	// Clean drops (evictions, flushes) surrender their buffers back to
	// the free list; line buffers are exclusively owned by their cache
	// entry in every mode (fills and misses always allocate or recycle a
	// private buffer, and no image encoder retains one — see scrubBlock).
	c.llc.SetOnDrop(func(l cache.Line) { c.putBlock(l.Data) })
	copCfg := cfg.COPConfig
	if copCfg.Code == nil {
		copCfg = core.NewConfig4()
	}
	switch cfg.Mode {
	case COP:
		c.codec = core.NewCodec(copCfg)
		c.sc = c.codec.NewScratch()
	case COPER:
		c.er = core.NewERCodec(copCfg)
		c.codec = c.er.Codec()
		c.sc = c.codec.NewScratch()
	case ECCDIMM:
		c.dimmECC = map[uint64][]byte{}
	case ECCRegion:
		c.regECC = map[uint64]uint16{}
	case COPAdaptive:
		c.adaptive = core.NewAdaptiveCodec()
	case COPChipkill:
		c.ck = chipkill.NewER()
	}
	if cfg.Tracer != nil {
		c.AttachTracer(cfg.Tracer.Handle(0))
	}
	return c
}

// AttachTracer binds an execution-trace handle to the controller and every
// layer it owns (LLC, ECC-region store), so the whole access lifecycle
// shares one flow id per operation. Pass nil to detach. The handle's flow
// state is mutated on the accessing goroutine, so attach before traffic or
// under the same lock that serializes the controller.
func (c *Controller) AttachTracer(h *trace.Handle) {
	c.th = h
	c.llc.SetTracer(h)
	if c.er != nil {
		c.er.Region().AttachTracer(h)
	}
	if c.ck != nil {
		c.ck.Store().AttachTracer(h)
	}
}

// Tracer returns the attached trace handle (nil when tracing is unwired).
func (c *Controller) Tracer() *trace.Handle { return c.th }

// Mode returns the protection mode.
func (c *Controller) Mode() Mode { return c.mode }

// Snapshot returns the controller's unified telemetry tree: its own
// counters, the LLC section, and (in region-backed modes) the ECC-region
// section, with derived rates computed. Safe to call at any time; the
// counters are atomics, so a snapshot never stalls traffic.
func (c *Controller) Snapshot() telemetry.Snapshot {
	s := telemetry.Snapshot{
		Scheme:     c.mode.String(),
		Controller: c.tel.Snapshot(),
		Cache:      c.llc.Telemetry(),
	}
	switch {
	case c.er != nil:
		r := c.er.Region().Telemetry()
		s.Region = &r
	case c.ck != nil:
		r := c.ck.Store().Telemetry()
		s.Region = &r
	}
	s.Finalize()
	return s
}

// Subscribe attaches fn to the controller's event stream (corrected /
// uncorrectable / alias-retained / scrub events). Until the first
// Subscribe the hot path pays only a nil check and never allocates.
// Subscribers run synchronously on the accessing goroutine.
func (c *Controller) Subscribe(fn func(telemetry.Event)) {
	if c.hooks == nil {
		c.hooks = &telemetry.Hooks{}
	}
	c.hooks.Attach(fn)
}

// emit delivers an event to subscribers, if any (nil-checked fast path).
func (c *Controller) emit(name string, addr, value uint64) {
	if c.hooks != nil {
		c.hooks.Emit(telemetry.Event{Layer: "memctrl", Name: name, Addr: addr, Value: value})
	}
}

// LLC exposes the cache (diagnostics and tests).
func (c *Controller) LLC() *cache.Cache { return c.llc }

// ER exposes the COP-ER codec in COPER mode (nil otherwise).
func (c *Controller) ER() *core.ERCodec { return c.er }

func align(addr uint64) uint64 { return addr &^ (BlockBytes - 1) }

// Write stores a full 64-byte block at addr (allocating in the LLC; DRAM
// is updated when the line is eventually evicted or flushed).
// maxFreeBlocks caps the line-buffer free list (64 B each, 256 KB at the
// cap). The LLC's working set cycles buffers between fills and evictions;
// the free list closes that loop so the steady-state datapath stops
// feeding the GC one dead 64-byte buffer per miss.
const maxFreeBlocks = 4096

// getBlock returns a BlockBytes buffer with unspecified contents,
// recycling the free list before allocating.
func (c *Controller) getBlock() []byte {
	if n := len(c.freeBlk); n > 0 {
		b := c.freeBlk[n-1]
		c.freeBlk[n-1] = nil
		c.freeBlk = c.freeBlk[:n-1]
		return b
	}
	return make([]byte, BlockBytes)
}

// getZeroBlock is getBlock with the contents cleared (fresh-page reads).
func (c *Controller) getZeroBlock() []byte {
	b := c.getBlock()
	clear(b)
	return b
}

// putBlock returns a dead line buffer to the free list. Callers must own
// the buffer exclusively: nothing in the LLC, the DRAM store, or a result
// still in flight may alias it.
func (c *Controller) putBlock(b []byte) {
	if len(b) != BlockBytes || len(c.freeBlk) >= maxFreeBlocks {
		return
	}
	c.freeBlk = append(c.freeBlk, b)
}

func (c *Controller) Write(addr uint64, data []byte) error {
	if len(data) != BlockBytes {
		return fmt.Errorf("memctrl: Write needs %d bytes", BlockBytes)
	}
	addr = align(addr)
	c.tel.Stores.Inc()
	if c.th.Enabled() {
		c.th.Begin()
		c.th.Record(trace.KindStore, addr, 0, trace.FlagWrite, 0, 0, 0)
	}

	if line, victim, wb, hit := c.llc.Lookup(addr); hit {
		// Refresh the resident buffer in place: fills and misses always
		// give lines their own buffers (DRAM images are never re-entered
		// into the cache), so nothing else aliases it and the steady-state
		// store path allocates nothing.
		if line.Data == nil {
			line.Data = c.getBlock()
		}
		copy(line.Data, data)
		line.Dirty = true
		c.setAliasBit(line)
		// The lookup may have promoted a spilled overflow line, evicting a
		// dirty victim that must reach DRAM. (line must not be used after
		// writeback: it can reshuffle the set.)
		if wb {
			return c.writebackEvicted(victim)
		}
		return nil
	}
	buf := c.getBlock()
	copy(buf, data)
	line := cache.Line{Addr: addr, Dirty: true, Data: buf}
	// Preserve an existing COP-ER entry association across the miss: the
	// "was uncompressed" state would have been captured at fill time; a
	// full-block store that misses starts clean.
	c.setAliasBit(&line)
	return c.insert(line)
}

// setAliasBit implements the proactive LLC alias check (§3.1): dirty lines
// that are incompressible aliases are pinned. WouldReject runs the cheap
// valid-code-word count first and compresses only the rare aliasing blocks,
// so this check no longer doubles every store's compression work.
func (c *Controller) setAliasBit(line *cache.Line) {
	switch {
	case c.mode == COP:
		line.Alias = c.codec.WouldReject(line.Data)
	case c.mode == COPAdaptive:
		line.Alias = c.adaptive.WouldReject(line.Data)
	default:
		// COP-ER de-aliases every block via the region pointer; the
		// remaining modes have no alias concept.
		line.Alias = false
		return
	}
	if c.th.Enabled() {
		compressible := uint32(1)
		var f trace.Flags
		if line.Alias {
			compressible = 0
			f = trace.FlagAlias
		}
		c.th.Record(trace.KindClassify, line.Addr, compressible, f, 0, uint64(c.mode), 0)
	}
}

// insert places a line in the LLC and performs any resulting writeback.
func (c *Controller) insert(line cache.Line) error {
	victim, wb := c.llc.Insert(line)
	if !wb {
		return nil
	}
	return c.writebackEvicted(victim)
}

// writeback encodes a dirty victim into its DRAM image, leaving the
// victim's buffer alone — scrubBlock passes a buffer that stays resident.
// Callers whose victim has actually left the LLC use writebackEvicted so
// the buffer is recycled.
func (c *Controller) writeback(victim cache.Line) error {
	return c.writebackOpt(victim, false)
}

// writebackEvicted is writeback for a line that has left the LLC: once
// the image encode is done with the buffer it joins the block free list.
// COP-family encoders build fresh images, so the buffer is dead; the
// raw-storing modes (Unprotected, ECC region/DIMM) take ownership of it
// as the image instead, and it is not recycled.
func (c *Controller) writebackEvicted(victim cache.Line) error {
	return c.writebackOpt(victim, true)
}

func (c *Controller) writebackOpt(victim cache.Line, recycle bool) error {
	c.tel.Writebacks.Inc()
	addr := victim.Addr
	status, err := c.encodeImage(addr, victim.Data, victim.Ptr, victim.WasUncompressed)
	if err != nil {
		return err
	}
	if status == core.RejectedAlias {
		// Must stay in the LLC: re-insert with the alias bit set.
		// cache.Insert pins alias lines, so this cannot recurse into
		// another rejected writeback of the same line.
		c.tel.AliasRetained.Inc()
		c.emit("alias-retained", addr, 0)
		c.traceAliasRetained(addr)
		victim.Alias = true
		return c.insert(victim)
	}
	if recycle {
		switch c.mode {
		case COP, COPER, COPChipkill, COPAdaptive:
			c.putBlock(victim.Data)
		}
	}
	if c.th.Enabled() {
		f := trace.FlagWrite
		if c.kinds[addr] == StoredKindCompressed {
			f |= trace.FlagCompressed
		}
		c.th.Record(trace.KindEncode, addr, uint32(c.kinds[addr]), f, 0, uint64(c.mode), 0)
		// The functional store has no device-time model (that lives in
		// internal/dram for the simulator), so the image write is recorded
		// with zero bus cycles; the exporter falls back to wall time.
		c.th.Record(trace.KindDRAMWrite, addr, uint32(c.kinds[addr]), f, 0, 0, 0)
	}
	return nil
}

// encodeImage encodes data as addr's DRAM image under the current scheme,
// updating the stored-kind ground truth and the stored/ever-raw counters.
// A core.RejectedAlias status (COP-family incompressible alias) leaves
// DRAM untouched; the caller decides whether to pin the line. Raw-storing
// modes take ownership of the data slice. prevPtr/hasPrev carry a COP-ER /
// chipkill line's existing region-entry association.
func (c *Controller) encodeImage(addr uint64, data []byte, prevPtr uint32, hasPrev bool) (core.StoreStatus, error) {
	var status core.StoreStatus
	switch c.mode {
	case Unprotected:
		c.store.set(addr, data)
		c.kinds[addr] = StoredKindRaw
		c.tel.StoredRaw.Inc()
		status = core.StoredRaw
	case COP:
		// Encode straight into the block's DRAM image buffer (reused across
		// writebacks of the same address) via the controller's scratch: the
		// steady-state write path allocates nothing.
		image, ok := c.store.get(addr)
		if !ok {
			image = make([]byte, BlockBytes)
		}
		status = c.codec.EncodeInto(image, data, c.sc)
		switch status {
		case core.StoredCompressed:
			if !ok {
				// EncodeInto rewrote the existing image in place; only a
				// fresh buffer needs entering the map.
				c.store.set(addr, image)
			}
			c.kinds[addr] = StoredKindCompressed
			c.tel.StoredCompressed.Inc()
		case core.StoredRaw:
			if !ok {
				c.store.set(addr, image)
			}
			c.kinds[addr] = StoredKindRaw
			c.tel.StoredRaw.Inc()
			c.markEverRaw(addr)
		case core.RejectedAlias:
			if !ok {
				// EncodeInto rejects aliases before writing dst, so the
				// fresh buffer is untouched and dead.
				c.putBlock(image)
			}
			return status, nil
		}
	case COPER:
		prev := core.NoPointer
		if hasPrev {
			prev = prevPtr
		}
		// Like COP: rewrite the block's image in place (WriteInto leaves
		// it untouched on error), so a compressible writeback allocates
		// nothing.
		image, ok := c.store.get(addr)
		if !ok {
			image = make([]byte, BlockBytes)
		}
		_, compressed, err := c.er.WriteInto(image, data, prev, c.sc)
		if err != nil {
			return 0, err
		}
		if !ok {
			c.store.set(addr, image)
		}
		c.kinds[addr] = kindOf(compressed)
		if compressed {
			c.tel.StoredCompressed.Inc()
			status = core.StoredCompressed
		} else {
			c.tel.StoredRaw.Inc()
			c.tel.RegionReads.Inc() // entry write
			c.markEverRaw(addr)
			status = core.StoredRaw
		}
	case COPChipkill:
		prev := chipkill.NoPointer
		if hasPrev {
			prev = prevPtr
		}
		image, _, inline, err := c.ck.Write(data, prev)
		if err != nil {
			return 0, err
		}
		c.store.set(addr, image)
		c.kinds[addr] = kindOf(inline)
		if inline {
			c.tel.StoredCompressed.Inc()
			status = core.StoredCompressed
		} else {
			c.tel.StoredRaw.Inc()
			c.tel.RegionReads.Inc()
			c.markEverRaw(addr)
			status = core.StoredRaw
		}
	case COPAdaptive:
		var image []byte
		image, _, status = c.adaptive.Encode(data)
		switch status {
		case core.StoredCompressed:
			c.store.set(addr, image)
			c.kinds[addr] = StoredKindCompressed
			c.tel.StoredCompressed.Inc()
		case core.StoredRaw:
			c.store.set(addr, image)
			c.kinds[addr] = StoredKindRaw
			c.tel.StoredRaw.Inc()
			c.markEverRaw(addr)
		case core.RejectedAlias:
			return status, nil
		}
	case ECCRegion:
		c.store.set(addr, data)
		c.regECC[addr] = blockParity523(data)
		c.kinds[addr] = StoredKindRaw
		c.tel.StoredRaw.Inc()
		c.tel.RegionReads.Inc()
		status = core.StoredRaw
	case ECCDIMM:
		c.store.set(addr, data)
		c.dimmECC[addr] = dimmCheckBytes(data)
		c.kinds[addr] = StoredKindRaw
		c.tel.StoredCompressed.Inc() // protected, inline — closest bucket
		c.tel.DIMMCheckBytesWritten.Add(8)
		status = core.StoredCompressed
	}
	if c.old != nil {
		// The image now carries the current scheme; the block no longer
		// needs migration and its retiring-scheme side entries can go.
		delete(c.old.pending, addr)
		c.old.dropEntry(addr)
	}
	return status, nil
}

// markEverRaw records the first time a block is stored uncompressed
// (Figure 12's ever-incompressible population).
func (c *Controller) markEverRaw(addr uint64) {
	if !c.everRaw[addr] {
		c.everRaw[addr] = true
		c.tel.EverIncompressible.Inc()
	}
}

// traceAliasRetained records a writeback rejected by the alias check and
// feeds the tracer's alias-burst anomaly trigger.
func (c *Controller) traceAliasRetained(addr uint64) {
	if c.th.Enabled() {
		c.th.Record(trace.KindAliasRetained, addr, 0, trace.FlagAlias|trace.FlagWrite, 0, uint64(c.mode), 0)
	}
}

func kindOf(compressed bool) StoredKind {
	if compressed {
		return StoredKindCompressed
	}
	return StoredKindRaw
}

// Read loads the 64-byte block at addr.
func (c *Controller) Read(addr uint64) ([]byte, error) {
	out, _, err := c.ReadWithInfo(addr)
	return out, err
}

// ReadWithInfo is Read plus the decoder observations for the access — the
// hook fault-injection classifiers use to see the verdicts (compressed?
// corrected? region consulted?) instead of inferring them from counter
// deltas. A read corrected an error exactly when Corrected > 0 or
// CorrectedPointer, the condition that bumps CorrectedErrors.
func (c *Controller) ReadWithInfo(addr uint64) ([]byte, ReadInfo, error) {
	out := make([]byte, BlockBytes)
	info, err := c.ReadInto(out, addr)
	if err != nil {
		return nil, info, err
	}
	return out, info, nil
}

// ReadInto reads the block holding addr into dst (at least BlockBytes
// long), allocating nothing on the steady-state LLC-hit path. It is the
// zero-copy core of Read/ReadWithInfo.
func (c *Controller) ReadInto(dst []byte, addr uint64) (ReadInfo, error) {
	if len(dst) < BlockBytes {
		return ReadInfo{}, fmt.Errorf("memctrl: ReadInto needs %d bytes", BlockBytes)
	}
	addr = align(addr)
	c.tel.Loads.Inc()
	if c.th.Enabled() {
		c.th.Begin()
		c.th.Record(trace.KindLoad, addr, 0, 0, 0, 0, 0)
	}
	if line, victim, wb, hit := c.llc.Lookup(addr); hit {
		copy(dst, line.Data)
		// An overflow promotion during the lookup may have evicted a dirty
		// line; its writeback must not be dropped.
		if wb {
			if err := c.writebackEvicted(victim); err != nil {
				return ReadInfo{}, err
			}
		}
		return ReadInfo{LLCHit: true}, nil
	}
	c.tel.Fills.Inc()
	line, info, err := c.fill(addr)
	if err != nil {
		c.emit("uncorrectable", addr, 0)
		if c.th.Enabled() {
			c.th.Record(trace.KindUncorrectable, addr, uint32(info.ValidCodewords), 0,
				uint64(info.Corrected), uint64(c.mode), 0)
		}
		return info, err
	}
	if info.corrected() {
		c.emit("corrected", addr, uint64(info.Corrected))
	}
	if c.scrub && info.corrected() {
		if serr := c.scrubBlock(addr, line.Data); serr != nil {
			return info, serr
		}
		c.tel.Scrubs.Inc()
		c.emit("scrub", addr, 0)
		if c.th.Enabled() {
			c.th.Record(trace.KindScrub, addr, 0, trace.FlagWrite, 0, uint64(c.mode), 0)
		}
	}
	copy(dst, line.Data)
	if ierr := c.insert(line); ierr != nil {
		return info, ierr
	}
	return info, nil
}

// fill decodes the DRAM image at addr into a cache line.
func (c *Controller) fill(addr uint64) (cache.Line, ReadInfo, error) {
	image, present := c.store.get(addr)
	if !present {
		// Untouched memory reads as zeros (fresh pages).
		return cache.Line{Addr: addr, Data: c.getZeroBlock()}, ReadInfo{}, nil
	}
	if o := c.old; o != nil {
		if _, pend := o.pending[addr]; pend {
			// The image still carries the retiring scheme's encoding.
			return c.fillOld(addr, image)
		}
	}
	rinfo := ReadInfo{FromDRAM: true}
	line := cache.Line{Addr: addr}
	var segMask uint64 // bitmask of corrected code-word segments (COP modes)
	switch c.mode {
	case Unprotected:
		line.Data = c.getBlock()
		copy(line.Data, image)
	case COP:
		// The line needs its own buffer anyway; decode straight into it via
		// the controller's scratch (CorrectedSegments aliases the scratch,
		// so only its length is read here).
		block := c.getBlock()
		info, err := c.codec.DecodeInto(block, image, c.sc)
		rinfo.DecodedCompressed = info.Compressed
		rinfo.ValidCodewords = info.ValidCodewords
		rinfo.Corrected = len(info.CorrectedSegments)
		segMask = segmentMask(info.CorrectedSegments)
		if err != nil {
			c.tel.UncorrectableErrors.Inc()
			c.putBlock(block)
			return cache.Line{}, rinfo, fmt.Errorf("%w: %v", ErrUncorrectable, err)
		}
		if rinfo.Corrected > 0 {
			c.tel.CorrectedErrors.Inc()
		}
		line.Data = block
	case COPER:
		block := c.getBlock()
		info, err := c.er.ReadInto(block, image, c.sc)
		rinfo.DecodedCompressed = info.Compressed
		rinfo.ValidCodewords = info.ValidCodewords
		rinfo.CorrectedPointer = info.CorrectedPointer
		rinfo.RegionAccess = info.RegionAccess
		if info.CorrectedBlock {
			rinfo.Corrected = 1
		}
		if err != nil {
			c.tel.UncorrectableErrors.Inc()
			c.putBlock(block)
			return cache.Line{}, rinfo, fmt.Errorf("%w: %v", ErrUncorrectable, err)
		}
		if info.CorrectedBlock || info.CorrectedPointer {
			c.tel.CorrectedErrors.Inc()
		}
		if info.RegionAccess {
			c.tel.RegionReads.Inc()
			line.WasUncompressed = true
			line.Ptr = c.pointerOf(image)
		}
		line.Data = block
	case COPChipkill:
		block, info, err := c.ck.Read(image)
		rinfo.DecodedCompressed = !info.RegionAccess
		rinfo.RegionAccess = info.RegionAccess
		if info.FailedChip >= 0 || info.CorrectedEntry {
			rinfo.Corrected = 1
		}
		if err != nil {
			c.tel.UncorrectableErrors.Inc()
			return cache.Line{}, rinfo, fmt.Errorf("%w: %v", ErrUncorrectable, err)
		}
		if info.FailedChip >= 0 || info.CorrectedEntry {
			c.tel.CorrectedErrors.Inc()
		}
		if info.RegionAccess {
			c.tel.RegionReads.Inc()
			// The hardware latches the pointer during the fill; recover
			// it from the (already validated) image copies.
			if ptr, ok := c.ck.PointerOf(image); ok {
				line.WasUncompressed = true
				line.Ptr = ptr
			}
		}
		line.Data = block
	case COPAdaptive:
		block, _, info, err := c.adaptive.Decode(image)
		rinfo.DecodedCompressed = info.Compressed
		rinfo.ValidCodewords = info.ValidCodewords
		rinfo.Corrected = len(info.CorrectedSegments)
		segMask = segmentMask(info.CorrectedSegments)
		if err != nil {
			c.tel.UncorrectableErrors.Inc()
			return cache.Line{}, rinfo, fmt.Errorf("%w: %v", ErrUncorrectable, err)
		}
		if len(info.CorrectedSegments) > 0 {
			c.tel.CorrectedErrors.Inc()
		}
		line.Data = block
	case ECCRegion:
		c.tel.RegionReads.Inc()
		rinfo.RegionAccess = true
		block, corrected, err := check523(image, c.regECC[addr])
		if err != nil {
			c.tel.UncorrectableErrors.Inc()
			return cache.Line{}, rinfo, err
		}
		if corrected {
			rinfo.Corrected = 1
			c.tel.CorrectedErrors.Inc()
		}
		line.Data = block
	case ECCDIMM:
		block, corrected, err := dimmDecode(image, c.dimmECC[addr])
		rinfo.Corrected = corrected
		if err != nil {
			c.tel.UncorrectableErrors.Inc()
			return cache.Line{}, rinfo, err
		}
		if corrected > 0 {
			c.tel.CorrectedErrors.Inc()
		}
		line.Data = block
	}
	if rinfo.ValidCodewords > 0 {
		// COP-family decode verdict: how many of the nine code words had a
		// zero syndrome (the paper's compressed-vs-raw discriminator).
		c.tel.ValidCodewords.Observe(uint64(rinfo.ValidCodewords))
	}
	if c.th.Enabled() {
		var f trace.Flags
		if rinfo.DecodedCompressed {
			f |= trace.FlagCompressed
		}
		// Image fetch precedes decode; zero bus cycles (no device-time
		// model on the functional path — the exporter uses wall time).
		c.th.Record(trace.KindDRAMRead, addr, uint32(len(image)), f, 0, 0, 0)
		c.th.Record(trace.KindDecode, addr, uint32(rinfo.ValidCodewords), f,
			uint64(rinfo.Corrected), uint64(c.mode), segMask)
	}
	c.setAliasBit(&line)
	return line, rinfo, nil
}

// segmentMask folds the corrected code-word indices into a bitmask for the
// decode trace record (segments beyond 63 saturate into bit 63).
func segmentMask(segs []int) uint64 {
	var m uint64
	for _, s := range segs {
		if s > 63 {
			s = 63
		}
		m |= 1 << uint(s)
	}
	return m
}

// pointerOf re-derives the region pointer embedded in a raw COP-ER image
// (the hardware latches it during the fill; errors were already corrected).
func (c *Controller) pointerOf(image []byte) uint32 {
	ptr, _ := c.er.PointerOf(image)
	return ptr
}

// Flush drains every dirty LLC line to DRAM (used by experiments to settle
// state before fault injection). An error does not abort the drain: every
// line is still written back (or re-seated, for aliases) and the first
// error is returned — an early return would silently drop the remaining
// dirty lines, whose cache entries FlushAll has already invalidated.
func (c *Controller) Flush() error {
	// Maintenance work: don't attribute the drain to the last access's flow.
	c.th.ResetFlow()
	var ferr error
	c.llc.FlushAll(func(l cache.Line) {
		if !l.Dirty {
			c.putBlock(l.Data)
			return
		}
		if l.Alias && (c.mode == COP || c.mode == COPAdaptive) {
			// Alias lines cannot leave the cache+overflow structure
			// in real hardware; a flush API must either spill them
			// via the overflow region or fall back (§3.1). The model
			// keeps them in a side list: re-inserting would fight the
			// flush (FlushAll invalidates the set entry after this
			// callback, dropping the line), so record as retained.
			c.tel.AliasRetained.Inc()
			c.emit("alias-retained", l.Addr, 0)
			c.traceAliasRetained(l.Addr)
			c.aliasSpill = append(c.aliasSpill, l)
			return
		}
		if err := c.writebackEvicted(l); err != nil && ferr == nil {
			ferr = err
		}
	})
	// Re-seat spilled alias lines unconditionally — insert places the line
	// even when the displaced victim's writeback errors, so clearing the
	// spill list cannot lose parked aliases.
	for _, l := range c.aliasSpill {
		if err := c.insert(l); err != nil && ferr == nil {
			ferr = err
		}
	}
	c.aliasSpill = nil
	return ferr
}

// Drain quiesces the controller to a fenced state: every dirty non-alias
// LLC line is written back to DRAM (alias lines are re-seated — they can
// never leave the cache+overflow structure) and the first writeback error
// is returned. After a successful Drain, Quiesced reports true and the
// DRAM image is a complete, decodable picture of memory — the handoff
// point live scheme migration needs. Today this is Flush plus the fence
// guarantee; it is a separate entry point so migration callers do not
// depend on Flush's (looser) contract.
func (c *Controller) Drain() error { return c.Flush() }

// Quiesced reports whether the controller holds no dirty non-alias LLC
// lines — i.e. whether DRAM (plus the alias lines pinned by design) is a
// complete image of memory. True immediately after a successful Drain.
func (c *Controller) Quiesced() bool { return c.llc.DirtyLines(true) == 0 }

// InjectBitFlip flips one bit of the DRAM image holding addr, returning
// false when the block is not resident in DRAM (e.g. still dirty in the
// LLC or never written). bit is 0..511.
func (c *Controller) InjectBitFlip(addr uint64, bit int) bool {
	image, ok := c.store.get(align(addr))
	if !ok || bit < 0 || bit >= 8*BlockBytes {
		return false
	}
	bitio.FlipBit(image, bit)
	return true
}

// InDRAM reports whether addr has a DRAM image.
func (c *Controller) InDRAM(addr uint64) bool {
	_, ok := c.store.get(align(addr))
	return ok
}

// StoredKind returns the ground-truth form of addr's DRAM image as of its
// last writeback (StoredNone when the block has no image).
func (c *Controller) StoredKind(addr uint64) StoredKind {
	return c.kinds[align(addr)]
}

// Settle forces the block holding addr out of the LLC: a dirty line is
// written back (an alias line is re-seated, as it must never reach DRAM),
// a clean line is dropped. After Settle, a Read of a non-alias block is
// guaranteed to decode its DRAM image — the fault-injection hook that
// makes an injected corruption observable on the very next access.
func (c *Controller) Settle(addr uint64) error {
	line, dirty, found := c.llc.Evict(align(addr))
	if !found {
		return nil
	}
	if !dirty {
		c.putBlock(line.Data)
		return nil
	}
	return c.writebackEvicted(line)
}

// EverIncompressibleBlocks returns how many distinct blocks were ever
// written to DRAM uncompressed — the quantity Figure 12's storage
// comparison charges COP-ER for.
func (c *Controller) EverIncompressibleBlocks() uint64 { return c.tel.EverIncompressible.Load() }

// --- helpers -----------------------------------------------------------

func copyBlock(b []byte) []byte {
	out := make([]byte, BlockBytes)
	copy(out, b)
	return out
}

// blockParity523 computes the ECC-region baseline's per-block check bits.
func blockParity523(block []byte) uint16 {
	cw := ecc.SECDED523512.Encode(block)
	pb := bitio.ExtractBits(cw, 512, 11)
	return uint16(pb[0])<<3 | uint16(pb[1])>>5
}

// check523 verifies/corrects a raw block against its 11-bit parity.
func check523(block []byte, parity uint16) ([]byte, bool, error) {
	cw := make([]byte, ecc.SECDED523512.CodewordBytes())
	copy(cw, block)
	var pb [2]byte
	pb[0] = byte(parity >> 3)
	pb[1] = byte(parity << 5)
	bitio.DepositBits(cw, 512, pb[:], 11)
	res, _ := ecc.SECDED523512.Decode(cw)
	switch res {
	case ecc.Corrected:
		return ecc.SECDED523512.Data(cw), true, nil
	case ecc.Uncorrectable:
		return nil, false, ErrUncorrectable
	default:
		return copyBlock(block), false, nil
	}
}

// dimmCheckBytes computes the ninth-chip contents for one block: one
// (72,64) check byte per 8-byte word.
func dimmCheckBytes(block []byte) []byte {
	out := make([]byte, 8)
	for w := 0; w < 8; w++ {
		cw := ecc.SECDED7264.Encode(block[8*w : 8*w+8])
		out[w] = cw[8]
	}
	return out
}

// dimmDecode verifies/corrects each word of a block.
func dimmDecode(block, check []byte) ([]byte, int, error) {
	out := make([]byte, BlockBytes)
	corrected := 0
	cw := make([]byte, 9)
	for w := 0; w < 8; w++ {
		copy(cw, block[8*w:8*w+8])
		cw[8] = check[w]
		res, _ := ecc.SECDED7264.Decode(cw)
		switch res {
		case ecc.Corrected:
			corrected++
		case ecc.Uncorrectable:
			return nil, corrected, ErrUncorrectable
		}
		copy(out[8*w:], cw[:8])
	}
	return out, corrected, nil
}

// scrubBlock rewrites the clean, just-corrected image for addr so the
// latent fault is cleared from DRAM.
func (c *Controller) scrubBlock(addr uint64, data []byte) error {
	switch c.mode {
	case Unprotected:
		return nil // nothing corrects in this mode anyway
	case COPER:
		// Re-encode in place, reusing any live entry pointer (Write
		// frees or updates it as needed). Pointers exist only in raw
		// images — extracting one from a compressed image would yield
		// garbage that could collide with another block's live entry.
		prev := core.NoPointer
		if old, _ := c.store.get(addr); c.codec.CountValidCodewords(old) < c.codec.Config().Threshold {
			if ptr, ok := c.er.PointerOf(old); ok && c.er.Region().Valid(ptr) {
				prev = ptr
			}
		}
		image, _, compressed, err := c.er.Write(data, prev)
		if err != nil {
			return err
		}
		c.store.set(addr, image)
		c.kinds[addr] = kindOf(compressed)
		return nil
	case COPChipkill:
		prev := chipkill.NoPointer
		old, _ := c.store.get(addr)
		if ptr, ok := c.ck.PointerOf(old); ok && c.ck.Store().Valid(ptr) {
			prev = ptr
		}
		image, _, inline, err := c.ck.Write(data, prev)
		if err != nil {
			return err
		}
		c.store.set(addr, image)
		c.kinds[addr] = kindOf(inline)
		return nil
	default:
		if c.mode == ECCRegion || c.mode == ECCDIMM {
			// Raw-storing encodes take ownership of the data slice; the
			// caller's buffer is (or becomes) a resident cache line, so
			// handing it to the store would alias the two — a later
			// in-place refresh of the line would silently rewrite the
			// "clean" image out from under its check bits.
			data = copyBlock(data)
		}
		return c.writeback(cache.Line{Addr: addr, Data: data, Dirty: true})
	}
}

// ReadBytes reads an arbitrary byte range (crossing block boundaries as
// needed) through the protected hierarchy. It allocates only the result;
// use ReadBytesInto for the allocation-free form.
func (c *Controller) ReadBytes(addr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := c.ReadBytesInto(out, addr); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadBytesInto fills dst with len(dst) bytes starting at addr, crossing
// block boundaries as needed. The per-call scratch block lives on the
// stack, so a read over LLC-resident blocks performs no allocations.
func (c *Controller) ReadBytesInto(dst []byte, addr uint64) error {
	var scratch [BlockBytes]byte
	for len(dst) > 0 {
		base := align(addr)
		off := int(addr - base)
		take := BlockBytes - off
		if take > len(dst) {
			take = len(dst)
		}
		if _, err := c.ReadInto(scratch[:], base); err != nil {
			return err
		}
		copy(dst[:take], scratch[off:off+take])
		addr += uint64(take)
		dst = dst[take:]
	}
	return nil
}

// WriteBytes writes an arbitrary byte range, performing read-modify-write
// on partially covered blocks. The RMW scratch block lives on the stack,
// so writes over LLC-resident blocks perform no allocations.
func (c *Controller) WriteBytes(addr uint64, data []byte) error {
	var scratch [BlockBytes]byte
	for len(data) > 0 {
		base := align(addr)
		off := int(addr - base)
		take := BlockBytes - off
		if take > len(data) {
			take = len(data)
		}
		block := data[:take]
		if off != 0 || take != BlockBytes {
			if _, err := c.ReadInto(scratch[:], base); err != nil {
				return err
			}
			copy(scratch[off:off+take], data[:take])
			block = scratch[:]
		}
		if err := c.Write(base, block[:BlockBytes]); err != nil {
			return err
		}
		addr += uint64(take)
		data = data[take:]
	}
	return nil
}

// InjectChipFailure corrupts every byte chip contributes to the DRAM image
// holding addr (a whole-chip failure on a ×8 rank), returning false when
// the block is not resident in DRAM. Only COPChipkill mode can recover
// from it; the other modes demonstrate why chipkill needs more than
// SECDED.
func (c *Controller) InjectChipFailure(addr uint64, chip int, pattern byte) bool {
	image, ok := c.store.get(align(addr))
	if !ok || chip < 0 || chip >= chipkill.Chips {
		return false
	}
	chipkill.FailChip(image, chip, pattern)
	return true
}

// CK exposes the chipkill codec in COPChipkill mode (nil otherwise).
func (c *Controller) CK() *chipkill.ERCodec { return c.ck }
