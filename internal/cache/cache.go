// Package cache models the set-associative last-level cache COP interacts
// with: per-line "alias" bits that pin incompressible aliases in the cache
// (they must never be written to DRAM, §3.1), the per-line "was
// uncompressed" bit COP-ER uses to find a block's existing ECC entry
// (§3.3), and the linked-list set-overflow mechanism the paper describes
// for the exceedingly rare case where aliases fill an entire set.
//
// Lines may carry data (functional simulations, fault injection) or not
// (performance simulations); the replacement machinery is identical.
package cache

import (
	"fmt"

	"cop/internal/telemetry"
	"cop/internal/trace"
)

// Line is one cache block's metadata (and optionally contents).
type Line struct {
	Addr uint64 // block-aligned byte address
	// Dirty marks modified lines that need a writeback on eviction.
	Dirty bool
	// Alias pins the line: it is an incompressible alias that the COP
	// encoder refused to write to DRAM.
	Alias bool
	// WasUncompressed is COP-ER's per-line hint that the block has a
	// live ECC-region entry from when it was read.
	WasUncompressed bool
	// Ptr caches the block's ECC-region pointer alongside
	// WasUncompressed (the hardware would re-read it from memory; the
	// model keeps it to avoid a second functional lookup).
	Ptr uint32
	// Data optionally holds the block contents.
	Data []byte
}

// way is one slot of a set. lru is the tick of its last touch, and 0
// exactly when the slot is empty (the tick is bumped before every use), so
// the record is a Line plus one word: 48 bytes.
type way struct {
	line Line
	lru  uint64
}

func (w *way) valid() bool { return w.lru != 0 }

// Cache is a set-associative, true-LRU cache. Not safe for concurrent use.
type Cache struct {
	sets     [][]way
	overflow map[int][]Line // spilled (alias) lines per set
	setMask  uint64
	shift    uint
	ways     int
	tick     uint64
	tel      telemetry.CacheCounters
	th       *trace.Handle
	onDrop   func(Line)
}

// New builds a cache of sizeBytes capacity with the given associativity
// and block size. sizeBytes/(ways*blockBytes) must be a power of two.
func New(sizeBytes, ways, blockBytes int) *Cache {
	nsets := sizeBytes / (ways * blockBytes)
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets is not a positive power of two", nsets))
	}
	shift := uint(0)
	for 1<<shift != blockBytes {
		shift++
		if shift > 20 {
			panic("cache: block size must be a power of two")
		}
	}
	c := &Cache{
		sets:     make([][]way, nsets),
		overflow: make(map[int][]Line),
		setMask:  uint64(nsets - 1),
		shift:    shift,
		ways:     ways,
	}
	slab := make([]way, nsets*ways)
	for i := range c.sets {
		c.sets[i] = slab[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return c
}

// SetOnDrop registers fn to receive lines the cache discards internally —
// clean eviction victims and lines displaced by a replacing Insert — which
// are otherwise unreachable to the owner. Dirty victims are still returned
// through Insert/Lookup, never passed to fn. Owners use the hook to
// recycle line buffers; fn runs synchronously on the calling goroutine.
func (c *Cache) SetOnDrop(fn func(Line)) { c.onDrop = fn }

// drop hands a discarded line to the onDrop hook, skipping the call when
// the replacing line shares the same backing buffer (an in-place refresh
// must not surrender a buffer that is still live).
func (c *Cache) drop(old, repl Line) {
	if c.onDrop == nil || len(old.Data) == 0 {
		return
	}
	if len(repl.Data) != 0 && &old.Data[0] == &repl.Data[0] {
		return
	}
	c.onDrop(old)
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.sets) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Telemetry returns the cache's section of the unified snapshot tree.
func (c *Cache) Telemetry() telemetry.CacheStats { return c.tel.Snapshot() }

// SetTracer attaches an execution-trace handle (nil detaches). The cache
// shares its owner's handle so its records join the access's flow.
func (c *Cache) SetTracer(h *trace.Handle) { c.th = h }

func lineFlags(l Line) trace.Flags {
	var f trace.Flags
	if l.Dirty {
		f |= trace.FlagDirty
	}
	if l.Alias {
		f |= trace.FlagAlias
	}
	return f
}

func (c *Cache) setIdx(addr uint64) int {
	return int((addr >> c.shift) & c.setMask)
}

func blockAlign(addr uint64, shift uint) uint64 { return addr >> shift << shift }

// Lookup finds the line holding addr, updating LRU on a hit. The returned
// pointer aliases cache-internal state: callers may mutate flags/data and
// must not retain it across other cache calls.
//
// A hit on a spilled line promotes it back into its set, and — because a
// formerly all-alias set can regain evictable lines (alias bits are
// recomputed on stores) — that promotion can evict a line. The evicted
// line is returned as victim; when writeback is true it is dirty and the
// caller must write it back, exactly as with Insert.
func (c *Cache) Lookup(addr uint64) (line *Line, victim Line, writeback, hit bool) {
	addr = blockAlign(addr, c.shift)
	si := c.setIdx(addr)
	for i := range c.sets[si] {
		w := &c.sets[si][i]
		if w.valid() && w.line.Addr == addr {
			c.tick++
			w.lru = c.tick
			c.tel.Hits.Inc()
			if c.th.Enabled() {
				c.th.Record(trace.KindCacheHit, addr, 0, trace.FlagHit|lineFlags(w.line), 0, 0, 0)
			}
			return &w.line, Line{}, false, true
		}
	}
	// Miss: walk the overflow list if this set has spilled lines.
	if ov := c.overflow[si]; len(ov) > 0 {
		c.tel.OverflowSearches.Inc()
		for i := range ov {
			if ov[i].Addr == addr {
				c.tel.OverflowHits.Inc()
				// Promote back into the set (the paper follows the
				// pointer chain; once touched the block is hot again).
				promoted := ov[i]
				c.overflow[si] = append(ov[:i], ov[i+1:]...)
				if len(c.overflow[si]) == 0 {
					delete(c.overflow, si)
				}
				c.tel.Hits.Inc()
				if c.th.Enabled() {
					c.th.Record(trace.KindCacheHit, addr, 0,
						trace.FlagHit|trace.FlagOverflow|lineFlags(promoted), 0, 0, 0)
				}
				victim, writeback = c.insertInto(si, promoted)
				for j := range c.sets[si] {
					w := &c.sets[si][j]
					if w.valid() && w.line.Addr == addr {
						return &w.line, victim, writeback, true
					}
				}
				panic("cache: promoted overflow line vanished")
			}
		}
	}
	c.tel.Misses.Inc()
	if c.th.Enabled() {
		c.th.Record(trace.KindCacheMiss, addr, 0, 0, 0, 0, 0)
	}
	return nil, Line{}, false, false
}

// DirtyLines counts resident dirty lines (sets plus overflow). With
// excludeAlias set, alias-pinned lines are skipped: aliases are re-seated
// dirty by Flush and can never be written back, so drain/fence logic
// treats "no dirty non-alias lines" as fully quiesced.
func (c *Cache) DirtyLines(excludeAlias bool) int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			l := &set[i]
			if l.valid() && l.line.Dirty && !(excludeAlias && l.line.Alias) {
				n++
			}
		}
	}
	for _, ov := range c.overflow {
		for i := range ov {
			if ov[i].Dirty && !(excludeAlias && ov[i].Alias) {
				n++
			}
		}
	}
	return n
}

// Contains reports residency (set or overflow) without touching LRU or
// stats.
func (c *Cache) Contains(addr uint64) bool {
	addr = blockAlign(addr, c.shift)
	si := c.setIdx(addr)
	for i := range c.sets[si] {
		if c.sets[si][i].valid() && c.sets[si][i].line.Addr == addr {
			return true
		}
	}
	for _, l := range c.overflow[si] {
		if l.Addr == addr {
			return true
		}
	}
	return false
}

// Peek returns the resident line holding addr (set or overflow) without
// touching LRU or stats. The pointer aliases cache-internal state: callers
// may mutate flags/data and must not retain it across other cache calls.
func (c *Cache) Peek(addr uint64) (*Line, bool) {
	addr = blockAlign(addr, c.shift)
	si := c.setIdx(addr)
	for i := range c.sets[si] {
		if c.sets[si][i].valid() && c.sets[si][i].line.Addr == addr {
			return &c.sets[si][i].line, true
		}
	}
	for i := range c.overflow[si] {
		if c.overflow[si][i].Addr == addr {
			return &c.overflow[si][i], true
		}
	}
	return nil, false
}

// ForEachLine visits every resident line (sets plus overflow) without
// touching LRU or stats. fn may mutate flags/data through the pointer but
// must not call back into the cache.
func (c *Cache) ForEachLine(fn func(*Line)) {
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid() {
				fn(&set[i].line)
			}
		}
	}
	for si := range c.overflow {
		for i := range c.overflow[si] {
			fn(&c.overflow[si][i])
		}
	}
}

// Insert places a line (after a miss fill or an LLC writeback allocation),
// returning any evicted line that needs a DRAM writeback. Alias lines are
// never evicted; when a set is entirely alias-pinned, the LRU alias is
// spilled to the set's overflow list instead (§3.1's linked-list
// mechanism), which never produces a writeback.
func (c *Cache) Insert(line Line) (victim Line, writeback bool) {
	line.Addr = blockAlign(line.Addr, c.shift)
	si := c.setIdx(line.Addr)
	// Replace in place if already resident.
	for i := range c.sets[si] {
		w := &c.sets[si][i]
		if w.valid() && w.line.Addr == line.Addr {
			c.tick++
			c.drop(w.line, line)
			w.line = line
			w.lru = c.tick
			return Line{}, false
		}
	}
	return c.insertInto(si, line)
}

func (c *Cache) insertInto(si int, line Line) (victim Line, writeback bool) {
	c.tick++
	set := c.sets[si]
	// Free way?
	for i := range set {
		if !set[i].valid() {
			set[i] = way{line: line, lru: c.tick}
			return Line{}, false
		}
	}
	// LRU victim among non-alias lines.
	vi := -1
	for i := range set {
		if set[i].line.Alias {
			continue
		}
		if vi < 0 || set[i].lru < set[vi].lru {
			vi = i
		}
	}
	if vi >= 0 {
		if c.anyAlias(set) {
			c.tel.AliasPins.Inc()
			if c.th.Enabled() {
				c.th.Record(trace.KindCacheAliasPin, line.Addr, 0, trace.FlagAlias, 0, 0, 0)
			}
		}
		victim = set[vi].line
		set[vi] = way{line: line, lru: c.tick}
		c.tel.Evictions.Inc()
		if c.th.Enabled() {
			c.th.Record(trace.KindCacheEvict, victim.Addr, 0, lineFlags(victim), 0, 0, 0)
		}
		if victim.Dirty {
			c.tel.Writebacks.Inc()
			return victim, true
		}
		c.drop(victim, Line{})
		return Line{}, false
	}
	// Every way is alias-pinned: spill the LRU alias to overflow.
	li := 0
	for i := range set {
		if set[i].lru < set[li].lru {
			li = i
		}
	}
	c.tel.Spills.Inc()
	if c.th.Enabled() {
		c.th.Record(trace.KindCacheSpill, set[li].line.Addr, 0,
			trace.FlagOverflow|lineFlags(set[li].line), 0, 0, 0)
	}
	c.overflow[si] = append(c.overflow[si], set[li].line)
	c.tel.OverflowOccupancy.Observe(uint64(len(c.overflow[si])))
	set[li] = way{line: line, lru: c.tick}
	return Line{}, false
}

func (c *Cache) anyAlias(set []way) bool {
	for i := range set {
		if set[i].line.Alias {
			return true
		}
	}
	return false
}

// Evict removes addr from the cache (set or overflow), returning the line
// and whether a dirty writeback is due. Used by functional flush paths.
func (c *Cache) Evict(addr uint64) (Line, bool, bool) {
	addr = blockAlign(addr, c.shift)
	si := c.setIdx(addr)
	for i := range c.sets[si] {
		w := &c.sets[si][i]
		if w.valid() && w.line.Addr == addr {
			line := w.line
			w.lru = 0
			c.tel.Evictions.Inc()
			if line.Dirty {
				c.tel.Writebacks.Inc()
			}
			if c.th.Enabled() {
				c.th.Record(trace.KindCacheEvict, addr, 0, lineFlags(line), 0, 0, 0)
			}
			return line, line.Dirty, true
		}
	}
	for i, l := range c.overflow[si] {
		if l.Addr == addr {
			c.overflow[si] = append(c.overflow[si][:i], c.overflow[si][i+1:]...)
			if len(c.overflow[si]) == 0 {
				delete(c.overflow, si)
			}
			c.tel.Evictions.Inc()
			if l.Dirty {
				c.tel.Writebacks.Inc()
			}
			return l, l.Dirty, true
		}
	}
	return Line{}, false, false
}

// FlushAll drains every line (sets then overflow), invoking fn for each;
// dirty lines are the caller's to write back. Alias lines are delivered
// too — a real system would quiesce differently, but tests need totality.
func (c *Cache) FlushAll(fn func(Line)) {
	for si := range c.sets {
		for i := range c.sets[si] {
			if c.sets[si][i].valid() {
				fn(c.sets[si][i].line)
				c.sets[si][i].lru = 0
			}
		}
	}
	for si, ov := range c.overflow {
		for _, l := range ov {
			fn(l)
		}
		delete(c.overflow, si)
	}
}

// OverflowLen returns the total number of spilled lines (diagnostics).
func (c *Cache) OverflowLen() int {
	n := 0
	for _, ov := range c.overflow {
		n += len(ov)
	}
	return n
}
