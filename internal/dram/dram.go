// Package dram is a DRAMSim2-inspired main-memory timing model: channels,
// ranks, and banks with an open-row policy, ACT/PRE/RD/WR timing, and
// FR-FCFS batch scheduling. It reproduces the paper's Table 1 memory
// configuration (2 channels, 1 DIMM per channel, 2 ranks per DIMM, 8 chips
// per rank, 1600 MT/s bus, 8 GB total) and supplies the latency
// distributions the interval simulator needs.
//
// The model is cycle-approximate, not cycle-exact: refresh, tFAW, and
// write-to-read turnaround are abstracted away, since only relative
// latencies under contention matter for reproducing Figure 11.
//
// All times are in memory-bus clock cycles (800 MHz for a 1600 MT/s bus).
// One memory cycle is CPUCyclesPerMemCycle CPU cycles at the paper's
// 3.2 GHz core clock.
package dram

import (
	"sort"

	"cop/internal/telemetry"
	"cop/internal/trace"
)

// CPUCyclesPerMemCycle converts memory cycles to 3.2 GHz CPU cycles.
const CPUCyclesPerMemCycle = 4

// BlockBytes is the transfer granularity (one cache block).
const BlockBytes = 64

// Timing holds DRAM timing parameters in memory-bus cycles (DDR3-1600
// defaults).
type Timing struct {
	CAS   uint64 // column access (read) latency
	RCD   uint64 // activate to column command
	RP    uint64 // precharge latency
	RAS   uint64 // activate to precharge minimum
	WR    uint64 // write recovery
	Burst uint64 // data transfer time for one 64-byte block
	// REFI/RFC model all-bank refresh: every REFI cycles the rank is
	// unavailable for RFC cycles. REFI = 0 disables refresh (the
	// default, matching the published experiment numbers; enable it for
	// sensitivity studies).
	REFI uint64
	RFC  uint64
}

// DDR31600 is the default timing set (refresh disabled).
func DDR31600() Timing {
	return Timing{CAS: 11, RCD: 11, RP: 11, RAS: 28, WR: 12, Burst: 4}
}

// WithRefresh returns the timing set with DDR3-1600 refresh enabled
// (tREFI 7.8 µs, tRFC for a 4 Gb device — 6240 and 208 bus cycles).
func (t Timing) WithRefresh() Timing {
	t.REFI, t.RFC = 6240, 208
	return t
}

// refreshDelay pushes t past any refresh window it falls inside.
func (tm Timing) refreshDelay(t uint64) uint64 {
	if tm.REFI == 0 {
		return t
	}
	if pos := t % tm.REFI; pos < tm.RFC {
		return t + tm.RFC - pos
	}
	return t
}

// PagePolicy selects what happens to a row after a column access.
type PagePolicy int

// Page policies.
const (
	// OpenPage leaves rows open (the paper's configuration: embedded-ECC
	// related work depends on open rows, and FR-FCFS exploits them).
	OpenPage PagePolicy = iota
	// ClosedPage auto-precharges after every access: no row hits, no
	// conflicts — every access pays ACT+CAS.
	ClosedPage
)

// SchedPolicy selects the batch scheduling discipline.
type SchedPolicy int

// Scheduling policies.
const (
	// FRFCFS services row hits first within a batch (first-ready).
	FRFCFS SchedPolicy = iota
	// FCFS services strictly in arrival order.
	FCFS
)

// Config describes the memory system geometry (Table 1 defaults).
type Config struct {
	Channels      int
	RanksPerChan  int // DIMMs per channel × ranks per DIMM
	BanksPerRank  int
	RowBytes      int // row-buffer size per bank
	CapacityBytes uint64
	Timing        Timing
	Page          PagePolicy
	Sched         SchedPolicy
}

// DefaultConfig returns the paper's Table 1 memory system.
func DefaultConfig() Config {
	return Config{
		Channels:      2,
		RanksPerChan:  2, // 1 DIMM per channel, 2 ranks per DIMM
		BanksPerRank:  8,
		RowBytes:      8192,
		CapacityBytes: 8 << 30,
		Timing:        DDR31600(),
	}
}

// Request is one block access.
type Request struct {
	Addr  uint64 // byte address
	Write bool
	// Flow optionally carries the execution-trace flow id of the access
	// that caused this request, so the command stream links back to it in
	// exported traces. 0 means untracked.
	Flow uint64
}

type bank struct {
	openRow int64 // -1 when closed
	readyAt uint64
}

type channel struct {
	busFreeAt uint64
	banks     []bank // ranks × banksPerRank flattened
}

// System is the DRAM timing model. Not safe for concurrent use.
type System struct {
	cfg   Config
	chans []channel
	tel   telemetry.DRAMCounters
	th    *trace.Handle

	blocksPerRow uint64
	banksPerChan uint64
}

// AttachTracer attaches an execution-trace handle; DRAM command records
// (ACT/PRE/RD/WR with issue and finish bus cycles) are written through it
// (nil detaches).
func (s *System) AttachTracer(h *trace.Handle) { s.th = h }

// New builds a System; zero-value fields of cfg fall back to defaults.
func New(cfg Config) *System {
	def := DefaultConfig()
	if cfg.Channels == 0 {
		cfg = def
	}
	s := &System{
		cfg:          cfg,
		blocksPerRow: uint64(cfg.RowBytes / BlockBytes),
		banksPerChan: uint64(cfg.RanksPerChan * cfg.BanksPerRank),
	}
	s.chans = make([]channel, cfg.Channels)
	for i := range s.chans {
		s.chans[i].banks = make([]bank, s.banksPerChan)
		for b := range s.chans[i].banks {
			s.chans[i].banks[b].openRow = -1
		}
	}
	return s
}

// Config returns the system geometry.
func (s *System) Config() Config { return s.cfg }

// Telemetry returns the DRAM section of the unified snapshot tree,
// including the per-access latency and queue-delay histograms.
func (s *System) Telemetry() telemetry.DRAMStats { return s.tel.Snapshot() }

// Location is the physical position of one block: channel, flattened
// rank×bank index within the channel, row within the bank, and column
// (block slot within the row). Fault-injection campaigns use it to turn a
// structural failure (row, column, bank) into the set of block addresses
// it corrupts.
type Location struct {
	Channel int
	Bank    int // flattened rank×bank within the channel
	Row     int64
	Col     int // block index within the row
}

// location decomposes a byte address into channel, bank (flattened
// rank×bank), and row. Channel bits sit just above the block offset so
// consecutive blocks stripe across channels; column bits come next so a
// row's blocks stay together per channel (open-row friendly).
func (s *System) location(addr uint64) (ch int, bankIdx uint64, row int64) {
	l := s.Location(addr)
	return l.Channel, uint64(l.Bank), l.Row
}

// Location maps a byte address to its physical position.
func (s *System) Location(addr uint64) Location {
	blk := addr / BlockBytes
	ch := int(blk % uint64(s.cfg.Channels))
	t := blk / uint64(s.cfg.Channels)
	col := int(t % s.blocksPerRow)
	t /= s.blocksPerRow
	bankIdx := t % s.banksPerChan
	t /= s.banksPerChan
	return Location{Channel: ch, Bank: int(bankIdx), Row: int64(t), Col: col}
}

// AddrAt is the inverse of Location: the block-aligned byte address of a
// physical position.
func (s *System) AddrAt(loc Location) uint64 {
	blk := ((uint64(loc.Row)*s.banksPerChan+uint64(loc.Bank))*s.blocksPerRow+
		uint64(loc.Col))*uint64(s.cfg.Channels) + uint64(loc.Channel)
	return blk * BlockBytes
}

// SameRow returns the block-aligned addresses below limit that share addr's
// channel, bank, and row — the footprint a failing row corrupts.
func (s *System) SameRow(addr, limit uint64) []uint64 {
	loc := s.Location(addr)
	out := make([]uint64, 0, s.blocksPerRow)
	for col := 0; col < int(s.blocksPerRow); col++ {
		loc.Col = col
		if a := s.AddrAt(loc); a < limit {
			out = append(out, a)
		}
	}
	return out
}

// SameColumn returns the block-aligned addresses below limit that share
// addr's channel, bank, and column across all rows — the blocks a failing
// column (bit line) touches, one bit per activation.
func (s *System) SameColumn(addr, limit uint64) []uint64 {
	loc := s.Location(addr)
	var out []uint64
	for row := int64(0); ; row++ {
		loc.Row = row
		a := s.AddrAt(loc)
		if a >= limit {
			// Addresses grow monotonically with the row (row bits are the
			// top of the block index), so no later row can be in range.
			return out
		}
		out = append(out, a)
	}
}

// SameBank returns the block-aligned addresses below limit in addr's
// channel and bank (every row and column) — a whole-bank failure's blast
// radius.
func (s *System) SameBank(addr, limit uint64) []uint64 {
	loc := s.Location(addr)
	var out []uint64
	for row := int64(0); ; row++ {
		loc.Row = row
		loc.Col = 0
		if s.AddrAt(loc) >= limit {
			return out
		}
		for col := 0; col < int(s.blocksPerRow); col++ {
			loc.Col = col
			if a := s.AddrAt(loc); a < limit {
				out = append(out, a)
			}
		}
	}
}

// Access services one request issued at time now and returns its finish
// time (data fully transferred), advancing bank and bus state.
func (s *System) Access(now uint64, addr uint64, write bool) uint64 {
	ch, bi, row := s.location(addr)
	c := &s.chans[ch]
	b := &c.banks[bi]
	tm := s.cfg.Timing

	start := now
	if b.readyAt > start {
		start = b.readyAt
	}
	start = tm.refreshDelay(start)

	var colReadyAt uint64
	conflict, activate := false, false
	switch {
	case b.openRow == row:
		s.tel.RowHits.Inc()
		colReadyAt = start
	case b.openRow == -1:
		s.tel.RowMisses.Inc()
		activate = true
		colReadyAt = start + tm.RCD
	default:
		s.tel.RowMisses.Inc()
		s.tel.RowConflicts.Inc()
		conflict, activate = true, true
		colReadyAt = start + tm.RP + tm.RCD
	}
	if s.cfg.Page == ClosedPage {
		// Auto-precharge: the next access to this bank sees it closed.
		b.openRow = -1
	} else {
		b.openRow = row
	}

	// The column command needs the data bus; serialize on the channel.
	dataStart := colReadyAt + tm.CAS
	if c.busFreeAt > dataStart {
		dataStart = c.busFreeAt
	}
	finish := dataStart + tm.Burst
	c.busFreeAt = finish

	// Bank occupancy: reads free the bank at data end; writes add
	// recovery time before another column/precharge can follow.
	b.readyAt = finish
	if write {
		b.readyAt = finish + tm.WR
		s.tel.Writes.Inc()
	} else {
		s.tel.Reads.Inc()
	}
	// Respect tRAS loosely: the row stays busy at least RAS after the
	// (implicit) activate on a miss.
	if minReady := start + tm.RAS; minReady > b.readyAt {
		b.readyAt = minReady
	}

	s.tel.TotalLatency.Add(finish - now)
	s.tel.TotalQueueDelay.Add(start - now)
	s.tel.AccessLatency.Observe(finish - now)
	s.tel.QueueDelay.Observe(start - now)

	if s.th.Enabled() {
		// Bank readiness is monotonic (readyAt never decreases), so the
		// issue cycles recorded per bank track are monotonic too.
		aux := trace.PackBank(ch, int(bi)/s.cfg.BanksPerRank, int(bi)%s.cfg.BanksPerRank)
		var wf trace.Flags
		kind := trace.KindDRAMRead
		if write {
			wf = trace.FlagWrite
			kind = trace.KindDRAMWrite
		}
		if conflict {
			s.th.Record(trace.KindDRAMPre, addr, aux, wf, start, start+tm.RP, uint64(row))
		}
		if activate {
			act := start
			if conflict {
				act += tm.RP
			}
			s.th.Record(trace.KindDRAMAct, addr, aux, wf, act, act+tm.RCD, uint64(row))
		}
		s.th.Record(kind, addr, aux, wf, dataStart, finish, uint64(row))
	}
	return finish
}

// ServiceBatch schedules a set of simultaneously issued, mutually
// independent requests (one interval-simulation epoch) with per-channel
// FR-FCFS: row hits first, then arrival order. It returns each request's
// finish time, in input order.
func (s *System) ServiceBatch(now uint64, reqs []Request) []uint64 {
	finish := make([]uint64, len(reqs))
	s.tel.MaxConcurrent.Observe(uint64(len(reqs)))
	// Partition by channel, preserving arrival order.
	type item struct{ idx int }
	perChan := make([][]int, s.cfg.Channels)
	for i, r := range reqs {
		ch, _, _ := s.location(r.Addr)
		perChan[ch] = append(perChan[ch], i)
	}
	for ch, idxs := range perChan {
		// FR-FCFS: stable-sort row hits (against current open rows)
		// ahead of misses. This is the first-ready approximation for a
		// batch that arrives together.
		c := &s.chans[ch]
		if s.cfg.Sched == FRFCFS {
			sort.SliceStable(idxs, func(a, b int) bool {
				_, ba, ra := s.location(reqs[idxs[a]].Addr)
				_, bb, rb := s.location(reqs[idxs[b]].Addr)
				hitA := c.banks[ba].openRow == ra
				hitB := c.banks[bb].openRow == rb
				return hitA && !hitB
			})
		}
		for _, i := range idxs {
			s.th.SetFlow(reqs[i].Flow)
			finish[i] = s.Access(now, reqs[i].Addr, reqs[i].Write)
		}
	}
	return finish
}

// UnloadedReadLatency returns the latency in memory cycles of an isolated
// read that hits an open row — the model's best case.
func (s *System) UnloadedReadLatency() uint64 {
	tm := s.cfg.Timing
	return tm.CAS + tm.Burst
}
