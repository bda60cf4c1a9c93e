// Package telemetry is the unified observability layer for the COP memory
// hierarchy: typed atomic counters, fixed-bucket power-of-two histograms,
// and optional event hooks, merged across layers (and across shards) into
// one coherent Snapshot tree with JSON and Prometheus-text exporters.
//
// Design constraints, in order:
//
//  1. The hot path stays hot. Counters are plain atomics (one uncontended
//     LOCK XADD), histograms are power-of-two bucketed (one bits.Len64 and
//     two atomic adds), and event hooks are nil-checked function slices —
//     an instrumented access with no subscriber attached performs zero
//     allocations and no branches beyond the nil check.
//  2. Merging is exact. Every field of every section is a monotonic sum
//     (or a bucket-wise histogram sum), so merging N per-shard snapshots
//     of a single-threaded run yields byte-for-byte the snapshot an
//     unsharded run would have produced. Derived rates are computed only
//     after merging, never merged themselves.
//  3. No dependencies. This package imports only the standard library and
//     is imported by every layer of the hierarchy (cache, memctrl, dram,
//     eccregion, shard, faultsim), so it defines the section types itself.
package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic atomic event counter. The zero value is ready to
// use. Load is wait-free and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Store overwrites the count (reset wrappers only; live paths never write
// absolute values).
func (c *Counter) Store(n uint64) { c.v.Store(n) }

// Gauge is an atomic up/down level (e.g. live region entries). The zero
// value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Add moves the level by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Store overwrites the level (reset wrappers only).
func (g *Gauge) Store(n int64) { g.v.Store(n) }

// Max is a monotonic high-water-mark gauge.
type Max struct{ v atomic.Uint64 }

// Observe raises the mark to n if n exceeds it.
func (m *Max) Observe(n uint64) {
	for {
		cur := m.v.Load()
		if n <= cur || m.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current mark.
func (m *Max) Load() uint64 { return m.v.Load() }

// Store overwrites the mark (reset wrappers only).
func (m *Max) Store(n uint64) { m.v.Store(n) }

// HistBuckets is the fixed bucket count of every Histogram. Bucket 0
// counts observations of exactly 0; bucket i (i ≥ 1) counts observations
// in [2^(i-1), 2^i). The last bucket additionally absorbs anything larger.
const HistBuckets = 32

// Histogram is a fixed-bucket power-of-two histogram. The zero value is
// ready to use; Observe is allocation-free (one bits.Len64, three atomic
// adds) and safe for concurrent use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [HistBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.buckets[b].Add(1)
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile estimates the q-th quantile of the live histogram without
// snapshotting: bucket counts are read into a stack array, so the call is
// allocation-free and safe on the hot path (the adaptive slow-frame
// threshold recomputes from it). Concurrent Observe calls may skew the
// estimate by the in-flight observations; that slack is irrelevant at the
// tail it is used for.
func (h *Histogram) Quantile(q float64) uint64 {
	var raw [HistBuckets]uint64
	n := 0
	for i := range raw {
		raw[i] = h.buckets[i].Load()
		if raw[i] != 0 {
			n = i + 1
		}
	}
	return quantileFrom(h.count.Load(), raw[:n], q)
}

// Snapshot captures the histogram's current state. Trailing empty buckets
// are trimmed so snapshots of lightly used histograms stay compact; the
// trim is stable under Merge (sums of trimmed snapshots trim identically).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	var raw [HistBuckets]uint64
	last := -1
	for i := range raw {
		raw[i] = h.buckets[i].Load()
		if raw[i] != 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = append([]uint64(nil), raw[:last+1]...)
	}
	return s
}

// HistogramSnapshot is the frozen form of a Histogram. BucketBound gives
// each bucket's inclusive upper bound.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// BucketBound returns bucket i's inclusive upper value bound: 0 for bucket
// 0, 2^i − 1 otherwise.
func BucketBound(i int) uint64 {
	if i == 0 {
		return 0
	}
	return 1<<uint(i) - 1
}

// Quantile estimates the q-th quantile (0 < q <= 1) of the observed
// distribution: the target rank is located in the cumulative bucket
// counts, then interpolated linearly within the bucket's [2^(i-1), 2^i)
// value range. Power-of-two buckets bound the estimate within 2x of the
// true value — adequate for the p50/p99/p999 latency reporting it exists
// for. Returns 0 when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	return quantileFrom(s.Count, s.Buckets, q)
}

// quantileFrom is the shared quantile core behind HistogramSnapshot.Quantile
// and the live, allocation-free Histogram.Quantile.
func quantileFrom(count uint64, buckets []uint64, q float64) uint64 {
	if count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(count)
	var cum float64
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			if i == 0 {
				return 0
			}
			lo := uint64(1) << uint(i-1)
			hi := uint64(1) << uint(i)
			frac := (rank - cum) / float64(n)
			return lo + uint64(frac*float64(hi-lo))
		}
		cum = next
	}
	// Rank beyond the trimmed buckets (floating-point slack): the maximum.
	if n := len(buckets); n > 1 {
		return uint64(1) << uint(n-1)
	}
	return 0
}

// Mean returns the average observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Merge accumulates o into s bucket-wise.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if len(o.Buckets) > len(s.Buckets) {
		grown := make([]uint64, len(o.Buckets))
		copy(grown, s.Buckets)
		s.Buckets = grown
	}
	for i, v := range o.Buckets {
		s.Buckets[i] += v
	}
}

// Event is one hierarchy event delivered to hook subscribers: the emitting
// layer, the event name, the affected block address, and an event-specific
// value (e.g. corrected-segment count).
type Event struct {
	Layer string
	Name  string
	Addr  uint64
	Value uint64
}

// Hooks is an optional event-subscriber list. Layers hold a *Hooks that is
// nil until the first subscriber attaches, so the unsubscribed fast path
// is a single nil check with no allocation. Emit never allocates: Event is
// passed by value.
//
// Subscribers run synchronously on the emitting goroutine (possibly under
// a shard lock) and must be fast and concurrency-safe.
type Hooks struct {
	mu  sync.Mutex
	fns atomic.Value // []func(Event)
}

// Attach registers a subscriber.
func (h *Hooks) Attach(fn func(Event)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cur []func(Event)
	if v := h.fns.Load(); v != nil {
		cur = v.([]func(Event))
	}
	next := make([]func(Event), len(cur)+1)
	copy(next, cur)
	next[len(cur)] = fn
	h.fns.Store(next)
}

// Emit delivers e to every subscriber. Safe on a nil receiver.
func (h *Hooks) Emit(e Event) {
	if h == nil {
		return
	}
	v := h.fns.Load()
	if v == nil {
		return
	}
	for _, fn := range v.([]func(Event)) {
		fn(e)
	}
}
