package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cop/internal/cli"
	"cop/internal/copnet"
	"cop/internal/memctrl"
	"cop/internal/telemetry"
)

// layerMetrics are the per-layer metrics of the traced ladder run.
var layerMetrics = []metricDef{
	{"copnet.cpu_ns_per_op", "ns"},
	{"copnet.wire_bytes_per_op", "B"},
	{"copnet.server_frame_us_p50", "us"},
	{"copnet.server_window_us_p50", "us"},
	{"shard.cpu_ns_per_op", "ns"},
	{"shard.window_us_p50", "us"},
	{"shard.ops_per_batch", "count"},
	{"memctrl.cpu_ns_per_op", "ns"},
	{"memctrl.read_ns_p50", "ns"},
	{"memctrl.write_ns_p50", "ns"},
	{"memctrl.fills_per_op", "count"},
	{"memctrl.writebacks_per_op", "count"},
	{"cache.hit_frac", "ratio"},
	{"eccregion.reads_per_op", "count"},
	{"eccregion.allocs_per_op", "count"},
	{"eccregion.blocks_used", "count"},
	{"core.encode_ns", "ns"},
	{"core.decode_ns", "ns"},
	{"core.count_valid_ns", "ns"},
	{"compress.compress_ns", "ns"},
	{"compress.decompress_ns", "ns"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_per_mop", "count"},
	{"trace.overhead_frac", "ratio"},
	{"bench.harness_cpu_ns_per_op", "ns"},
}

const (
	// ladderShare is the untraced served run's share of the ladder's time
	// budget; the other rungs replay the frames it completed and take what
	// they take.
	ladderShare = 0.3
	// ladderChunks is how many pieces each rung's replay is cut into; a
	// rung's CPU per op is the median over its chunks, so a burst of
	// interference on a shared machine moves one chunk, not the figure.
	ladderChunks = 8
)

// rung is one measured replay at one layer.
type rung struct {
	ops       uint64
	wall, cpu time.Duration
}

func (r rung) cpuNsPerOp() float64 { return ratio(float64(r.cpu), float64(r.ops)) }
func (r rung) opsPerS() float64    { return ratio(float64(r.ops), r.wall.Seconds()) }

func (r *rung) add(o rung) {
	r.ops += o.ops
	r.wall += o.wall
	r.cpu += o.cpu
}

// measureRung runs fn and charges the ops the workers completed in it.
func measureRung(ws []*worker, fn func()) rung {
	ops0, t0, c0 := doneOps(ws), time.Now(), cpuTime()
	fn()
	return rung{ops: doneOps(ws) - ops0, wall: time.Since(t0), cpu: cpuTime() - c0}
}

// ladderRung is one layer's replay: its workers (sharing a model of the
// data of their own), their layers, and what each chunk cost.
type ladderRung struct {
	ws     []*worker
	xs     []layer
	chunks []float64 // CPU ns per op of each chunk
	total  rung
}

// newLadderRung builds a rung of n workers over layers from mk, preloads
// the footprint through them, lets flush write it all back, and warms the
// LLC with warm frames per worker.
func newLadderRung(cfg runConfig, n int, mk func(m *model) layer, flush func() error, warm uint64) (*ladderRung, error) {
	m, err := newModel(cfg.w, cfg.seed)
	if err != nil {
		return nil, err
	}
	r := &ladderRung{ws: newWorkers(cfg.w, cfg.seed, m, n), xs: make([]layer, n)}
	for i := range r.xs {
		r.xs[i] = mk(m)
	}
	parallel(r.ws, func(w *worker) { w.preload(r.xs[w.id]) })
	if err := flush(); err != nil {
		return nil, fmt.Errorf("flush after preload: %w", err)
	}
	parallel(r.ws, func(w *worker) { replayFrames(w, r.xs[w.id], warm) })
	return r, nil
}

// measure replays frames in ladderChunks chunks, recording each chunk's
// CPU per op.
func (r *ladderRung) measure(frames []uint64) {
	for k := uint64(0); k < ladderChunks; k++ {
		chunk := make([]uint64, len(frames))
		for w, f := range frames {
			chunk[w] = f*(k+1)/ladderChunks - f*k/ladderChunks
		}
		c := measureRung(r.ws, func() {
			parallel(r.ws, func(w *worker) { replayFrames(w, r.xs[w.id], chunk[w.id]) })
		})
		r.chunks = append(r.chunks, c.cpuNsPerOp())
		r.total.add(c)
	}
}

// cpuNsPerOp is the median of the rung's chunks.
func (r *ladderRung) cpuNsPerOp() float64 { return median(r.chunks) }

type ladderResult struct {
	attempted, failed uint64
	problems          []string
	vals              map[string]float64
}

func (lr *ladderResult) result() result {
	return result{Attempted: lr.attempted, Failed: lr.failed, Metrics: collect(layerMetrics, lr.vals)}
}

func (lr *ladderResult) tally(ws []*worker) {
	a, f, mm := totals(ws)
	lr.attempted += a
	lr.failed += f + mm
}

// runLadder is the traced run. An untraced served run goes closed-loop for
// part of the budget and yields the served counters and the frames each
// worker completed. Four rungs then replay exactly those frames, one after
// another, each from its own fresh preload and the same warm-up: the full
// copnet client path (with spans around every client call), the tenant's
// shard.Batched front-end in process, direct memctrl.Controller calls, and
// the harness alone. Adjacent rungs differ only in the layer between them.
func runLadder(cfg runConfig, traceDir string, log io.Writer) (*ladderResult, error) {
	lr := &ladderResult{vals: map[string]float64{}}
	scheme, err := cli.SingleScheme(cfg.w.Scheme)
	if err != nil {
		return nil, err
	}
	frames, llc, e2e, err := lr.servedRun(cfg)
	if err != nil {
		return nil, err
	}
	n := len(frames)
	warm := warmFrames(llc.lines, n)
	epoch := time.Now()
	newLogs := func() []*spanLog {
		logs := make([]*spanLog, n)
		for i := range logs {
			logs[i] = newSpanLog(epoch, i+1)
		}
		return logs
	}

	// copnet: a fresh served tenant, spans around every client call.
	runtime.GC()
	svc, err := startService(cfg.w.Scheme)
	if err != nil {
		return nil, err
	}
	served, err := newLadderRung(cfg, n, func(*model) layer { return newClientLayer(svc.client) },
		svc.client.Flush, warm)
	if err != nil {
		svc.close()
		return nil, err
	}
	copnetLogs := newLogs()
	for _, w := range served.ws {
		w.spans = copnetLogs[w.id]
	}
	served.measure(frames)
	svc.close()
	lr.tally(served.ws)

	// shard: the tenant's own batched front-end, one group window per frame.
	runtime.GC()
	b, err := copnet.TenantConfig{Scheme: cfg.w.Scheme}.Open()
	if err != nil {
		return nil, err
	}
	sharded, err := newLadderRung(cfg, n, func(*model) layer { return newShardLayer(b, nil) }, b.Flush, warm)
	if err != nil {
		b.Close()
		return nil, err
	}
	shardLogs := newLogs()
	for i, x := range sharded.xs {
		x.(*shardLayer).spans = shardLogs[i]
	}
	sharded.measure(frames)
	b.Close()
	lr.tally(sharded.ws)

	// memctrl: one controller per tenant shard, called directly.
	runtime.GC()
	cs := newControllers(scheme.Mode, llc)
	var memMu sync.Mutex
	mem, err := newLadderRung(cfg, n, func(*model) layer { return newMemctrlLayer(cs, &memMu, nil) }, flushAll(cs), warm)
	if err != nil {
		return nil, err
	}
	memBefore := snapshotAll(cs)
	mem.measure(frames)
	memCounts := diff(memBefore, snapshotAll(cs))
	lr.tally(mem.ws)

	// harness: the op stream and shadow model with no layer at all.
	runtime.GC()
	harness, err := newLadderRung(cfg, n, func(m *model) layer {
		return &nullLayer{m: m, got: make([]byte, windowOps*blockBytes)}
	}, func() error { return nil }, warm)
	if err != nil {
		return nil, err
	}
	harness.measure(frames)
	lr.tally(harness.ws)

	lr.vals["copnet.cpu_ns_per_op"] = served.cpuNsPerOp() - sharded.cpuNsPerOp()
	lr.vals["shard.cpu_ns_per_op"] = sharded.cpuNsPerOp() - mem.cpuNsPerOp()
	lr.vals["memctrl.cpu_ns_per_op"] = mem.cpuNsPerOp() - harness.cpuNsPerOp()
	lr.vals["bench.harness_cpu_ns_per_op"] = harness.cpuNsPerOp()
	lr.vals["trace.overhead_frac"] = 1 - served.total.opsPerS()/e2e.opsPerS()
	lr.vals["shard.window_us_p50"] = spanP50(shardLogs, spanShardWindow) / 1e3

	// The memctrl rung models the tenant's silicon op for op, so it must do
	// the same layer work per op as the served run on the same data; only
	// the row-order scheduling inside shard batches differs.
	memOps := float64(mem.total.ops)
	for _, c := range []struct {
		name           string
		served, replay float64
	}{
		{"memctrl.fills_per_op", lr.vals["memctrl.fills_per_op"], float64(memCounts.fills) / memOps},
		{"memctrl.writebacks_per_op", lr.vals["memctrl.writebacks_per_op"], float64(memCounts.writebacks) / memOps},
	} {
		if math.Abs(c.served-c.replay) > fillTolerance*math.Max(c.served, c.replay)+fillSlack {
			lr.problems = append(lr.problems, fmt.Sprintf("%s: served run %.4f, memctrl rung %.4f", c.name, c.served, c.replay))
		}
	}
	fmt.Fprintf(log, "perfbench: ladder cpu ns/op over %d ops per rung: e2e=%.0f traced-e2e=%.0f shard=%.0f memctrl=%.0f harness=%.0f\n",
		e2e.ops, e2e.cpuNsPerOp(), served.cpuNsPerOp(), sharded.cpuNsPerOp(),
		mem.cpuNsPerOp(), harness.cpuNsPerOp())

	// memctrl again, from scratch, timing every call.
	runtime.GC()
	cs = newControllers(scheme.Mode, llc)
	var tracedMu sync.Mutex
	traced, err := newLadderRung(cfg, n, func(*model) layer { return newMemctrlLayer(cs, &tracedMu, nil) }, flushAll(cs), warm)
	if err != nil {
		return nil, err
	}
	memLogs := newLogs()
	for i, x := range traced.xs {
		x.(*memctrlLayer).spans = memLogs[i]
	}
	traced.measure(frames)
	lr.tally(traced.ws)
	lr.vals["memctrl.read_ns_p50"] = spanP50(memLogs, spanMemctrlRead)
	lr.vals["memctrl.write_ns_p50"] = spanP50(memLogs, spanMemctrlWrite)

	ct, err := codecTimes(traced.ws[0].m, cfg.seed)
	if err != nil {
		return nil, err
	}
	for k, v := range ct {
		lr.vals[k] = v
	}

	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", cfg.w.Name, cfg.seed))
	err = writeChromeTrace(path, []string{"copnet", "shard", "memctrl"},
		[][]*spanLog{copnetLogs, shardLogs, memLogs}, 2000)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(log, "perfbench: spans written to %s\n", path)
	return lr, nil
}

// servedRun is the ladder's untraced served run: closed-loop for the
// ladder's share of the budget. It records the served counters and
// returns the frames each worker completed, the tenant's LLC geometry and
// the e2e rung.
func (lr *ladderResult) servedRun(cfg runConfig) ([]uint64, llcGeometry, rung, error) {
	m, err := newModel(cfg.w, cfg.seed)
	if err != nil {
		return nil, llcGeometry{}, rung{}, err
	}
	svc, ws, xs, err := setUp(cfg, m)
	if err != nil {
		return nil, llcGeometry{}, rung{}, err
	}
	defer svc.close()
	before, err := svc.snapshot()
	if err != nil {
		return nil, llcGeometry{}, rung{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sl := timedLoop(ws, time.Duration(float64(cfg.duration)*ladderShare),
		func(w *worker) layer { return xs[w.id] })
	runtime.ReadMemStats(&ms1)
	after, err := svc.snapshot()
	if err != nil {
		return nil, llcGeometry{}, rung{}, err
	}
	lr.tally(ws)

	var sent uint64
	for _, x := range xs {
		sent += x.sent
	}
	if after.Net.Ops != sent {
		lr.problems = append(lr.problems, fmt.Sprintf("client sent %d ops, server counted %d", sent, after.Net.Ops))
	}
	if err := svc.checkTransport(); err != nil {
		lr.problems = append(lr.problems, err.Error())
	}

	d := diff(before, after)
	ops := float64(sl.ops)
	lr.vals["copnet.wire_bytes_per_op"] = float64(d.netBytes) / ops
	lr.vals["copnet.server_frame_us_p50"] = float64(d.frame.Quantile(0.5)) / 1e3
	lr.vals["copnet.server_window_us_p50"] = float64(d.window.Quantile(0.5)) / 1e3
	lr.vals["shard.ops_per_batch"] = ratio(float64(d.enqueued), float64(d.batches))
	lr.vals["memctrl.fills_per_op"] = float64(d.fills) / ops
	lr.vals["memctrl.writebacks_per_op"] = float64(d.writebacks) / ops
	lr.vals["cache.hit_frac"] = ratio(float64(d.hits), float64(d.hits+d.misses))
	lr.vals["eccregion.reads_per_op"] = float64(d.regionReads) / ops
	lr.vals["eccregion.allocs_per_op"] = float64(d.regionAllocs) / ops
	lr.vals["eccregion.blocks_used"] = float64(d.regionBlocks)
	lr.vals["runtime.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops
	lr.vals["runtime.gc_per_mop"] = float64(ms1.NumGC-ms0.NumGC) / ops * 1e6
	return sl.frames, svc.llc, rung{ops: sl.ops, wall: sl.wall, cpu: sl.cpu}, nil
}

// fillTolerance and fillSlack bound how far the memctrl rung's fills and
// writebacks per op may stray from the served run's: shard workers reorder
// a window's ops by DRAM row, which shifts a few LRU decisions but not the
// rates.
const (
	fillTolerance = 0.02
	fillSlack     = 0.002
)

// newControllers builds one controller per tenant shard, each with the
// shard's share of the LLC.
func newControllers(mode memctrl.Mode, llc llcGeometry) []*memctrl.Controller {
	cs := make([]*memctrl.Controller, llc.shards)
	for i := range cs {
		cs[i] = memctrl.New(memctrl.Config{Mode: mode,
			LLCBytes: llc.lines * blockBytes / llc.shards, LLCWays: llc.ways})
	}
	return cs
}

func flushAll(cs []*memctrl.Controller) func() error {
	return func() error {
		for _, c := range cs {
			if err := c.Flush(); err != nil {
				return err
			}
		}
		return nil
	}
}

func snapshotAll(cs []*memctrl.Controller) telemetry.Snapshot {
	snap := cs[0].Snapshot()
	for _, c := range cs[1:] {
		snap.Merge(c.Snapshot())
	}
	return snap
}

func replayFrames(w *worker, x layer, n uint64) {
	for i := uint64(0); i < n; i++ {
		w.frame(x)
	}
}

// counters is the change in a tenant's telemetry over an interval.
type counters struct {
	fills, writebacks, hits, misses uint64
	regionReads, regionAllocs       uint64
	regionBlocks                    uint64 // gauge: value at the end
	enqueued, batches               uint64
	netBytes                        uint64
	frame, window                   telemetry.HistogramSnapshot
}

func diff(a, b telemetry.Snapshot) counters {
	d := counters{
		fills:      b.Controller.Fills - a.Controller.Fills,
		writebacks: b.Controller.Writebacks - a.Controller.Writebacks,
		hits:       b.Cache.Hits - a.Cache.Hits,
		misses:     b.Cache.Misses - a.Cache.Misses,
	}
	if a.Region != nil && b.Region != nil {
		d.regionReads = b.Region.Reads - a.Region.Reads
		d.regionAllocs = b.Region.Allocs - a.Region.Allocs
		d.regionBlocks = b.Region.BlocksUsed
	}
	if a.Batch != nil && b.Batch != nil {
		d.enqueued = b.Batch.Enqueued - a.Batch.Enqueued
		d.batches = b.Batch.Batches - a.Batch.Batches
	}
	if a.Net != nil && b.Net != nil {
		d.netBytes = (b.Net.BytesIn + b.Net.BytesOut) - (a.Net.BytesIn + a.Net.BytesOut)
	}
	if a.Serve != nil && b.Serve != nil {
		d.frame = histDiff(a.Serve.Frame, b.Serve.Frame)
		d.window = histDiff(stage(a.Serve, "window"), stage(b.Serve, "window"))
	}
	return d
}

func stage(s *telemetry.ServeStats, name string) telemetry.HistogramSnapshot {
	for _, nh := range s.Stages {
		if nh.Name == name {
			return nh.Nanos
		}
	}
	return telemetry.HistogramSnapshot{}
}

// histDiff is the histogram of the observations b holds beyond a.
func histDiff(a, b telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	d := telemetry.HistogramSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum,
		Buckets: make([]uint64, len(b.Buckets))}
	for i, v := range b.Buckets {
		d.Buckets[i] = v
		if i < len(a.Buckets) {
			d.Buckets[i] -= a.Buckets[i]
		}
	}
	return d
}
