package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Fixed shape of every run.
const (
	// setupRuns is how many times a served run sets up; setup_s is their
	// median and the last set-up is the one measured.
	setupRuns = 5
	// sliceLen is the sampling period of a timed interval: throughput and
	// CPU per op are medians over slices, so a burst of interference on
	// the shared machine moves one slice, not the run's figure.
	sliceLen = 500 * time.Millisecond
)

// procs is the benchmark's GOMAXPROCS. With the client and server in one
// process on two shared vCPUs, a second P spends the closed loop's idle
// moments parking and waking threads across vCPUs, and how long a wake
// takes depends on the host's load: throughput then swings with the
// neighbours far more than the program's own CPU cost does. One P hands
// frames between client and server goroutines without a cross-CPU wake,
// so the run measures the program, and the tenant's default shard count
// follows it to 1.
const procs = 1

// clientWorkers is the closed-loop client count: two, never more than
// the machine has CPUs.
func clientWorkers() int { return min(2, runtime.NumCPU()) }

// runConfig is one benchmark run. The command line fills it from a named
// workload; tests shrink it.
type runConfig struct {
	w        Workload
	seed     uint64
	duration time.Duration // timed interval (served run) or ladder budget
	// flipKey, when non-negative, makes the served run flush after the
	// timed interval and flip one stored bit of that key through
	// Client.InjectBitFlip before the read-back sweep: the check that the
	// oracle catches a silent corruption.
	flipKey int
}

// e2eResult is what a served run measured.
type e2eResult struct {
	attempted, failed, mismatches uint64
	problems                      []string // failed consistency checks

	setupS, throughput, cpuNsPerOp float64
	// Frame round trips: every sample's median, p95 and p99, and how many
	// samples lie beyond the p99.
	frameP50us, frameP95us, frameP99us float64
	frames, beyondP99                  int
	compressedFrac, regionFrac         float64
	heapMiB                            float64
}

func (r *e2eResult) tally(ws []*worker) {
	a, f, mm := totals(ws)
	r.attempted += a
	r.failed += f
	r.mismatches += mm
}

// setUp starts the served stack, preloads the whole footprint, flushes it
// to DRAM and warms the LLC with the workload's own op stream: two LLC's
// worth of ops, enough to turn every line over.
func setUp(cfg runConfig, m *model) (*service, []*worker, []*clientLayer, error) {
	svc, err := startService(cfg.w.Scheme)
	if err != nil {
		return nil, nil, nil, err
	}
	ws := newWorkers(cfg.w, cfg.seed, m, clientWorkers())
	xs := make([]*clientLayer, len(ws))
	for i := range xs {
		xs[i] = newClientLayer(svc.client)
	}
	parallel(ws, func(w *worker) { w.preload(xs[w.id]) })
	if err := xs[0].flush(); err != nil {
		svc.close()
		return nil, nil, nil, fmt.Errorf("flush after preload: %w", err)
	}
	warm := warmFrames(svc.llc.lines, len(ws))
	parallel(ws, func(w *worker) { replayFrames(w, xs[w.id], warm) })
	return svc, ws, xs, nil
}

// warmFrames is how many frames each worker runs to warm an LLC of
// llcLines lines.
func warmFrames(llcLines, workers int) uint64 {
	return uint64((2*llcLines + windowOps*workers - 1) / (windowOps * workers))
}

// runServed is the end-to-end run: set up setupRuns times (timing each),
// then drive the last set-up closed-loop for cfg.duration, read every key
// back, and collect the tenant's counters after a final flush.
func runServed(cfg runConfig) (*e2eResult, error) {
	res := &e2eResult{}
	var setupTimes []time.Duration
	var (
		svc *service
		ws  []*worker
		xs  []*clientLayer
	)
	for i := 0; i < setupRuns; i++ {
		if svc != nil {
			res.tally(ws)
			svc.close()
			svc = nil
			runtime.GC()
		}
		m, err := newModel(cfg.w, cfg.seed)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		svc, ws, xs, err = setUp(cfg, m)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0))
	}
	defer svc.close()
	res.setupS = medianDur(setupTimes)
	// The region only grows, so its size after the timed interval would
	// rise with however many ops the interval fit; after set-up it rests
	// on a fixed op count: the whole footprint stored once, plus warm-up.
	snap, err := svc.snapshot()
	if err != nil {
		return nil, err
	}
	if snap.Region != nil {
		res.regionFrac = float64(snap.Region.BlocksUsed) / float64(cfg.w.Blocks)
	}

	sl := timedLoop(ws, cfg.duration, func(w *worker) layer { return xs[w.id] })
	res.throughput = median(sl.opsPerS)
	res.cpuNsPerOp = median(sl.cpuNsPerOp)
	rtts := sl.rtts
	res.frames = len(rtts)
	p50, _, err := percentile(rtts, 0.50)
	if err != nil {
		return nil, err
	}
	p95, _, err := percentile(rtts, 0.95)
	if err != nil {
		return nil, err
	}
	p99, beyond99, err := percentile(rtts, 0.99)
	if err != nil {
		return nil, err
	}
	res.frameP50us, res.frameP95us, res.frameP99us = float64(p50)/1e3, float64(p95)/1e3, float64(p99)/1e3
	res.beyondP99 = beyond99

	if cfg.flipKey >= 0 {
		if err := xs[0].flush(); err != nil {
			return nil, fmt.Errorf("flush before injection: %w", err)
		}
		xs[0].sent++ // the injection rides a one-op frame
		if !svc.client.InjectBitFlip(keyAddr(uint32(cfg.flipKey)), 7) {
			return nil, fmt.Errorf("bit flip on key %d did not land", cfg.flipKey)
		}
	}
	parallel(ws, func(w *worker) { w.sweep(xs[w.id]) })
	if err := xs[0].flush(); err != nil {
		res.problems = append(res.problems, fmt.Sprintf("final flush: %v", err))
	}

	if snap, err = svc.snapshot(); err != nil {
		return nil, err
	}
	res.compressedFrac = snap.Derived.CompressedFraction
	var sent uint64
	for _, x := range xs {
		sent += x.sent
	}
	if snap.Net.Ops != sent {
		res.problems = append(res.problems,
			fmt.Sprintf("client sent %d ops, server counted %d", sent, snap.Net.Ops))
	}
	if err := svc.checkTransport(); err != nil {
		res.problems = append(res.problems, err.Error())
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapMiB = float64(ms.HeapInuse) / (1 << 20)
	res.tally(ws)
	return res, nil
}

// sliced is what a timed closed-loop interval recorded.
type sliced struct {
	opsPerS, cpuNsPerOp []float64 // one entry per slice
	rtts                []int64   // every frame round trip, sorted
	frames              []uint64  // frames completed per worker
	ops                 uint64
	wall, cpu           time.Duration
}

// timedLoop runs every worker closed-loop (one frame in flight each) for
// d, sampling completed ops and process CPU every sliceLen.
func timedLoop(ws []*worker, d time.Duration, layerOf func(*worker) layer) sliced {
	var stop atomic.Bool
	var wg sync.WaitGroup
	frames0 := make([]uint64, len(ws))
	for i, w := range ws {
		w.record, w.rtts = true, w.rtts[:0]
		frames0[i] = w.frames
	}
	t0, ops0, cpu0 := time.Now(), doneOps(ws), cpuTime()
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			x := layerOf(w)
			for !stop.Load() {
				w.frame(x)
			}
		}(w)
	}
	var out sliced
	prevT, prevOps, prevCPU := t0, ops0, cpu0
	for next := t0.Add(sliceLen); ; next = next.Add(sliceLen) {
		time.Sleep(time.Until(next))
		t, ops, cpu := time.Now(), doneOps(ws), cpuTime()
		if ops > prevOps {
			out.opsPerS = append(out.opsPerS, float64(ops-prevOps)/t.Sub(prevT).Seconds())
			out.cpuNsPerOp = append(out.cpuNsPerOp, float64(cpu-prevCPU)/float64(ops-prevOps))
		}
		prevT, prevOps, prevCPU = t, ops, cpu
		if t.Sub(t0) >= d {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	out.wall, out.ops, out.cpu = time.Since(t0), doneOps(ws)-ops0, cpuTime()-cpu0
	for i, w := range ws {
		w.record = false
		out.rtts = append(out.rtts, w.rtts...)
		out.frames = append(out.frames, w.frames-frames0[i])
	}
	slices.Sort(out.rtts)
	return out
}
