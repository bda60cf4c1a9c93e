// Command copload is the closed-loop load harness for copserve: N
// concurrent workers drive a skewed get/set/delete/increment mix at a
// protected-memory tenant over the network, each op window riding one
// batch frame (one HTTP request → one server-side group window). Every
// get is verified against a client-side shadow oracle — a mismatch is a
// silent corruption that escaped the whole stack — and per-request
// latency lands in a power-of-two histogram reported as p50/p99/p999.
//
// Soak mode layers a seeded fault-injection campaign (internal/faultsim)
// over the same tenant through the same network client while traffic
// flows: settle, inject, read, classify — end to end over the wire. The
// run fails unless both the campaign and the traffic oracle report zero
// silent corruptions.
//
// Usage:
//
//	copload -target https://127.0.0.1:7070 -ca cop.pem -duration 10s
//	copload -workers 8 -qps 50000 -mix 70/20/5/5 -workload lbm
//	copload -soak -soak-faults 500 -duration 5s     # traffic + fault campaign
//	copload -duration 2s                            # no -target: self-served in-process
//	copload -duration 2s -json > report.json        # machine-readable report
//	copload -duration 2s -trace-out merged.json     # one Perfetto timeline, client+server
//
// The load footprint sits above the campaign footprint (disjoint address
// ranges on the shared tenant), so the two oracles never alias.
//
// The shadow oracle starts empty — it expects zeros from keys it has not
// written — so repeat runs against a persistent server need their own
// namespace (-tenant NAME -create) rather than rereading a previous
// run's data.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cop/internal/cli"
	"cop/internal/copnet"
	"cop/internal/faultsim"
	"cop/internal/reliability"
	"cop/internal/telemetry"
	"cop/internal/trace"
	"cop/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "copload:", err)
		os.Exit(1)
	}
}

// loadBase is the first block address the load workers touch: far above
// any fault-campaign footprint (faultsim clips structural blast radii to
// its own footprint), so traffic keys and injected blocks never alias.
const loadBase = uint64(1) << 26 // 64 MiB

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("copload", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		target     = fs.String("target", "", "copserve base URL (empty: self-serve an in-process loopback server)")
		tenant     = fs.String("tenant", "default", "namespace to drive")
		caPath     = fs.String("ca", "", "PEM certificate to pin (copserve -tls-cert-out output)")
		insecure   = fs.Bool("insecure", false, "skip TLS certificate verification")
		create     = fs.Bool("create", false, "create the tenant first (admin PUT with the memory flags)")
		soak       = fs.Bool("soak", false, "run a seeded fault campaign over the same tenant while traffic flows; fail on any silent corruption")
		soakFaults = fs.Int("soak-faults", 400, "fault events the soak campaign injects")
		soakBlocks = fs.Int("soak-blocks", 2048, "soak campaign footprint in blocks (disjoint from traffic keys)")
		jsonOut    = fs.Bool("json", false, "write a machine-readable JSON report to stdout (progress and verdict go to stderr)")
		traceOut   = fs.String("trace-out", "", "record the run and write one merged client+server execution trace (Chrome JSON, open in Perfetto) here")
		load       = cli.AddLoadFlags(fs)
		mem        = cli.AddMemoryFlags(fs, "cop-er")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// With -json the only stdout bytes are the report object; everything
	// human-facing moves to stderr so `copload -json | jq` just works.
	msg := stdout
	if *jsonOut {
		msg = os.Stderr
	}
	if *load.Duration == 0 && *load.Ops == 0 {
		return fmt.Errorf("unbounded run: set -duration or -ops (or interrupt with ^C)")
	}
	mix, err := cli.ParseMix(*load.Mix)
	if err != nil {
		return err
	}
	prof, err := workload.Get(*load.Workload)
	if err != nil {
		return err
	}

	tcfg := copnet.TenantConfig{
		Scheme:   *mem.Scheme,
		Shards:   *mem.Shards,
		RingSize: *mem.Ring,
		BatchMax: *mem.Batch,
		LLCBytes: *mem.LLCBytes,
		LLCWays:  *mem.LLCWays,
	}

	// -trace-out: one flight recorder for the whole run. Self-serve shares
	// it between client and server (records land in one ring, inherently
	// merged); against a remote target the client records locally and the
	// server's rings are fetched and clock-aligned afterwards.
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(trace.Config{})
	}

	base := *target
	if base == "" {
		// Self-serve: a real loopback listener, not a stubbed transport —
		// the bytes still cross a socket.
		var srvOpts []copnet.ServerOption
		if tracer != nil {
			srvOpts = append(srvOpts, copnet.WithServerTracer(tracer))
		}
		srv := copnet.NewServer(srvOpts...)
		if _, err := srv.CreateTenant(*tenant, tcfg); err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv.Handler(), Protocols: new(http.Protocols)}
		hs.Protocols.SetUnencryptedHTTP2(true) // what Dial speaks to http:// bases
		go func() { _ = hs.Serve(ln) }()
		defer func() { _ = hs.Close(); _ = srv.Close() }()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(msg, "copload: self-serving %s (tenant %q, scheme %s)\n", base, *tenant, *mem.Scheme)
	}

	var copts []copnet.ClientOption
	copts = append(copts, copnet.WithTenant(*tenant))
	if tracer != nil {
		copts = append(copts, copnet.WithClientTracer(tracer))
	}
	if *caPath != "" {
		pem, err := os.ReadFile(*caPath)
		if err != nil {
			return err
		}
		copts = append(copts, copnet.WithServerCert(pem))
	} else if *insecure {
		copts = append(copts, copnet.WithInsecureTLS())
	}
	c, err := copnet.Dial(base, copts...)
	if err != nil {
		return err
	}
	defer c.Close()
	if *create && *target != "" {
		if err := c.CreateTenant(*tenant, tcfg); err != nil {
			return fmt.Errorf("create tenant: %w", err)
		}
	}
	if !c.Ready() {
		return fmt.Errorf("target %s not ready (is copserve up? TLS: -ca or -insecure)", base)
	}

	fmt.Fprintf(msg, "copload: target=%s tenant=%s workers=%d window=%d pipeline=%d keys=%d mix=%s workload=%s seed=%#x\n",
		base, *tenant, *load.Workers, *load.Window, *load.Pipeline, *load.Keys, *load.Mix, prof.Name, *load.Seed)

	if tracer != nil {
		if *target != "" {
			if err := c.TraceStart(); err != nil {
				fmt.Fprintf(msg, "copload: server tracing unavailable (%v) — writing a client-only trace\n", err)
			}
		}
		tracer.Start()
	}

	// Soak campaign: its own client on the same tenant, every settle /
	// inject / classify read crossing the wire, concurrent with traffic.
	var soakRes *faultsim.Result
	var soakErr error
	var soakWG sync.WaitGroup
	if *soak {
		sc, err := copnet.Dial(base, copts...)
		if err != nil {
			return err
		}
		defer sc.Close()
		scheme, err := cli.SingleScheme(*mem.Scheme)
		if err != nil {
			return err
		}
		fmt.Fprintf(msg, "copload: soak campaign: %d faults over %d blocks (concurrent with traffic)\n",
			*soakFaults, *soakBlocks)
		soakWG.Add(1)
		go func() {
			defer soakWG.Done()
			soakRes, soakErr = faultsim.Run(faultsim.Config{
				Mode:       scheme.Mode,
				Seed:       *load.Seed ^ 0x50AC,
				Blocks:     *soakBlocks,
				Injections: *soakFaults,
				Workload:   prof.Name,
				Memory:     sc,
				// Single-bit faults only: that is the correction boundary
				// SECDED (and hence COP, §4) guarantees, so zero silent
				// corruptions is an assertable invariant. Multi-bit modes
				// alias past SECDED by design and would fail any scheme.
				Modes: []reliability.FailureMode{reliability.SingleBit},
			})
		}()
	}

	r := newRunner(c, prof, runnerConfig{
		workers:  *load.Workers,
		window:   *load.Window,
		keys:     *load.Keys,
		qps:      *load.QPS,
		ops:      *load.Ops,
		pipeline: *load.Pipeline,
		mix:      mix,
		seed:     *load.Seed,
	})

	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-interrupted:
			halt()
		case <-stop:
		}
	}()
	if *load.Duration > 0 {
		go func() {
			t := time.NewTimer(*load.Duration)
			defer t.Stop()
			select {
			case <-t.C:
				halt()
			case <-stop:
			}
		}()
	}

	start := time.Now()
	runErr := r.run(stop)
	elapsed := time.Since(start)
	soakWG.Wait()
	signal.Stop(interrupted)

	if tracer != nil {
		if err := writeMergedTrace(msg, c, tracer, *target != "", *traceOut); err != nil {
			return err
		}
	}

	report(msg, r, elapsed, soakRes)
	if *jsonOut {
		if err := writeJSONReport(stdout, r, elapsed, base, *tenant, c.Snapshot(), soakRes); err != nil {
			return err
		}
	}

	if runErr != nil {
		return runErr
	}
	if soakErr != nil {
		return fmt.Errorf("soak campaign: %w", soakErr)
	}
	return verdict(msg, r, soakRes)
}

// writeMergedTrace stops recording, joins the server's rings to the local
// client records (one shared tracer when self-serving; fetch + clock-align
// when remote), and writes a single Chrome-JSON timeline for Perfetto.
func writeMergedTrace(msg io.Writer, c *copnet.Client, tracer *trace.Tracer, remote bool, path string) error {
	tracer.Stop()
	recs := tracer.Snapshot()
	if remote {
		_ = c.TraceStop()
		if d, err := c.TraceDump(); err == nil {
			recs = trace.MergeAligned(d.Records, recs)
		} else {
			fmt.Fprintf(msg, "copload: fetching server trace: %v — writing a client-only trace\n", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := trace.ExportChromeJSON(f, recs)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing %s: %w", path, werr)
	}
	fmt.Fprintf(msg, "copload: merged trace: %d records -> %s (open in Perfetto)\n", len(recs), path)
	return nil
}

// verdict enforces the zero-silent-corruption acceptance: traffic oracle
// mismatches and campaign silents both fail the run.
func verdict(stdout io.Writer, r *runner, soakRes *faultsim.Result) error {
	mismatches := r.mismatches.Load()
	var silent, alias, bg int
	if soakRes != nil {
		silent = soakRes.Outcomes(faultsim.Silent)
		alias = soakRes.Outcomes(faultsim.FalseAlias)
		bg = soakRes.BackgroundMismatches
	}
	if mismatches == 0 && silent == 0 && alias == 0 && bg == 0 {
		fmt.Fprintln(stdout, "copload: PASS — zero silent corruptions end to end")
		return nil
	}
	return fmt.Errorf("SILENT CORRUPTION: traffic mismatches=%d campaign silent=%d false-alias=%d background=%d",
		mismatches, silent, alias, bg)
}

func report(stdout io.Writer, r *runner, elapsed time.Duration, soakRes *faultsim.Result) {
	ops := r.gets.Load() + r.sets.Load() + r.deletes.Load() + r.incrs.Load()
	fmt.Fprintf(stdout, "copload: %d ops in %v (%.0f ops/s): get=%d set=%d delete=%d increment=%d frames=%d errors=%d\n",
		ops, elapsed.Round(time.Millisecond), float64(ops)/elapsed.Seconds(),
		r.gets.Load(), r.sets.Load(), r.deletes.Load(), r.incrs.Load(),
		r.frames.Load(), r.opErrors.Load())
	h := r.lat.Snapshot()
	fmt.Fprintf(stdout, "copload: request latency p50=%s p99=%s p999=%s (%d requests)\n",
		time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.99)),
		time.Duration(h.Quantile(0.999)), h.Count)
	fmt.Fprintf(stdout, "copload: oracle: %d verified gets, %d mismatches\n",
		r.verified.Load(), r.mismatches.Load())
	if soakRes != nil {
		fmt.Fprintf(stdout, "copload: soak outcomes: corrected=%d masked=%d detected=%d silent=%d false-alias=%d background-reads=%d background-mismatches=%d\n",
			soakRes.Outcomes(faultsim.Corrected), soakRes.Outcomes(faultsim.Masked),
			soakRes.Outcomes(faultsim.Detected), soakRes.Outcomes(faultsim.Silent),
			soakRes.Outcomes(faultsim.FalseAlias), soakRes.BackgroundReads, soakRes.BackgroundMismatches)
	}
}

// --- machine-readable report ---------------------------------------------

// latencyJSON summarizes one latency histogram in nanoseconds.
type latencyJSON struct {
	Count  uint64 `json:"count"`
	P50Ns  uint64 `json:"p50_ns"`
	P99Ns  uint64 `json:"p99_ns"`
	P999Ns uint64 `json:"p999_ns"`
}

func latencyOf(h telemetry.HistogramSnapshot) latencyJSON {
	return latencyJSON{
		Count:  h.Count,
		P50Ns:  h.Quantile(0.50),
		P99Ns:  h.Quantile(0.99),
		P999Ns: h.Quantile(0.999),
	}
}

// stageJSON is one named sub-series of the server's serve-stage or per-op
// latency decomposition.
type stageJSON struct {
	Name string `json:"name"`
	latencyJSON
}

func stagesOf(named []telemetry.NamedHistogram) []stageJSON {
	out := make([]stageJSON, 0, len(named))
	for _, nh := range named {
		out = append(out, stageJSON{Name: nh.Name, latencyJSON: latencyOf(nh.Nanos)})
	}
	return out
}

// serverJSON is the server-side view of the run, scraped from the tenant's
// /snapshot after traffic stops: wall-clock frame latency and its
// per-stage decomposition as the server measured them.
type serverJSON struct {
	Scheme     string      `json:"scheme"`
	Frame      latencyJSON `json:"frame"`
	Stages     []stageJSON `json:"stages,omitempty"`
	Ops        []stageJSON `json:"ops,omitempty"`
	SlowFrames uint64      `json:"slow_frames"`
}

type soakJSON struct {
	Corrected            int `json:"corrected"`
	Masked               int `json:"masked"`
	Detected             int `json:"detected"`
	Silent               int `json:"silent"`
	FalseAlias           int `json:"false_alias"`
	BackgroundReads      int `json:"background_reads"`
	BackgroundMismatches int `json:"background_mismatches"`
}

type reportJSON struct {
	Target         string      `json:"target"`
	Tenant         string      `json:"tenant"`
	ElapsedSeconds float64     `json:"elapsed_seconds"`
	Ops            uint64      `json:"ops"`
	OpsPerSecond   float64     `json:"ops_per_second"`
	Gets           uint64      `json:"gets"`
	Sets           uint64      `json:"sets"`
	Deletes        uint64      `json:"deletes"`
	Increments     uint64      `json:"increments"`
	Frames         uint64      `json:"frames"`
	OpErrors       uint64      `json:"op_errors"`
	VerifiedGets   uint64      `json:"verified_gets"`
	Mismatches     uint64      `json:"mismatches"`
	Latency        latencyJSON `json:"latency"`
	Server         *serverJSON `json:"server,omitempty"`
	Soak           *soakJSON   `json:"soak,omitempty"`
}

// writeJSONReport renders the run as one indented JSON object on w: the
// client-side counters and request-latency quantiles, the server's own
// per-stage breakdown from the tenant snapshot, and the soak outcomes.
func writeJSONReport(w io.Writer, r *runner, elapsed time.Duration, target, tenant string,
	snap telemetry.Snapshot, soakRes *faultsim.Result) error {
	ops := r.gets.Load() + r.sets.Load() + r.deletes.Load() + r.incrs.Load()
	rep := reportJSON{
		Target:         target,
		Tenant:         tenant,
		ElapsedSeconds: elapsed.Seconds(),
		Ops:            ops,
		OpsPerSecond:   float64(ops) / elapsed.Seconds(),
		Gets:           r.gets.Load(),
		Sets:           r.sets.Load(),
		Deletes:        r.deletes.Load(),
		Increments:     r.incrs.Load(),
		Frames:         r.frames.Load(),
		OpErrors:       r.opErrors.Load(),
		VerifiedGets:   r.verified.Load(),
		Mismatches:     r.mismatches.Load(),
		Latency:        latencyOf(r.lat.Snapshot()),
	}
	if snap.Serve != nil {
		rep.Server = &serverJSON{
			Scheme:     snap.Scheme,
			Frame:      latencyOf(snap.Serve.Frame),
			Stages:     stagesOf(snap.Serve.Stages),
			Ops:        stagesOf(snap.Serve.Ops),
			SlowFrames: snap.Serve.SlowFrames,
		}
	}
	if soakRes != nil {
		rep.Soak = &soakJSON{
			Corrected:            soakRes.Outcomes(faultsim.Corrected),
			Masked:               soakRes.Outcomes(faultsim.Masked),
			Detected:             soakRes.Outcomes(faultsim.Detected),
			Silent:               soakRes.Outcomes(faultsim.Silent),
			FalseAlias:           soakRes.Outcomes(faultsim.FalseAlias),
			BackgroundReads:      soakRes.BackgroundReads,
			BackgroundMismatches: soakRes.BackgroundMismatches,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// --- closed-loop runner --------------------------------------------------

type runnerConfig struct {
	workers, window, keys, qps, ops int
	pipeline                        int // frames in flight per worker
	mix                             [4]int
	seed                            uint64
}

type runner struct {
	c    *copnet.Client
	prof *workload.Profile
	cfg  runnerConfig

	gets, sets, deletes, incrs atomic.Uint64
	frames, opErrors           atomic.Uint64
	verified, mismatches       atomic.Uint64
	lat                        telemetry.Histogram
}

func newRunner(c *copnet.Client, prof *workload.Profile, cfg runnerConfig) *runner {
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.window < 1 {
		cfg.window = 1
	}
	if cfg.keys < cfg.workers {
		cfg.keys = cfg.workers
	}
	if cfg.pipeline < 1 {
		cfg.pipeline = 1
	}
	return &runner{c: c, prof: prof, cfg: cfg}
}

// run drives the workers and returns the first frame-level failure.
func (r *runner) run(stop <-chan struct{}) error {
	var wg sync.WaitGroup
	errs := make(chan error, r.cfg.workers)
	per := r.cfg.keys / r.cfg.workers
	for w := 0; w < r.cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := loadBase + uint64(w*per)
			if err := r.worker(w, lo, per, stop); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// keyState is the shadow oracle for one block: enough to reconstruct the
// exact 64 bytes every read must return.
type keyState struct {
	version uint32
	delta   uint64 // increments applied since the last set/delete
	written bool
	deleted bool
	tainted bool // a write op failed; content unknown until rewritten
}

// expected reconstructs the block's required content: profile content at
// the current version (zeros before first write or after delete), with
// the first 8 bytes adjusted by the accumulated increment delta.
func (r *runner) expected(addr uint64, st *keyState) []byte {
	blk := make([]byte, copnet.BlockBytes)
	if st.written && !st.deleted {
		copy(blk, r.prof.Block(addr, st.version))
	}
	if st.delta != 0 {
		ctr := binary.LittleEndian.Uint64(blk[:8]) + st.delta
		binary.LittleEndian.PutUint64(blk[:8], ctr)
	}
	return blk
}

// opGet..opIncr index runnerConfig.mix.
const (
	opGet = iota
	opSet
	opDelete
	opIncr
)

type pendingOp struct {
	kind int
	key  int
	want []byte // expected read content (gets only)
}

// stream is one of a worker's in-flight request pipelines. A worker's key
// slice is partitioned into pipeline-many disjoint strided subsets (stream
// s owns local keys s, s+depth, s+2·depth, …), each with its own batch and
// at most one frame in flight: operations on the same key always ride the
// same stream in issue order, so the shadow oracle's per-key history stays
// exact no matter how the server interleaves concurrent frames.
type stream struct {
	batch    *copnet.Batch
	pending  []pendingOp
	inflight *copnet.PendingBatch
	sentAt   time.Time
}

func (r *runner) worker(w int, lo uint64, keys int, stop <-chan struct{}) error {
	rng := splitmix(r.cfg.seed + uint64(w)*0x9E3779B97F4A7C15)
	state := make([]keyState, keys)
	depth := r.cfg.pipeline
	if depth > keys {
		depth = keys
	}
	streams := make([]stream, depth)
	for i := range streams {
		streams[i].batch = r.c.NewBatch()
		streams[i].pending = make([]pendingOp, 0, r.cfg.window)
	}

	// Pacing: each worker owes one window every windowEvery (absolute
	// schedule, so delays are recovered rather than compounded).
	var windowEvery time.Duration
	if r.cfg.qps > 0 {
		windowEvery = time.Duration(float64(r.cfg.window*r.cfg.workers) / float64(r.cfg.qps) * float64(time.Second))
	}
	startAt := time.Now()

	pickOp := func() int {
		p := int(rng.next() % 100)
		for op, cum := 0, 0; ; op++ {
			cum += r.cfg.mix[op]
			if p < cum || op == opIncr {
				return op
			}
		}
	}
	// pickKey draws from stream s's strided subset, hot-skewed within it.
	pickKey := func(s int) int {
		n := keys / depth
		if s < keys%depth {
			n++
		}
		hot := int(float64(n) * r.prof.HotFrac)
		if hot < 1 {
			hot = 1
		}
		var j int
		if r.prof.HotProb > 0 && float64(rng.next()%1000)/1000 < r.prof.HotProb {
			j = int(rng.next() % uint64(hot))
		} else {
			j = int(rng.next() % uint64(n))
		}
		return s + j*depth
	}

	done := 0
	// reap blocks on a stream's in-flight frame, verifies its results
	// against the oracle, and clears the stream for refilling.
	reap := func(s *stream) error {
		results, err := s.inflight.Wait()
		r.lat.Observe(uint64(time.Since(s.sentAt)))
		s.inflight = nil
		if err != nil {
			return err
		}
		r.frames.Add(1)
		r.verify(results, s.pending, state)
		done += len(results)
		return nil
	}
	// drain reaps every stream still in flight (shutdown path) so no
	// frame's results escape the oracle.
	drain := func() error {
		var ferr error
		for i := range streams {
			if streams[i].inflight == nil {
				continue
			}
			if err := reap(&streams[i]); err != nil && ferr == nil {
				ferr = err
			}
		}
		return ferr
	}

	for window := 0; ; window++ {
		s := &streams[window%depth]
		if s.inflight != nil {
			if err := reap(s); err != nil {
				derr := drain()
				if derr == nil {
					derr = err
				}
				return fmt.Errorf("worker %d window %d: %w", w, window, derr)
			}
		}
		select {
		case <-stop:
			return drain()
		default:
		}
		if r.cfg.ops > 0 && done >= r.cfg.ops {
			return drain()
		}
		if windowEvery > 0 {
			next := startAt.Add(time.Duration(window) * windowEvery)
			if d := time.Until(next); d > 0 {
				select {
				case <-stop:
					return drain()
				case <-time.After(d):
				}
			}
		}

		s.pending = s.pending[:0]
		for i := 0; i < r.cfg.window; i++ {
			key := pickKey(window % depth)
			st := &state[key]
			addr := (lo + uint64(key)) * copnet.BlockBytes
			switch op := pickOp(); op {
			case opGet:
				want := []byte(nil)
				if !st.tainted {
					want = r.expected(addr, st)
				}
				s.batch.Read(addr)
				s.pending = append(s.pending, pendingOp{kind: opGet, key: key, want: want})
			case opSet:
				st.version++
				st.delta, st.written, st.deleted = 0, true, false
				s.batch.Write(addr, r.expected(addr, st))
				s.pending = append(s.pending, pendingOp{kind: opSet, key: key})
			case opDelete:
				st.delta, st.written, st.deleted = 0, true, true
				s.batch.Write(addr, r.expected(addr, st))
				s.pending = append(s.pending, pendingOp{kind: opDelete, key: key})
			case opIncr:
				st.delta++
				st.written = true
				s.batch.Write(addr, r.expected(addr, st))
				s.pending = append(s.pending, pendingOp{kind: opIncr, key: key})
			}
		}

		s.sentAt = time.Now()
		s.inflight = s.batch.Start()
	}
}

// verify checks one reaped frame's results against the shadow oracle and
// folds them into the op counters.
func (r *runner) verify(results []copnet.Result, pending []pendingOp, state []keyState) {
	for i, res := range results {
		p := &pending[i]
		st := &state[p.key]
		switch p.kind {
		case opGet:
			r.gets.Add(1)
			if res.Err != nil {
				r.opErrors.Add(1)
				continue
			}
			if p.want == nil {
				continue // key tainted by an earlier failed write
			}
			r.verified.Add(1)
			if !bytes.Equal(res.Data, p.want) {
				r.mismatches.Add(1)
			}
		case opSet, opDelete, opIncr:
			switch p.kind {
			case opSet:
				r.sets.Add(1)
			case opDelete:
				r.deletes.Add(1)
			default:
				r.incrs.Add(1)
			}
			if res.Err != nil {
				r.opErrors.Add(1)
				st.tainted = true
			} else {
				st.tainted = false
			}
		}
	}
}

// splitmix is splitmix64 — tiny, seedable, stable across Go versions.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
