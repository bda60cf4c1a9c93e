package copnet

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cop/internal/cli"
	"cop/internal/memctrl"
	"cop/internal/migrate"
	"cop/internal/shard"
	"cop/internal/telemetry"
	"cop/internal/trace"
)

// Store is the protected-memory surface the server fronts. cop.Store
// satisfies it (the method set is a subset with identical signatures), so
// a server can be handed any front-end; capability interfaces below
// unlock ranges, fault injection, and batched windows when the concrete
// store supports them.
type Store interface {
	ReadInto(dst []byte, addr uint64) (memctrl.ReadInfo, error)
	Write(addr uint64, data []byte) error
	Flush() error
	Snapshot() telemetry.Snapshot
}

// rangeStore unlocks the byte-range operations.
type rangeStore interface {
	ReadBytesInto(dst []byte, addr uint64) error
	WriteBytes(addr uint64, data []byte) error
}

// faultStore unlocks the fault-campaign surface (settle, ground-truth
// image queries, injections) that soak-mode load harnesses drive.
type faultStore interface {
	Settle(addr uint64) error
	StoredKind(addr uint64) memctrl.StoredKind
	InjectBitFlip(addr uint64, bit int) bool
	InjectChipFailure(addr uint64, chip int, pattern byte) bool
}

// TenantConfig parameterizes an admin-created tenant memory. The zero
// value opens a cop-er batched memory with auto topology and the paper's
// 4 MB / 16-way LLC.
type TenantConfig struct {
	// Scheme is the protection scheme by canonical cli name
	// (cli.SchemeNames); empty selects "cop-er" — the scheme that
	// protects incompressible blocks too, the right default for a
	// service asserting zero silent corruption.
	Scheme string `json:"scheme,omitempty"`
	// Shards is the stripe count (0: auto).
	Shards int `json:"shards,omitempty"`
	// RingSize / BatchMax size the per-shard rings and worker batches
	// (0: 256 / 64).
	RingSize int `json:"ring_size,omitempty"`
	BatchMax int `json:"batch_max,omitempty"`
	// LLCBytes / LLCWays size the total LLC (0: 4 MiB / 16).
	LLCBytes int `json:"llc_bytes,omitempty"`
	LLCWays  int `json:"llc_ways,omitempty"`
}

// Open builds the tenant's batched memory. Callers own Close (or hand the
// store to a Server, whose Close covers it).
func (c TenantConfig) Open() (*shard.Batched, error) {
	name := c.Scheme
	if name == "" {
		name = "cop-er"
	}
	sc, err := cli.SingleScheme(name)
	if err != nil {
		return nil, err
	}
	return shard.NewBatchedChecked(shard.BatchedConfig{
		Shard: shard.Config{
			Mem:    memctrl.Config{Mode: sc.Mode, LLCBytes: c.LLCBytes, LLCWays: c.LLCWays},
			Shards: c.Shards,
		},
		RingSize: c.RingSize,
		BatchMax: c.BatchMax,
	})
}

// Tenant is one namespace: an isolated protected memory plus its optional
// background scrubber.
type Tenant struct {
	name    string
	store   Store
	batched *shard.Batched // non-nil when store supports windows/drain/reconfiguration
	owned   bool           // server built the store and closes it

	// tel is the tenant's serve-side telemetry (wire counters, frame and
	// per-stage latency histograms). A value field, so a directly
	// constructed Tenant observes into valid storage with no nil checks
	// on the hot path.
	tel tenantTelemetry

	scrubMu sync.Mutex
	scrub   *migrate.Scrubber
}

// Name returns the tenant's namespace name.
func (t *Tenant) Name() string { return t.name }

// Store returns the tenant's memory.
func (t *Tenant) Store() Store { return t.store }

// Batched returns the tenant's batched front-end, nil when the registered
// store is not one.
func (t *Tenant) Batched() *shard.Batched { return t.batched }

// TenantInfo is the admin listing entry for one tenant.
type TenantInfo struct {
	Name   string `json:"name"`
	Scheme string `json:"scheme"`
	Shards int    `json:"shards,omitempty"`
	Ops    uint64 `json:"ops,omitempty"`
}

// Server is the multi-tenant block-store service core: tenant registry,
// request execution, probes, admin, and the drain choreography. It carries
// no listener — mount Handler on whatever server (TLS/h2 or plaintext)
// the binary runs, or hit it in-process.
type Server struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant

	// inflight tracks admitted admin requests and datapath frames so
	// Drain can fence: once draining flips, new requests bounce with 503,
	// frames on open streams get a "draining" error, and Drain waits out
	// everything already admitted. drainMu orders admission against the
	// flip — an Add only happens while holding the read side with
	// draining still false, and Drain flips under the write side, so
	// every Add happens-before the fence Wait (the WaitGroup contract).
	drainMu  sync.RWMutex
	inflight sync.WaitGroup
	draining atomic.Bool

	// streams holds the open /stream sessions so Drain can end them: an
	// idle stream is parked in a body read that only a read deadline
	// interrupts. Entries are added under drainMu's read side (so none
	// slips past the flip) and removed before their handler returns.
	streamMu sync.Mutex
	streams  map[*http.ResponseController]struct{}

	// net is the serve-datapath telemetry section; scratch pools the
	// per-request frame state (see pool.go) so the steady-state frame
	// path allocates nothing.
	net     telemetry.NetCounters
	scratch sync.Pool

	tracer *trace.Tracer
	// netTH is the flight-recorder handle the HTTP goroutines share for
	// net-layer records (RecordFlow only — no per-handle state, so
	// concurrent writers are safe). Nil without a tracer; every use goes
	// through the nil-safe Handle methods.
	netTH *trace.Handle

	// Slow-frame capture: slowNs is the live threshold (0 disables; the
	// adaptive mode rewrites it from the frame histogram's tail), slowlog
	// the bounded capture ring behind /debug/slowlog.
	slowCfg SlowFrameConfig
	slowNs  atomic.Int64
	slowlog *slowLog

	handler http.Handler
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithServerTracer mounts the flight recorder's /trace endpoints and
// attaches it to every tenant memory created afterwards.
func WithServerTracer(t *trace.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// SlowFrameConfig tunes the tail-latency capturer.
type SlowFrameConfig struct {
	// Threshold captures frames at least this slow. 0 disables capture
	// (unless Adaptive raises a threshold); with Adaptive it is the floor
	// the adaptive threshold never drops below.
	Threshold time.Duration
	// Adaptive re-derives the threshold from the live frame histogram:
	// every 1024 frames (after a 256-frame warmup) the threshold becomes
	// 2x the observed p99.9, floored at Threshold — so "slow" tracks the
	// workload instead of a guess.
	Adaptive bool
	// LogSize bounds the capture ring (0: 64 entries).
	LogSize int
	// Freeze triggers a flight-recorder anomaly freeze (reason
	// "slow-frame") on capture, preserving a black-box dump of the rings
	// around the outlier.
	Freeze bool
}

// WithSlowFrames enables slow-frame capture.
func WithSlowFrames(cfg SlowFrameConfig) ServerOption {
	return func(s *Server) { s.slowCfg = cfg }
}

// NewServer builds an empty service core.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{
		tenants: make(map[string]*Tenant),
		streams: make(map[*http.ResponseController]struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.tracer != nil {
		s.netTH = s.tracer.Handle(0)
	}
	s.slowlog = newSlowLog(s.slowCfg.LogSize)
	s.slowNs.Store(int64(s.slowCfg.Threshold))
	s.handler = s.buildHandler()
	return s
}

// CreateTenant opens a fresh batched memory per cfg and registers it
// under name. The server owns (and will Close) the store.
func (s *Server) CreateTenant(name string, cfg TenantConfig) (*Tenant, error) {
	b, err := cfg.Open()
	if err != nil {
		return nil, err
	}
	if s.tracer != nil {
		b.SetTracer(s.tracer)
	}
	t, err := s.addTenant(name, b, b, true)
	if err != nil {
		b.Close()
		return nil, err
	}
	return t, nil
}

// AddTenant registers an externally owned store under name. Any Store
// works; a *shard.Batched additionally gets windowed batches, drain
// coverage, and the reconfiguration admin surface.
func (s *Server) AddTenant(name string, st Store) (*Tenant, error) {
	b, _ := st.(*shard.Batched)
	return s.addTenant(name, st, b, false)
}

func (s *Server) addTenant(name string, st Store, b *shard.Batched, owned bool) (*Tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("copnet: empty tenant name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tenants[name]; dup {
		return nil, fmt.Errorf("copnet: tenant %q already exists", name)
	}
	t := &Tenant{name: name, store: st, batched: b, owned: owned}
	s.tenants[name] = t
	return t, nil
}

// RemoveTenant drains (server-owned stores only) and deregisters a tenant.
func (s *Server) RemoveTenant(name string) error {
	s.mu.Lock()
	t, ok := s.tenants[name]
	if ok {
		delete(s.tenants, name)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("copnet: no tenant %q", name)
	}
	t.stopScrub()
	if t.owned && t.batched != nil {
		err := t.batched.Drain()
		t.batched.Close()
		return err
	}
	return nil
}

// Tenant looks a namespace up.
func (s *Server) Tenant(name string) (*Tenant, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[name]
	return t, ok
}

// TenantInfos lists the registered tenants, name-sorted.
func (s *Server) TenantInfos() []TenantInfo {
	s.mu.RLock()
	infos := make([]TenantInfo, 0, len(s.tenants))
	for _, t := range s.tenants {
		info := TenantInfo{Name: t.name, Scheme: t.store.Snapshot().Scheme}
		if t.batched != nil {
			info.Shards = t.batched.NumShards()
			info.Ops = t.batched.Ops()
		}
		infos = append(infos, info)
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// snapshot is the tenant's full telemetry tree: the store's sections plus
// this tenant's wire counters and serve-datapath latency attribution.
func (t *Tenant) snapshot() telemetry.Snapshot {
	snap := t.store.Snapshot()
	net := t.tel.net.Snapshot()
	snap.Net = &net
	snap.Serve = t.tel.serveStats()
	snap.Finalize()
	return snap
}

// sortedTenants returns the registered tenants in name order.
func (s *Server) sortedTenants() []*Tenant {
	s.mu.RLock()
	tenants := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.RUnlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	return tenants
}

// Snapshot merges every tenant's telemetry tree (name order, so the merge
// is deterministic); it makes the Server a telemetry.Source for the
// mounted /metrics and /snapshot endpoints. The Net section is the
// service-global counter set (which also carries the scratch-pool and
// inflight gauges the per-tenant sections do not track).
func (s *Server) Snapshot() telemetry.Snapshot {
	var snap telemetry.Snapshot
	for i, t := range s.sortedTenants() {
		if i == 0 {
			snap = t.snapshot()
		} else {
			snap.Merge(t.snapshot())
		}
	}
	net := s.net.Snapshot()
	snap.Net = &net
	snap.Finalize()
	return snap
}

// Ready reports whether the service accepts traffic (false once draining).
func (s *Server) Ready() bool { return !s.draining.Load() }

// Drain executes the graceful-shutdown sequence: flip to not-ready (new
// requests bounce with 503, frames on open streams get a "draining"
// error, /readyz goes red), end every open stream, wait out every
// admitted request and frame — so every acknowledged write has fully
// executed — stop the patrol scrubbers, then quiesce each batched tenant
// via the shard drain machinery (rings emptied, LLCs flushed, shards
// fenced). After a nil return, every acknowledged write is durable in the
// tenants' DRAM images. ctx bounds only the wait for admitted work;
// tenant drains run to completion regardless.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	// A read deadline in the past fails each stream's pending body read:
	// idle streams end at once, a busy one after its admitted frame.
	s.streamMu.Lock()
	for rc := range s.streams {
		_ = rc.SetReadDeadline(time.Now())
	}
	s.streamMu.Unlock()
	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("copnet: drain fence: %w", ctx.Err())
	}
	s.mu.RLock()
	tenants := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.RUnlock()
	var firstErr error
	for _, t := range tenants {
		t.stopScrub()
		if t.batched != nil {
			if err := t.batched.Drain(); err != nil && firstErr == nil {
				firstErr = err
			}
		} else if err := t.store.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close drains (unbounded fence) and closes every server-owned store.
func (s *Server) Close() error {
	err := s.Drain(context.Background())
	s.mu.Lock()
	tenants := s.tenants
	s.tenants = make(map[string]*Tenant)
	s.mu.Unlock()
	for _, t := range tenants {
		if t.owned && t.batched != nil {
			t.batched.Close()
		}
	}
	return err
}

func (t *Tenant) startScrub(opts migrate.ScrubOptions) error {
	if t.batched == nil {
		return fmt.Errorf("copnet: tenant %q store has no scrub capability", t.name)
	}
	t.scrubMu.Lock()
	defer t.scrubMu.Unlock()
	if t.scrub != nil {
		return fmt.Errorf("copnet: tenant %q scrubber already running", t.name)
	}
	t.scrub = migrate.NewScrubber(t.batched, opts)
	t.scrub.Start()
	return nil
}

func (t *Tenant) stopScrub() {
	t.scrubMu.Lock()
	sc := t.scrub
	t.scrub = nil
	t.scrubMu.Unlock()
	if sc != nil {
		sc.Stop()
	}
}

// --- request execution ---------------------------------------------------

// execBatch runs the decoded request frame in sc against the tenant and
// returns the response frame (backed by sc.resp, after streamPrefix bytes
// of headroom for a stream record's length prefix). With a batched store,
// consecutive read/write runs ride one group window (deep per-shard
// batches); barrier ops fence the window exactly like Group.Wait. A
// window error is conservatively attributed to every operation in that
// window (the group reports only the first), so no failed write is ever
// acknowledged.
//
// Every read payload is carved out of sc.arena — one slab per frame
// instead of one make per op — and the response is appended into sc.resp,
// so a steady-state frame touches the heap only when a slab has to grow.
func (t *Tenant) execBatch(sc *frameScratch) []byte {
	ops := sc.ops
	sc.results = growResults(sc.results, len(ops))
	results := sc.results

	// Payload arena: size once, slice per op. Read-range payloads are
	// bounded by maxRangeBytes each, so the sum is bounded by the request
	// cap the handler already enforced.
	need := 0
	for i := range ops {
		switch ops[i].kind {
		case OpRead:
			need += BlockBytes
		case OpReadRange:
			need += int(ops[i].n)
		}
	}
	sc.arena = grow(sc.arena, need)
	off := 0
	for i := range ops {
		switch ops[i].kind {
		case OpRead:
			results[i].data = sc.arena[off : off+BlockBytes : off+BlockBytes]
			off += BlockBytes
		case OpReadRange:
			n := int(ops[i].n)
			results[i].data = sc.arena[off : off+n : off+n]
			off += n
		}
	}

	// Single-op frames take the synchronous path even on a batched store:
	// there is no window to amortize, and the sync read carries the full
	// ReadInfo decode verdict (group windows report only data), which the
	// fault campaign's classifier wants end-to-end.
	if t.batched != nil && len(ops) > 1 {
		t.execWindowed(ops, results, sc)
	} else {
		t.execSequential(ops, results, sc)
	}

	encStart := time.Now()
	resp := grow(sc.resp, streamPrefix+respSizeHint(ops))[:streamPrefix]
	resp = append(resp, wireMagic, wireVersion)
	for i := range ops {
		resp = appendResult(resp, ops[i].kind, &results[i])
	}
	sc.resp = resp
	sc.stageNs[trace.StageEncode] += uint64(time.Since(encStart))
	return resp[streamPrefix:]
}

// respSizeHint estimates the response frame size to avoid regrows.
func respSizeHint(ops []reqOp) int {
	n := 2
	for i := range ops {
		switch ops[i].kind {
		case OpRead:
			n += 1 + packedInfoLen + BlockBytes
		case OpReadRange:
			n += 5 + int(ops[i].n)
		default:
			n += 2
		}
	}
	return n
}

// execWindowed executes ops through the batched front-end. Read payload
// buffers are preassigned in results[i].data.
//
// Stage attribution: ring-wait is the time spent feeding a window's ops
// into the shard rings (including back-pressure stalls on a full ring);
// window is the time from Wait to window completion plus any synchronous
// barrier execution. Per-op latency for window ops is the window duration
// they rode — each op's completion latency is its window's, which is what
// a caller actually experiences. Traced frames thread each op's derived
// span id into the shard submission, so the flight recorder joins the
// wire frame to its shard batches and DRAM accesses.
func (t *Tenant) execWindowed(ops []reqOp, results []opResult, sc *frameScratch) {
	b := t.batched
	g := b.NewGroup()
	var ringWait, window uint64
	segStart := time.Now() // first enqueue of the open window
	start := 0             // first op of the open window
	flush := func(end int) {
		waitStart := time.Now()
		ringWait += uint64(waitStart.Sub(segStart))
		err := g.Wait()
		waitEnd := time.Now()
		d := uint64(waitEnd.Sub(waitStart))
		window += d
		segStart = waitEnd
		for i := start; i < end; i++ {
			t.tel.op[ops[i].kind].Observe(d)
			if err != nil && ops[i].isWindowOp() && results[i].err == nil {
				results[i].err = err
			}
		}
		start = end
	}
	for i := range ops {
		op := &ops[i]
		r := &results[i]
		switch op.kind {
		case OpRead:
			if sc.traced {
				g.ReadFlow(r.data, op.addr, OpSpan(sc.traceID, i))
			} else {
				g.Read(r.data, op.addr)
			}
		case OpWrite:
			if sc.traced {
				g.WriteFlow(op.addr, op.data, OpSpan(sc.traceID, i))
			} else {
				g.Write(op.addr, op.data)
			}
		default:
			flush(i)
			opStart := time.Now()
			t.execOne(op, r)
			d := uint64(time.Since(opStart))
			window += d
			t.tel.op[op.kind].Observe(d)
			segStart = time.Now()
			start = i + 1
		}
	}
	flush(len(ops))
	b.PutGroup(g)
	sc.stageNs[trace.StageRingWait] += ringWait
	sc.stageNs[trace.StageWindow] += window
	// Window reads carry no per-op info through the group API; mark what
	// is knowable: the data came from the hierarchy (hit or decode).
}

// execSequential executes ops one by one against a plain Store. All the
// execution time is window time (there is no ring to wait on).
func (t *Tenant) execSequential(ops []reqOp, results []opResult, sc *frameScratch) {
	var window uint64
	for i := range ops {
		op := &ops[i]
		r := &results[i]
		opStart := time.Now()
		switch op.kind {
		case OpRead:
			r.info, r.err = t.store.ReadInto(r.data, op.addr)
		case OpWrite:
			r.err = t.store.Write(op.addr, op.data)
		default:
			t.execOne(op, r)
		}
		d := uint64(time.Since(opStart))
		window += d
		t.tel.op[op.kind].Observe(d)
	}
	sc.stageNs[trace.StageWindow] += window
}

// execOne executes a barrier op synchronously.
func (t *Tenant) execOne(op *reqOp, r *opResult) {
	switch op.kind {
	case OpFlush:
		r.err = t.store.Flush()
	case OpReadRange:
		rs, ok := t.store.(rangeStore)
		if !ok {
			r.err = fmt.Errorf("store does not support range reads")
			return
		}
		// r.data is the arena slice execBatch preassigned (len op.n).
		r.err = rs.ReadBytesInto(r.data, op.addr)
	case OpWriteRange:
		rs, ok := t.store.(rangeStore)
		if !ok {
			r.err = fmt.Errorf("store does not support range writes")
			return
		}
		r.err = rs.WriteBytes(op.addr, op.data)
	case OpSettle:
		fs, ok := t.store.(faultStore)
		if !ok {
			r.err = fmt.Errorf("store does not support settle")
			return
		}
		r.err = fs.Settle(op.addr)
	case OpStoredKind:
		fs, ok := t.store.(faultStore)
		if !ok {
			r.err = fmt.Errorf("store does not support image queries")
			return
		}
		r.flag = byte(fs.StoredKind(op.addr))
	case OpInjectBit:
		fs, ok := t.store.(faultStore)
		if !ok {
			r.err = fmt.Errorf("store does not support fault injection")
			return
		}
		if fs.InjectBitFlip(op.addr, int(op.arg)) {
			r.flag = 1
		}
	case OpInjectChip:
		fs, ok := t.store.(faultStore)
		if !ok {
			r.err = fmt.Errorf("store does not support fault injection")
			return
		}
		if fs.InjectChipFailure(op.addr, int(op.arg), op.pat) {
			r.flag = 1
		}
	default:
		r.err = fmt.Errorf("unexpected op %v", op.kind)
	}
}

// --- HTTP surface --------------------------------------------------------

// Handler returns the service's full HTTP surface: the /v1 datapath, the
// /admin control plane, /healthz + /readyz probes, and the telemetry
// handler (/metrics, /snapshot, /debug/*, and /trace* when a tracer is
// mounted) as the fallback for everything else.
func (s *Server) Handler() http.Handler { return s.handler }

func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready\n"))
	})

	mux.HandleFunc("POST /v1/tenants/{tenant}/batch", s.gated(s.handleBatch))
	mux.HandleFunc("POST /v1/tenants/{tenant}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/tenants/{tenant}/block/{addr}", s.gated(s.handleBlockGet))
	mux.HandleFunc("PUT /v1/tenants/{tenant}/block/{addr}", s.gated(s.handleBlockPut))
	mux.HandleFunc("POST /v1/tenants/{tenant}/flush", s.gated(s.handleFlush))
	mux.HandleFunc("GET /v1/tenants/{tenant}/snapshot", s.gated(s.handleTenantSnapshot))

	mux.HandleFunc("GET /admin/tenants", s.gated(s.handleTenantList))
	mux.HandleFunc("PUT /admin/tenants/{tenant}", s.gated(s.handleTenantCreate))
	mux.HandleFunc("DELETE /admin/tenants/{tenant}", s.gated(s.handleTenantDelete))
	mux.HandleFunc("POST /admin/tenants/{tenant}/migrate", s.gated(s.handleMigrate))
	mux.HandleFunc("POST /admin/tenants/{tenant}/reshard", s.gated(s.handleReshard))
	mux.HandleFunc("POST /admin/tenants/{tenant}/scrub", s.gated(s.handleScrub))

	// Service-aware telemetry endpoints: /metrics adds per-tenant label
	// variants next to the merged families, /snapshot takes a ?tenant=
	// filter, /debug/slowlog is the tail-latency capture log. Everything
	// else (/debug/*, /trace* with a tracer) falls through to the shared
	// telemetry handler.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	mux.HandleFunc("/debug/slowlog", s.handleSlowlog)
	mux.Handle("/", telemetry.HandlerWithTracer(s, s.tracer))
	return mux
}

// handleMetrics writes the Prometheus exposition: every family once, with
// the merged service totals as the unlabeled sample and one
// tenant-labeled sample per tenant, then the Go runtime health gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	variants := []telemetry.PromVariant{{Snap: s.Snapshot()}}
	for _, t := range s.sortedTenants() {
		variants = append(variants, telemetry.PromVariant{
			Labels: []telemetry.Label{{Name: "tenant", Value: t.name}},
			Snap:   t.snapshot(),
		})
	}
	_ = telemetry.WritePrometheusVariants(w, variants...)
	_ = telemetry.WriteRuntimeMetrics(w)
}

// handleSnapshot serves the merged service snapshot, or one tenant's tree
// with ?tenant=name.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("tenant"); name != "" {
		t, ok := s.Tenant(name)
		if !ok {
			http.Error(w, fmt.Sprintf("no tenant %q", name), http.StatusNotFound)
			return
		}
		writeJSON(w, t.snapshot())
		return
	}
	writeJSON(w, s.Snapshot())
}

// handleSlowlog serves the slow-frame capture ring (GET) and retunes the
// live threshold (POST {"threshold_ns": n}; 0 disables). The threshold is
// POSTable even when the server started without WithSlowFrames, so an
// operator can arm capture on a live service.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		entries, total := s.slowlog.snapshot()
		writeJSON(w, map[string]any{
			"threshold_ns": s.slowNs.Load(),
			"adaptive":     s.slowCfg.Adaptive,
			"total":        total,
			"entries":      entries,
		})
	case http.MethodPost:
		var req struct {
			ThresholdNs int64 `json:"threshold_ns"`
		}
		if err := decodeJSON(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.ThresholdNs < 0 {
			http.Error(w, "threshold_ns must be >= 0", http.StatusBadRequest)
			return
		}
		s.slowNs.Store(req.ThresholdNs)
		writeJSON(w, map[string]int64{"threshold_ns": req.ThresholdNs})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// gated wraps a handler with the drain fence: reject once draining,
// otherwise account the request so Drain waits it out.
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.admit() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		defer s.release()
		h(w, r)
	}
}

// admit passes one request or stream frame through the drain fence,
// reporting false once draining. Admitted work also feeds the Net
// inflight level and its high-water mark; release ends it.
func (s *Server) admit() bool {
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		return false
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()
	s.net.Inflight.Add(1)
	s.net.MaxInflight.Observe(uint64(s.net.Inflight.Load()))
	return true
}

func (s *Server) release() {
	s.net.Inflight.Add(-1)
	s.inflight.Done()
}

func (s *Server) pathTenant(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	name := r.PathValue("tenant")
	t, ok := s.Tenant(name)
	if !ok {
		http.Error(w, fmt.Sprintf("no tenant %q", name), http.StatusNotFound)
		return nil, false
	}
	return t, true
}

// handleBatch serves one frame per request: the route for curl and
// HTTP/1.1 callers.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	start := time.Now()
	sc := s.getScratch()
	defer s.putScratch(sc)
	var err error
	sc.body, err = readBodyInto(sc.body, r, maxFrameBytes)
	tRead := time.Now()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	_ = s.serveFrame(t, sc, w, nil, start, tRead)
}

// handleStream serves one long-lived full-duplex stream: length-prefixed
// request frames in, one length-prefixed response record out per frame,
// in arrival order. Each frame passes the drain fence and looks its
// tenant up on its own, so an idle stream never holds Drain up and a
// dropped tenant is not served past its removal; a frame refused there,
// or one that does not decode, gets a failed record and the stream
// carries on. A length prefix above the frame cap is refused before
// anything is allocated for it and ends the stream, which can no longer
// find the next frame boundary.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.pathTenant(w, r); !ok {
		return
	}
	rc := http.NewResponseController(w)
	s.drainMu.RLock()
	open := !s.draining.Load()
	if open {
		s.streamMu.Lock()
		s.streams[rc] = struct{}{}
		s.streamMu.Unlock()
	}
	s.drainMu.RUnlock()
	if !open {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer func() {
		s.streamMu.Lock()
		delete(s.streams, rc)
		s.streamMu.Unlock()
	}()

	_ = rc.EnableFullDuplex() // HTTP/1.1 only: HTTP/2 streams always are
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if rc.Flush() != nil {
		return
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	s.serveStream(r.PathValue("tenant"), sc, r.Body, w, rc)
}

// serveStream runs an open stream's frame loop for the named tenant until
// its body ends or a response cannot be written, working in sc
// throughout.
func (s *Server) serveStream(tenant string, sc *frameScratch, body io.Reader, w http.ResponseWriter, rc *http.ResponseController) {
	for {
		// EOF (the client closed its side) and the drain's read deadline
		// both end the stream here, between frames.
		if _, err := io.ReadFull(body, sc.prefix[:]); err != nil {
			return
		}
		start := time.Now() // idle time before the prefix stays out of the frame
		n, err := requestFrameLen(sc.prefix[:])
		if err != nil {
			_ = writeFailedRecord(w, rc, err.Error())
			return
		}
		sc.body = grow(sc.body, n)
		if _, err := io.ReadFull(body, sc.body); err != nil {
			return
		}
		tRead := time.Now()
		t, ok := s.Tenant(tenant)
		if !ok || !s.admit() {
			msg := "draining"
			if !ok {
				msg = fmt.Sprintf("no tenant %q", tenant)
			}
			if writeFailedRecord(w, rc, msg) != nil {
				return
			}
			continue
		}
		err = s.serveFrame(t, sc, w, rc, start, tRead)
		s.release()
		if err != nil {
			return
		}
	}
}

// writeFailedRecord answers a stream frame with a failed record carrying
// msg.
func writeFailedRecord(w http.ResponseWriter, rc *http.ResponseController, msg string) error {
	rec := appendU32(make([]byte, 0, streamPrefix+len(msg)), uint32(len(msg))|recordFailed)
	if _, err := w.Write(append(rec, msg...)); err != nil {
		return err
	}
	return rc.Flush()
}

// serveFrame is the frame path both datapath routes share: decode the
// request frame in sc.body, execute it against t, count it, write the
// response, and attribute its stages, traces and slow-frame capture.
// start is when the frame began to arrive and tRead when it was read in
// full. With stream nil the response is the whole HTTP body (/batch);
// otherwise it is one length-prefixed record, flushed through stream. A
// frame that does not decode is answered with an error (400, or a failed
// record) and executes nothing. The error is the write's: non-nil means
// the stream is dead.
func (s *Server) serveFrame(t *Tenant, sc *frameScratch, w http.ResponseWriter, stream *http.ResponseController, start, tRead time.Time) error {
	var err error
	sc.ops, sc.traceID, err = decodeRequestInto(sc.ops[:0], sc.body)
	tParse := time.Now()
	if err != nil {
		if stream != nil {
			return writeFailedRecord(w, stream, err.Error())
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil
	}
	sc.stageNs = [trace.NumServeStages]uint64{}
	sc.traced = sc.traceID != 0 && s.netTH.Enabled()
	var frameSpan uint64
	if sc.traced {
		frameSpan = FrameSpan(sc.traceID)
		s.netTH.RecordFlow(trace.KindNetFrameBegin, frameSpan, 0,
			uint32(len(sc.ops)), 0, sc.traceID, 0, 0)
	}

	resp := t.execBatch(sc)

	t.tel.net.Frames.Inc()
	t.tel.net.Ops.Add(uint64(len(sc.ops)))
	t.tel.net.BytesIn.Add(uint64(len(sc.body)))
	t.tel.net.BytesOut.Add(uint64(len(resp)))
	s.net.Frames.Inc()
	s.net.Ops.Add(uint64(len(sc.ops)))
	s.net.BytesIn.Add(uint64(len(sc.body)))
	s.net.BytesOut.Add(uint64(len(resp)))
	wStart := time.Now()
	if stream != nil {
		// One write carries prefix and frame: execBatch left the headroom.
		// The flush waits until the frame is accounted, so a response
		// that fits the writer's buffer reaches the client after its
		// telemetry and trace records — as a /batch response, sent when
		// the handler returns, always does.
		rec := sc.resp[:streamPrefix+len(resp)]
		binary.LittleEndian.PutUint32(rec, uint32(len(resp)))
		_, err = w.Write(rec)
	} else {
		w.Header().Set("Content-Type", "application/octet-stream")
		// An explicit length keeps the response out of chunked encoding:
		// one frame, one write, and the client can presize its read buffer.
		w.Header().Set("Content-Length", strconv.Itoa(len(resp)))
		_, _ = w.Write(resp)
	}
	end := time.Now()

	sc.stageNs[trace.StageRead] = uint64(tRead.Sub(start))
	sc.stageNs[trace.StageParse] = uint64(tParse.Sub(tRead))
	sc.stageNs[trace.StageWrite] = uint64(end.Sub(wStart))
	total := uint64(end.Sub(start))
	t.tel.frame.Observe(total)
	for i := range sc.stageNs {
		t.tel.stage[i].Observe(sc.stageNs[i])
	}
	if sc.traced {
		for i := range sc.stageNs {
			s.netTH.RecordFlow(trace.KindServeStage, frameSpan, 0,
				uint32(i), 0, sc.stageNs[i], 0, 0)
		}
		s.netTH.RecordFlow(trace.KindNetFrameEnd, frameSpan, 0,
			uint32(len(sc.ops)), 0, total, 0, 0)
	}
	s.noteFrame(t, sc, total)
	if stream != nil && err == nil {
		err = stream.Flush()
	}
	return err
}

// noteFrame runs the slow-frame detector after a batch frame completes.
// The disabled path is one atomic load and a compare. Adaptive mode
// re-derives the threshold from the tenant's own frame histogram every
// 1024 frames (after a 256-frame warmup): 2x the live p99.9, floored at
// the configured threshold.
func (s *Server) noteFrame(t *Tenant, sc *frameScratch, totalNs uint64) {
	thr := s.slowNs.Load()
	if s.slowCfg.Adaptive {
		if c := t.tel.frame.Count(); c >= 256 && c&1023 == 0 {
			adaptive := int64(2 * t.tel.frame.Quantile(0.999))
			if floor := int64(s.slowCfg.Threshold); adaptive < floor {
				adaptive = floor
			}
			if adaptive > 0 {
				s.slowNs.Store(adaptive)
				thr = adaptive
			}
		}
	}
	if thr <= 0 || totalNs < uint64(thr) {
		return
	}
	t.tel.slow.Inc()
	s.slowlog.add(SlowFrame{
		UnixNano: time.Now().UnixNano(),
		Tenant:   t.name,
		TraceID:  sc.traceID,
		Ops:      len(sc.ops),
		TotalNs:  totalNs,
		Stages:   slowStagesFrom(&sc.stageNs),
	})
	if s.slowCfg.Freeze && s.tracer != nil {
		s.tracer.TriggerAnomaly(trace.ReasonSlowFrame, sc.traceID)
	}
}

func (s *Server) handleBlockGet(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	addr, err := strconv.ParseUint(r.PathValue("addr"), 0, 64)
	if err != nil {
		http.Error(w, "bad address: "+err.Error(), http.StatusBadRequest)
		return
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	sc.arena = grow(sc.arena, BlockBytes)
	dst := sc.arena
	info, err := t.store.ReadInto(dst, addr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(BlockBytes))
	w.Header().Set("X-Cop-Llc-Hit", strconv.FormatBool(info.LLCHit))
	w.Header().Set("X-Cop-Compressed", strconv.FormatBool(info.DecodedCompressed))
	w.Header().Set("X-Cop-Corrected", strconv.Itoa(info.Corrected))
	_, _ = w.Write(dst)
}

func (s *Server) handleBlockPut(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	addr, err := strconv.ParseUint(r.PathValue("addr"), 0, 64)
	if err != nil {
		http.Error(w, "bad address: "+err.Error(), http.StatusBadRequest)
		return
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	body, err := readBodyInto(sc.body, r, BlockBytes+1)
	sc.body = body[:0]
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) != BlockBytes {
		http.Error(w, fmt.Sprintf("block write wants exactly %d bytes, got %d", BlockBytes, len(body)), http.StatusBadRequest)
		return
	}
	if err := t.store.Write(addr, body); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	if err := t.store.Flush(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleTenantSnapshot(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	writeJSON(w, t.snapshot())
}

func (s *Server) handleTenantList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.TenantInfos())
}

func (s *Server) handleTenantCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	var cfg TenantConfig
	if err := decodeJSON(r, &cfg); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if _, err := s.CreateTenant(name, cfg); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.RemoveTenant(r.PathValue("tenant")); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	if t.batched == nil {
		http.Error(w, "tenant store does not support live migration", http.StatusConflict)
		return
	}
	var req struct {
		Scheme      string `json:"scheme"`
		ChunkBlocks int    `json:"chunk_blocks,omitempty"`
	}
	if err := decodeJSON(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := migrate.MigrateTo(t.batched, req.Scheme, migrate.Options{ChunkBlocks: req.ChunkBlocks}); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, map[string]string{"scheme": req.Scheme})
}

func (s *Server) handleReshard(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	if t.batched == nil {
		http.Error(w, "tenant store does not support resharding", http.StatusConflict)
		return
	}
	var req struct {
		Shards int `json:"shards"`
	}
	if err := decodeJSON(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := t.batched.Reshard(req.Shards); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, map[string]int{"shards": t.batched.NumShards()})
}

func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	var req struct {
		Action      string `json:"action"`
		IntervalUS  int    `json:"interval_us,omitempty"`
		ChunkBlocks int    `json:"chunk_blocks,omitempty"`
	}
	if err := decodeJSON(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch req.Action {
	case "start":
		opts := migrate.ScrubOptions{ChunkBlocks: req.ChunkBlocks}
		if req.IntervalUS > 0 {
			opts.Interval = time.Duration(req.IntervalUS) * time.Microsecond
		}
		if err := t.startScrub(opts); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
	case "stop":
		t.stopScrub()
	default:
		http.Error(w, fmt.Sprintf("scrub action %q: want start or stop", req.Action), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]string{"scrub": req.Action})
}

// readBodyInto reads the request body into buf (reusing its capacity,
// allocation-free once warm), erroring on oversize payloads rather than
// truncating. A declared Content-Length presizes the buffer and reads it
// in full pulls instead of io.ReadAll's doubling loop; chunked bodies
// fall back to incremental appends under the same cap.
func readBodyInto(buf []byte, r *http.Request, limit int) ([]byte, error) {
	if cl := r.ContentLength; cl >= 0 {
		if cl > int64(limit) {
			return buf[:0], fmt.Errorf("request body exceeds %d bytes", limit)
		}
		buf = grow(buf, int(cl))
		if _, err := io.ReadFull(r.Body, buf); err != nil {
			return buf[:0], fmt.Errorf("read body: %w", err)
		}
		return buf, nil
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return buf[:0], fmt.Errorf("request body exceeds %d bytes", limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf[:0], fmt.Errorf("read body: %w", err)
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad JSON body: %w", err)
	}
	return nil
}
