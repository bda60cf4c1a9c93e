package telemetry

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeMax(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("counter = %d, want 5", c.Load())
	}
	var g Gauge
	g.Add(3)
	g.Add(-5)
	if g.Load() != -2 {
		t.Errorf("gauge = %d, want -2", g.Load())
	}
	var m Max
	for _, v := range []uint64{3, 9, 7} {
		m.Observe(v)
	}
	if m.Load() != 9 {
		t.Errorf("max = %d, want 9", m.Load())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// Bucket 0 holds exactly 0; bucket i holds [2^(i-1), 2^i).
	for _, tc := range []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 30, 31}, {1 << 40, 31}, {^uint64(0), 31},
	} {
		var one Histogram
		one.Observe(tc.v)
		s := one.Snapshot()
		if len(s.Buckets) != tc.bucket+1 || s.Buckets[tc.bucket] != 1 {
			t.Errorf("Observe(%d): buckets %v, want count in bucket %d", tc.v, s.Buckets, tc.bucket)
		}
		h.Observe(tc.v)
	}
	s := h.Snapshot()
	if s.Count != 10 {
		t.Errorf("count = %d, want 10", s.Count)
	}
	// Sum wraps modulo 2^64 (the ^uint64(0) observation overflows it).
	want := uint64(0+1+2+3+4+7+8+(1<<30)+(1<<40)) - 1
	if s.Sum != want {
		t.Errorf("sum = %d, want %d", s.Sum, want)
	}
	if got := s.Mean(); got != float64(s.Sum)/10 {
		t.Errorf("mean = %g", got)
	}
}

func TestBucketBound(t *testing.T) {
	for i, want := range map[int]uint64{0: 0, 1: 1, 2: 3, 3: 7, 4: 15} {
		if got := BucketBound(i); got != want {
			t.Errorf("BucketBound(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestHistogramMergeEqualsSingle is the merge-exactness property the
// sharded/unsharded byte-identity guarantee rests on: splitting a stream
// of observations across histograms and merging the snapshots yields the
// snapshot of one histogram that saw the whole stream — including the
// trailing-zero trim.
func TestHistogramMergeEqualsSingle(t *testing.T) {
	var whole Histogram
	parts := [4]Histogram{}
	vals := []uint64{0, 1, 5, 17, 64, 64, 300, 9000, 1 << 20}
	for i, v := range vals {
		whole.Observe(v)
		parts[i%4].Observe(v)
	}
	var merged HistogramSnapshot
	for i := range parts {
		merged.Merge(parts[i].Snapshot())
	}
	a, _ := json.Marshal(whole.Snapshot())
	b, _ := json.Marshal(merged)
	if string(a) != string(b) {
		t.Errorf("merged %s != single %s", b, a)
	}
}

func TestHooks(t *testing.T) {
	var nilHooks *Hooks
	nilHooks.Emit(Event{Name: "dropped"}) // must not panic

	h := &Hooks{}
	var mu sync.Mutex
	var got []Event
	h.Attach(func(e Event) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	})
	h.Attach(func(Event) {}) // second subscriber exercises the slice copy
	h.Emit(Event{Layer: "memctrl", Name: "corrected", Addr: 0x40, Value: 2})
	if len(got) != 1 || got[0].Name != "corrected" || got[0].Addr != 0x40 {
		t.Errorf("events = %+v", got)
	}
}

// TestHooksAttachRacesEmit churns Attach while many goroutines Emit:
// under -race this proves the copy-on-write subscriber list lets emitters
// run lock-free against concurrent attachment. Every subscriber attached
// before the final Emit must see it.
func TestHooksAttachRacesEmit(t *testing.T) {
	h := &Hooks{}
	const emitters = 4
	iters := 2000
	if testing.Short() {
		iters = 200
	}
	var delivered atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Emit(Event{Layer: "test", Name: "race", Addr: uint64(g), Value: uint64(i)})
			}
		}(g)
	}
	for i := 0; i < iters; i++ {
		h.Attach(func(Event) { delivered.Add(1) })
	}
	close(stop)
	wg.Wait()
	before := delivered.Load()
	h.Emit(Event{Name: "final"})
	if got := delivered.Load() - before; got != uint64(iters) {
		t.Errorf("final emit reached %d subscribers, want %d", got, iters)
	}
}

// TestHotPathAllocs is the telemetry half of the issue's zero-alloc
// guarantee: every primitive on the instrumented hot path — counter
// increment, histogram observation, and the unsubscribed hook emit —
// performs zero allocations.
func TestHotPathAllocs(t *testing.T) {
	var c Counter
	var h Histogram
	var nilHooks *Hooks
	attached := &Hooks{}
	attached.Attach(func(Event) {})
	for name, fn := range map[string]func(){
		"Counter.Inc":       func() { c.Inc() },
		"Histogram.Observe": func() { h.Observe(129) },
		"nil-Hooks.Emit":    func() { nilHooks.Emit(Event{Layer: "l", Name: "n", Addr: 1, Value: 2}) },
		"attached-Emit":     func() { attached.Emit(Event{Layer: "l", Name: "n", Addr: 1, Value: 2}) },
	} {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

func testSnapshot() Snapshot {
	var cc ControllerCounters
	cc.Loads.Add(100)
	cc.Stores.Add(40)
	cc.StoredCompressed.Add(30)
	cc.StoredRaw.Add(10)
	cc.CorrectedErrors.Add(2)
	cc.ValidCodewords.Observe(4)
	var lc CacheCounters
	lc.Hits.Add(75)
	lc.Misses.Add(25)
	var rc RegionCounters
	rc.Reads.Add(6)
	rc.Allocs.Add(3)
	rc.Frees.Add(1)
	rc.Live.Add(2)
	rc.HighWater.Observe(3)
	var dc DRAMCounters
	dc.Reads.Add(20)
	dc.RowHits.Add(15)
	dc.RowMisses.Add(5)
	dc.TotalLatency.Add(600)
	dc.AccessLatency.Observe(15)
	region := rc.Snapshot(9)
	dram := dc.Snapshot()
	s := Snapshot{Scheme: "cop", Controller: cc.Snapshot(), Cache: lc.Snapshot(), Region: &region, DRAM: &dram}
	s.Finalize()
	return s
}

func TestDerivedRates(t *testing.T) {
	s := testSnapshot()
	if s.Derived.LLCHitRate != 0.75 {
		t.Errorf("hit rate = %g", s.Derived.LLCHitRate)
	}
	if s.Derived.CompressedFraction != 0.75 {
		t.Errorf("compressed fraction = %g", s.Derived.CompressedFraction)
	}
	if s.Derived.CorrectedPerMillionLoads != 20000 {
		t.Errorf("corrected/M = %g", s.Derived.CorrectedPerMillionLoads)
	}
	if s.Derived.RowHitRate != 0.75 {
		t.Errorf("row hit rate = %g", s.Derived.RowHitRate)
	}
	if s.Derived.AvgAccessLatency != 30 {
		t.Errorf("avg latency = %g", s.Derived.AvgAccessLatency)
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	s := testSnapshot()
	a, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.JSON()
	if string(a) != string(b) {
		t.Error("JSON output not reproducible")
	}
	var back Snapshot
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Scheme != "cop" || back.Controller.Loads != 100 || back.Region.BlocksUsed != 9 {
		t.Errorf("round-trip lost data: %+v", back)
	}
}

func TestWritePrometheus(t *testing.T) {
	var sb strings.Builder
	if err := testSnapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`cop_controller_loads_total{scheme="cop"} 100`,
		`cop_cache_hits_total{scheme="cop"} 75`,
		`cop_region_blocks_used{scheme="cop"} 9`,
		`cop_dram_row_hits_total{scheme="cop"} 15`,
		"# TYPE cop_controller_valid_codewords histogram",
		`cop_dram_access_latency_cycles_bucket{scheme="cop",le="+Inf"} 1`,
		`cop_derived_llc_hit_rate{scheme="cop"} 0.75`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
}

type fixedSource struct{ s Snapshot }

func (f fixedSource) Snapshot() Snapshot { return f.s }

func TestHandlerAndRegistry(t *testing.T) {
	reg := &Registry{}
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Detached registry serves the zero snapshot, not an error.
	if code, body := get("/snapshot"); code != 200 || !strings.Contains(body, `"scheme": ""`) {
		t.Errorf("detached /snapshot: %d %s", code, body)
	}

	reg.Set(fixedSource{testSnapshot()})
	if code, body := get("/snapshot"); code != 200 || !strings.Contains(body, `"scheme": "cop"`) {
		t.Errorf("/snapshot: %d %s", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "cop_controller_loads_total") {
		t.Errorf("/metrics: %d %.200s", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline: %d", code)
	}
	if code, _ := get("/debug/vars"); code != 200 {
		t.Errorf("/debug/vars: %d", code)
	}
}

func TestNetStatsMergeAndExposition(t *testing.T) {
	var c NetCounters
	c.Frames.Add(10)
	c.Ops.Add(1280)
	c.BytesIn.Add(4096)
	c.BytesOut.Add(8192)
	c.PoolHits.Add(9)
	c.PoolMisses.Add(1)
	c.Inflight.Add(2)
	c.MaxInflight.Observe(5)

	a := Snapshot{Net: func() *NetStats { n := c.Snapshot(); return &n }()}
	b := Snapshot{Net: &NetStats{Frames: 5, Ops: 640, BytesIn: 100, BytesOut: 200,
		PoolHits: 5, Inflight: 1, MaxInflight: 7}}
	a.Merge(b)

	n := a.Net
	if n.Frames != 15 || n.Ops != 1920 || n.BytesIn != 4196 || n.BytesOut != 8392 {
		t.Errorf("merged sums wrong: %+v", n)
	}
	if n.PoolHits != 14 || n.PoolMisses != 1 {
		t.Errorf("merged pool counters wrong: %+v", n)
	}
	if n.Inflight != 3 {
		t.Errorf("inflight level = %d, want 3", n.Inflight)
	}
	if n.MaxInflight != 7 {
		t.Errorf("max inflight = %d, want max-merge 7", n.MaxInflight)
	}

	// A snapshot without a Net section stays without one; merging a Net
	// section into it materializes the field.
	var empty Snapshot
	empty.Merge(Snapshot{})
	if empty.Net != nil {
		t.Error("merge of two netless snapshots materialized Net")
	}
	empty.Merge(a)
	if empty.Net == nil || empty.Net.Frames != 15 {
		t.Errorf("merge did not materialize Net: %+v", empty.Net)
	}

	var sb strings.Builder
	if err := a.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`cop_net_frames_total{scheme=""} 15`,
		`cop_net_ops_total{scheme=""} 1920`,
		`cop_net_inflight{scheme=""} 3`,
		`cop_net_max_inflight{scheme=""} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
}
