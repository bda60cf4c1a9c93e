package copnet

// Observability tests: the trace-context wire field, end-to-end flow
// joining across client → wire → shard → DRAM, per-stage latency
// attribution, per-tenant metrics export, and slow-frame capture.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"cop/internal/memctrl"
	"cop/internal/trace"
)

// TestRequestHeaderVersions pins the wire trace-context contract: both
// request header versions parse (version 1 as trace id 0), the response
// parser stays strictly version 1, truncated traced headers refuse, and
// the derived span ids are deterministic and disjoint.
func TestRequestHeaderVersions(t *testing.T) {
	const tid = 0xFEEDFACE12345678

	v2 := appendRead(tracedHeader(tid), 64)
	ops, gotTid, err := decodeRequestInto(nil, v2)
	if err != nil {
		t.Fatalf("traced frame rejected: %v", err)
	}
	if gotTid != tid || len(ops) != 1 || ops[0].kind != OpRead || ops[0].addr != 64 {
		t.Fatalf("traced frame decoded tid=%#x ops=%+v", gotTid, ops)
	}

	v1 := appendRead(frameHeader(), 64)
	if _, gotTid, err = decodeRequestInto(nil, v1); err != nil || gotTid != 0 {
		t.Fatalf("v1 frame: tid=%d err=%v, want 0, nil", gotTid, err)
	}

	if _, _, err := decodeRequestInto(nil, []byte{wireMagic, wireVersionTraced, 1, 2, 3}); err == nil {
		t.Error("truncated traced header accepted")
	}
	if _, err := checkHeader(tracedHeader(tid)); err == nil {
		t.Error("response parser accepted a version-2 header")
	}

	// Span derivation: frame span and the first ops' spans form a
	// contiguous, distinct id run; both sides compute them identically.
	fs := FrameSpan(tid)
	for i := 0; i < 4; i++ {
		if got := OpSpan(tid, i); got != fs+1+uint64(i) {
			t.Errorf("OpSpan(%d) = %#x, want %#x", i, got, fs+1+uint64(i))
		}
	}
}

// TestTraceFlowEndToEnd is the tentpole acceptance pin: one traced client
// batch produces a single trace in which a request's flow ids join the
// client submit, the wire frame, the server stage spans, the shard route,
// and the DRAM records — and the whole thing exports as one valid
// Perfetto track set with flow arrows carrying those ids.
func TestTraceFlowEndToEnd(t *testing.T) {
	tr := trace.New(trace.Config{RingSize: 1 << 14})
	srv := NewServer(WithServerTracer(tr))
	// LLC small enough (64 lines) that reading back the first of 128
	// written blocks must miss and fill from DRAM.
	if _, err := srv.CreateTenant("default", TenantConfig{
		Scheme: "cop-er", Shards: 2, LLCBytes: 4096, LLCWays: 2,
	}); err != nil {
		t.Fatal(err)
	}
	hs := serveH2C(t, srv)
	c, err := Dial(hs.URL, WithClientTracer(tr))
	if err != nil {
		t.Fatal(err)
	}

	// Populate untraced (recorder off): 128 blocks, then flush, so the
	// traced reads below find their lines evicted to DRAM.
	b := c.NewBatch()
	for i := 0; i < 128; i++ {
		b.Write(uint64(i)*BlockBytes, block(byte(i)))
	}
	b.Flush()
	if _, err := b.Do(); err != nil {
		t.Fatal(err)
	}
	if b.TraceID() != 0 {
		t.Fatal("batch traced while the recorder is off")
	}

	tr.Start()
	b.Reset()
	tid := b.TraceID()
	if tid == 0 {
		t.Fatal("recording client produced an untraced batch")
	}
	const reads = 32
	for i := 0; i < reads; i++ {
		b.Read(uint64(i) * BlockBytes)
	}
	rs, err := b.Do()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("read %d: %v", i, r.Err)
		}
		if !bytes.Equal(r.Data, block(byte(i))) {
			t.Fatalf("read %d mangled", i)
		}
	}
	tr.Stop()
	recs := tr.Snapshot()

	// Frame-level records on both sides of the wire, under one span.
	frameSpan := FrameSpan(tid)
	kinds := map[trace.Kind]int{}
	stages := map[uint32]bool{}
	for _, r := range recs {
		if r.Flow != frameSpan {
			continue
		}
		kinds[r.Kind]++
		if r.Kind == trace.KindServeStage {
			stages[r.Aux] = true
		}
	}
	for _, k := range []trace.Kind{trace.KindNetFrameSend, trace.KindNetFrameBegin,
		trace.KindNetFrameEnd, trace.KindNetFrameRecv} {
		if kinds[k] == 0 {
			t.Errorf("frame span missing a %v record", k)
		}
	}
	if len(stages) != int(trace.NumServeStages) {
		t.Errorf("frame span carries %d stage spans, want %d", len(stages), trace.NumServeStages)
	}

	// Op-level joining: at least one read's span must link the client
	// submit (net layer), the shard route, and a DRAM record.
	joined := -1
	for i := 0; i < reads && joined < 0; i++ {
		span := OpSpan(tid, i)
		var hasNet, hasShard, hasDRAM bool
		for _, r := range recs {
			if r.Flow != span {
				continue
			}
			switch {
			case r.Kind == trace.KindNetOp:
				hasNet = true
			case r.Kind == trace.KindShardRoute:
				hasShard = true
			case r.Kind.Layer() == trace.LayerDRAM:
				hasDRAM = true
			}
		}
		if hasNet && hasShard && hasDRAM {
			joined = i
		}
	}
	if joined < 0 {
		t.Fatal("no op span joins client submit → shard route → DRAM access")
	}

	// The merged trace exports as valid Chrome JSON with flow arrows
	// ("s"/"f" pairs) carrying the joined span id across tracks.
	var buf bytes.Buffer
	if err := trace.ExportChromeJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ValidateChromeJSON(buf.Bytes()); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
			ID    uint64 `json:"id"`
			Name  string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	span := OpSpan(tid, joined)
	var arrowS, arrowF, stageSpans int
	for _, ev := range doc.TraceEvents {
		if ev.ID == span && ev.Phase == "s" {
			arrowS++
		}
		if ev.ID == span && ev.Phase == "f" {
			arrowF++
		}
		if strings.HasPrefix(ev.Name, "stage:") {
			stageSpans++
		}
	}
	if arrowS == 0 || arrowF == 0 {
		t.Errorf("flow arrows for span %#x: %d starts, %d finishes, want both", span, arrowS, arrowF)
	}
	if stageSpans < int(trace.NumServeStages) {
		t.Errorf("%d stage: events exported, want >= %d", stageSpans, trace.NumServeStages)
	}

	// Stage histograms observed the frame on the tenant.
	tn, _ := srv.Tenant("default")
	snap := tn.snapshot()
	if snap.Serve == nil || snap.Serve.Frame.Count < 2 {
		t.Fatalf("tenant serve stats missing or undercounted: %+v", snap.Serve)
	}
	stageNames := map[string]bool{}
	for _, s := range snap.Serve.Stages {
		stageNames[s.Name] = true
	}
	for i := 0; i < int(trace.NumServeStages); i++ {
		if !stageNames[trace.ServeStage(i).String()] {
			t.Errorf("serve stats missing stage %q", trace.ServeStage(i))
		}
	}
	var opNames []string
	for _, o := range snap.Serve.Ops {
		opNames = append(opNames, o.Name)
	}
	for _, want := range []string{"read", "write", "flush"} {
		found := false
		for _, n := range opNames {
			found = found || n == want
		}
		if !found {
			t.Errorf("serve op histograms %v missing %q", opNames, want)
		}
	}
}

// slowReadStore delays every read, making any frame containing one slower
// than the capture threshold.
type slowReadStore struct {
	fixedStore
	delay time.Duration
}

func (s *slowReadStore) ReadInto(dst []byte, addr uint64) (memctrl.ReadInfo, error) {
	time.Sleep(s.delay)
	return s.fixedStore.ReadInto(dst, addr)
}

// TestSlowFrameCapture pins the tail-latency capturer: a frame over the
// threshold lands in /debug/slowlog with its stage breakdown, freezes the
// flight recorder with a parseable black-box dump, and the threshold is
// retunable over POST.
func TestSlowFrameCapture(t *testing.T) {
	tr := trace.New(trace.Config{RingSize: 1024})
	srv := NewServer(WithServerTracer(tr), WithSlowFrames(SlowFrameConfig{
		Threshold: 200 * time.Microsecond,
		LogSize:   8,
		Freeze:    true,
	}))
	if _, err := srv.AddTenant("slow", &slowReadStore{delay: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	hs := serveH2C(t, srv)
	tr.Start()

	c, err := Dial(hs.URL, WithTenant("slow"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(0); err != nil {
		t.Fatal(err)
	}

	var log struct {
		ThresholdNs int64       `json:"threshold_ns"`
		Total       uint64      `json:"total"`
		Entries     []SlowFrame `json:"entries"`
	}
	getLog := func() {
		t.Helper()
		resp, err := http.Get(hs.URL + "/debug/slowlog")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		log = struct {
			ThresholdNs int64       `json:"threshold_ns"`
			Total       uint64      `json:"total"`
			Entries     []SlowFrame `json:"entries"`
		}{}
		if err := json.NewDecoder(resp.Body).Decode(&log); err != nil {
			t.Fatal(err)
		}
	}
	getLog()
	if log.Total == 0 || len(log.Entries) == 0 {
		t.Fatalf("slow frame not captured: %+v", log)
	}
	e := log.Entries[len(log.Entries)-1]
	if e.Tenant != "slow" || e.Ops != 1 {
		t.Errorf("captured entry %+v, want tenant=slow ops=1", e)
	}
	if e.TotalNs < uint64(2*time.Millisecond) {
		t.Errorf("captured total %dns, want >= 2ms", e.TotalNs)
	}
	if e.Stages.WindowNs == 0 {
		t.Error("captured entry has no window-stage attribution")
	}
	if e.Stages.WindowNs > e.TotalNs {
		t.Errorf("window stage %dns exceeds total %dns", e.Stages.WindowNs, e.TotalNs)
	}

	// The freeze produced a black-box dump that round-trips through the
	// binary format with the slow-frame reason.
	d := tr.LastDump()
	if d == nil {
		t.Fatal("no flight-recorder dump after slow frame")
	}
	if d.Reason != trace.ReasonSlowFrame {
		t.Errorf("dump reason %v, want slow-frame", d.Reason)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.ReadDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("dump does not parse: %v", err)
	}
	if rd.Reason != trace.ReasonSlowFrame || len(rd.Records) != len(d.Records) {
		t.Errorf("dump round-trip: reason %v, %d records, want %v, %d",
			rd.Reason, len(rd.Records), d.Reason, len(d.Records))
	}

	// Retune the threshold over POST and read it back.
	body := bytes.NewReader([]byte(`{"threshold_ns": 5000000000}`))
	resp, err := http.Post(hs.URL+"/debug/slowlog", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /debug/slowlog status %d", resp.StatusCode)
	}
	getLog()
	if log.ThresholdNs != 5000000000 {
		t.Errorf("threshold after POST %d, want 5000000000", log.ThresholdNs)
	}
	// A frame under the new 5s threshold is not captured.
	before := log.Total
	if _, err := c.Read(64); err != nil {
		t.Fatal(err)
	}
	getLog()
	if log.Total != before {
		t.Errorf("frame under threshold captured: total %d -> %d", before, log.Total)
	}
}

// TestPerTenantMetricsAndSnapshotFilter pins the multi-tenant export
// surface: /metrics carries merged families plus tenant-labeled variants
// and the Go runtime gauges; /snapshot?tenant= filters to one namespace.
func TestPerTenantMetricsAndSnapshotFilter(t *testing.T) {
	_, hs := testServer(t, "red", "blue")
	red := testClient(t, hs, WithTenant("red"))
	blue := testClient(t, hs, WithTenant("blue"))
	if err := red.Write(0, block(1)); err != nil {
		t.Fatal(err)
	}
	if err := blue.Write(0, block(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := red.Read(0); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`cop_net_frames_total{scheme="cop-er"} `,             // merged totals, unlabeled
		`cop_net_frames_total{scheme="cop-er",tenant="red"}`, // per-tenant variant
		`tenant="blue"`,
		`cop_serve_frame_nanos_count{scheme="cop-er",tenant="red"}`,
		`cop_serve_stage_nanos_bucket`, // per-stage histogram family
		`stage="window"`,
		`op="read"`,
		"go_goroutines", // runtime health gauges
		"go_gc_pause_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Tenant filter on /snapshot.
	resp, err = http.Get(hs.URL + "/snapshot?tenant=red")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Scheme string `json:"scheme"`
		Serve  *struct {
			Stages []struct {
				Name string `json:"name"`
			} `json:"stages"`
		} `json:"serve"`
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Scheme != "cop-er" || snap.Serve == nil || len(snap.Serve.Stages) != int(trace.NumServeStages) {
		t.Fatalf("filtered snapshot %+v", snap)
	}

	resp, err = http.Get(hs.URL + "/snapshot?tenant=ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown tenant filter status %d, want 404", resp.StatusCode)
	}
}
