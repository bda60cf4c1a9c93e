package copnet

// Integration tests run the real server core and the real client against
// each other — over httptest loopback listeners, so the bytes cross the
// full encode → HTTP → decode → shard-window → respond path, exactly as
// the copserve/copload binaries exercise it.

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cop/internal/cli"
	"cop/internal/faultsim"
	"cop/internal/reliability"
	"cop/internal/workload"
)

func testServer(t *testing.T, tenants ...string) (*Server, *httptest.Server) {
	t.Helper()
	if len(tenants) == 0 {
		tenants = []string{"default"}
	}
	srv := NewServer()
	for _, name := range tenants {
		// Small LLC so traffic actually reaches the DRAM image; 2 shards
		// keeps the window machinery honest without needing many cores.
		if _, err := srv.CreateTenant(name, TenantConfig{Scheme: "cop-er", Shards: 2, LLCBytes: 64 * 1024, LLCWays: 8}); err != nil {
			t.Fatal(err)
		}
	}
	return srv, serveH2C(t, srv)
}

// serveH2C serves srv on a loopback listener speaking HTTP/1.1 and
// unencrypted HTTP/2, as copserve's plaintext listener does. Cleanup
// closes the server core first: its drain ends the clients' open streams,
// which httptest's Close would otherwise wait on.
func serveH2C(tb testing.TB, srv *Server) *httptest.Server {
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Config.Protocols = new(http.Protocols)
	hs.Config.Protocols.SetHTTP1(true)
	hs.Config.Protocols.SetUnencryptedHTTP2(true)
	hs.Start()
	tb.Cleanup(func() { _ = srv.Close(); hs.Close() })
	return hs
}

func testClient(t *testing.T, hs *httptest.Server, opts ...ClientOption) *Client {
	t.Helper()
	c, err := Dial(hs.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func block(seed byte) []byte {
	b := make([]byte, BlockBytes)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// TestWireRoundTrip pins the frame codec: every op kind encodes, decodes,
// and round-trips its payload.
func TestWireRoundTrip(t *testing.T) {
	buf := frameHeader()
	buf = appendRead(buf, 64)
	buf = appendWrite(buf, 128, block(3))
	buf = appendReadRange(buf, 0, 100)
	buf = appendWriteRange(buf, 256, []byte("hello, protected memory"))
	buf = appendFlush(buf)
	buf = appendAddrOp(buf, OpSettle, 64)
	buf = appendAddrOp(buf, OpStoredKind, 64)
	buf = appendInjectBit(buf, 64, 17)
	buf = appendInjectChip(buf, 64, 3, 0x5A)

	ops, err := decodeRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []OpKind{OpRead, OpWrite, OpReadRange, OpWriteRange, OpFlush, OpSettle, OpStoredKind, OpInjectBit, OpInjectChip}
	if len(ops) != len(wantKinds) {
		t.Fatalf("decoded %d ops, want %d", len(ops), len(wantKinds))
	}
	for i, k := range wantKinds {
		if ops[i].kind != k {
			t.Errorf("op %d: kind %v, want %v", i, ops[i].kind, k)
		}
	}
	if ops[0].addr != 64 || ops[1].addr != 128 {
		t.Errorf("addresses: got %d, %d", ops[0].addr, ops[1].addr)
	}
	if !bytes.Equal(ops[1].data, block(3)) {
		t.Error("write payload mangled")
	}
	if ops[2].n != 100 {
		t.Errorf("range length: got %d, want 100", ops[2].n)
	}
	if string(ops[3].data) != "hello, protected memory" {
		t.Error("range payload mangled")
	}
	if ops[7].arg != 17 {
		t.Errorf("inject bit: got %d, want 17", ops[7].arg)
	}
	if ops[8].arg != 3 || ops[8].pat != 0x5A {
		t.Errorf("inject chip: got arg=%d pat=%#x", ops[8].arg, ops[8].pat)
	}

	// Truncated and corrupted frames must refuse, not panic.
	if _, err := decodeRequest(buf[:len(buf)-3]); err == nil {
		t.Error("truncated frame accepted")
	}
	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xFF
	if _, err := decodeRequest(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

// TestClientServerRoundTrip drives writes, reads, flush, and ranges
// through the full network path and checks every byte.
func TestClientServerRoundTrip(t *testing.T) {
	_, hs := testServer(t)
	c := testClient(t, hs)

	want := map[uint64][]byte{}
	for i := 0; i < 64; i++ {
		addr := uint64(i) * BlockBytes
		data := block(byte(i))
		want[addr] = data
		if err := c.Write(addr, data); err != nil {
			t.Fatalf("write %#x: %v", addr, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for addr, data := range want {
		got, err := c.Read(addr)
		if err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %#x: content mismatch", addr)
		}
	}

	// Multi-op window: interleaved reads and writes in one frame, results
	// in enqueue order, same-block ordering preserved.
	b := c.NewBatch()
	fresh := block(0xAA)
	b.Write(0, fresh).Read(0).Read(64)
	rs, err := b.Do()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d results, want 3", len(rs))
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	if !bytes.Equal(rs[1].Data, fresh) {
		t.Error("windowed read did not observe the same-window write")
	}
	if !bytes.Equal(rs[2].Data, want[64]) {
		t.Error("windowed read of untouched block mangled")
	}

	// Byte ranges across block boundaries.
	payload := []byte("range payload spanning more than one sixty-four byte block boundary")
	if err := c.WriteBytes(1000, payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadBytes(1000, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("range round-trip mangled")
	}

	// Telemetry flows back.
	snap := c.Snapshot()
	if snap.Scheme != "cop-er" {
		t.Errorf("snapshot scheme %q, want cop-er", snap.Scheme)
	}
	if snap.Controller.Stores == 0 {
		t.Error("snapshot records no stores")
	}
}

// TestBlockEndpoints exercises the single-block REST surface (curl's view
// of the service).
func TestBlockEndpoints(t *testing.T) {
	_, hs := testServer(t)
	data := block(7)
	url := hs.URL + "/v1/tenants/default/block/64"

	req, _ := http.NewRequest(http.MethodPut, url, bytes.NewReader(data))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}

	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, BlockBytes)
	if _, err := io.ReadFull(resp.Body, got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !bytes.Equal(got, data) {
		t.Error("block GET mangled")
	}
}

// TestTenantIsolation pins the namespace property: the same address in
// two tenants holds independent content.
func TestTenantIsolation(t *testing.T) {
	_, hs := testServer(t, "red", "blue")
	red := testClient(t, hs, WithTenant("red"))
	blue := testClient(t, hs, WithTenant("blue"))

	if err := red.Write(0, block(0x11)); err != nil {
		t.Fatal(err)
	}
	if err := blue.Write(0, block(0x22)); err != nil {
		t.Fatal(err)
	}
	r, err := red.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := blue.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, block(0x11)) || !bytes.Equal(bl, block(0x22)) {
		t.Fatal("tenants share state")
	}
	if _, err := red.Read(0); err != nil {
		t.Fatal(err)
	}
	if c := testClient(t, hs, WithTenant("ghost")); c.Ready() {
		if _, err := c.Read(0); err == nil {
			t.Fatal("unknown tenant served")
		}
	}
}

// TestAdminLifecycle walks the control plane: create, list, migrate,
// reshard, scrub, drop — against live traffic state.
func TestAdminLifecycle(t *testing.T) {
	_, hs := testServer(t)
	admin := testClient(t, hs)

	if err := admin.CreateTenant("worker", TenantConfig{Scheme: "cop", Shards: 2, LLCBytes: 64 * 1024, LLCWays: 8}); err != nil {
		t.Fatal(err)
	}
	if err := admin.CreateTenant("worker", TenantConfig{}); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	infos, err := admin.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "default" || infos[1].Name != "worker" {
		t.Fatalf("tenant listing %+v", infos)
	}
	if infos[1].Scheme != "cop" {
		t.Fatalf("worker scheme %q, want cop", infos[1].Scheme)
	}

	// Populate, then migrate live and verify content survives.
	w := testClient(t, hs, WithTenant("worker"))
	want := map[uint64][]byte{}
	for i := 0; i < 32; i++ {
		addr := uint64(i) * BlockBytes
		want[addr] = block(byte(i + 100))
		if err := w.Write(addr, want[addr]); err != nil {
			t.Fatal(err)
		}
	}
	if err := admin.MigrateTenant("worker", "ecc-region", 8); err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	if snap.Scheme != "ecc-region" {
		t.Fatalf("post-migration scheme %q", snap.Scheme)
	}
	for addr, data := range want {
		got, err := w.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("block %#x lost in migration", addr)
		}
	}

	if err := admin.ReshardTenant("worker", 4); err != nil {
		t.Fatal(err)
	}
	for addr, data := range want {
		got, err := w.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("block %#x lost in reshard", addr)
		}
	}

	if err := admin.ScrubTenant("worker", "start", 1000, 64); err != nil {
		t.Fatal(err)
	}
	if err := admin.ScrubTenant("worker", "start", 0, 0); err == nil {
		t.Fatal("double scrub start accepted")
	}
	if err := admin.ScrubTenant("worker", "stop", 0, 0); err != nil {
		t.Fatal(err)
	}

	if err := admin.DropTenant("worker"); err != nil {
		t.Fatal(err)
	}
	if infos, _ := admin.Tenants(); len(infos) != 1 {
		t.Fatalf("tenant not dropped: %+v", infos)
	}
}

// TestDrainUnderFire is the graceful-shutdown durability pin: workers
// hammer batched writes while Drain fires mid-stream; afterwards, every
// write the server ACKED must be durable in the tenant's quiesced memory.
func TestDrainUnderFire(t *testing.T) {
	srv, hs := testServer(t)

	const workers = 4
	type acked struct {
		addr uint64
		data []byte
	}
	var mu sync.Mutex
	var acks []acked
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := testClient(t, hs)
			<-start
			b := c.NewBatch()
			// Unique address per write, so "is it durable" has exactly
			// one right answer per block.
			for seq := 0; ; seq++ {
				var addrs []uint64
				var blocks [][]byte
				for i := 0; i < 8; i++ {
					n := uint64(w)<<32 | uint64(seq*8+i)
					addr := n * BlockBytes
					data := make([]byte, BlockBytes)
					binary.LittleEndian.PutUint64(data, n)
					data[63] = byte(w)
					addrs = append(addrs, addr)
					blocks = append(blocks, data)
					b.Write(addr, data)
				}
				rs, err := b.Do()
				if err != nil {
					return // 503 after the drain fence: nothing acked, clean stop
				}
				mu.Lock()
				for i, r := range rs {
					if r.Err == nil {
						acks = append(acks, acked{addrs[i], blocks[i]})
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	close(start)
	// Let traffic build: drain once some writes are acknowledged.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := len(acks)
		mu.Unlock()
		if n >= 64 || time.Now().After(deadline) {
			break
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	tn, _ := srv.Tenant("default")
	if !tn.Batched().Quiesced() {
		t.Fatal("tenant not quiesced after drain")
	}
	// Resume to read back: the drain fenced the shards; verification
	// re-fills every block from the DRAM image the drain flushed.
	tn.Batched().Resume()
	if len(acks) == 0 {
		t.Fatal("no acknowledged writes — test raced drain too early")
	}
	for _, a := range acks {
		got, err := tn.Batched().Read(a.addr)
		if err != nil {
			t.Fatalf("acked block %#x unreadable: %v", a.addr, err)
		}
		if !bytes.Equal(got, a.data) {
			t.Fatalf("acked block %#x not durable", a.addr)
		}
	}
	t.Logf("verified %d acknowledged writes durable across drain", len(acks))

	// The fence stays down: new traffic bounces, readiness reports it.
	if srv.Ready() {
		t.Error("server ready after drain")
	}
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz status %d after drain, want 503", resp.StatusCode)
	}
	if err := testClient(t, hs).Write(0, block(1)); err == nil {
		t.Error("write accepted after drain")
	}
}

// TestSoakEndToEnd pins the acceptance criterion in-process: a seeded
// fault campaign whose every settle/inject/read crosses the wire, against
// a tenant concurrently serving oracle-checked traffic — zero silent
// corruptions on both planes.
func TestSoakEndToEnd(t *testing.T) {
	_, hs := testServer(t)

	// Verified traffic on a disjoint high range while the campaign runs.
	stopTraffic := make(chan struct{})
	trafficErr := make(chan error, 1)
	go func() {
		c := testClient(t, hs)
		prof := workload.MustGet("gcc")
		const base = uint64(1) << 26
		version := uint32(1)
		for {
			select {
			case <-stopTraffic:
				trafficErr <- nil
				return
			default:
			}
			for i := 0; i < 32; i++ {
				addr := (base + uint64(i)) * BlockBytes
				if err := c.Write(addr, prof.Block(addr, version)); err != nil {
					trafficErr <- fmt.Errorf("traffic write: %w", err)
					return
				}
			}
			for i := 0; i < 32; i++ {
				addr := (base + uint64(i)) * BlockBytes
				got, err := c.Read(addr)
				if err != nil {
					trafficErr <- fmt.Errorf("traffic read: %w", err)
					return
				}
				if !bytes.Equal(got, prof.Block(addr, version)) {
					trafficErr <- fmt.Errorf("traffic oracle mismatch at %#x", addr)
					return
				}
			}
			version++
		}
	}()

	scheme, err := cli.SingleScheme("cop-er")
	if err != nil {
		t.Fatal(err)
	}
	campaign := testClient(t, hs)
	res, err := faultsim.Run(faultsim.Config{
		Mode:       scheme.Mode,
		Seed:       0x50AC,
		Blocks:     512,
		Injections: 80,
		Workload:   "gcc",
		Memory:     campaign,
		Modes:      []reliability.FailureMode{reliability.SingleBit},
	})
	close(stopTraffic)
	if err != nil {
		t.Fatal(err)
	}
	if terr := <-trafficErr; terr != nil {
		t.Fatal(terr)
	}
	if s := res.Outcomes(faultsim.Silent); s != 0 {
		t.Errorf("%d silent corruptions", s)
	}
	if a := res.Outcomes(faultsim.FalseAlias); a != 0 {
		t.Errorf("%d false-alias corruptions", a)
	}
	if res.BackgroundMismatches != 0 {
		t.Errorf("%d background oracle mismatches", res.BackgroundMismatches)
	}
	if got := res.Outcomes(faultsim.Corrected) + res.Outcomes(faultsim.Masked) + res.Outcomes(faultsim.Detected); got == 0 {
		t.Error("campaign classified nothing — injections did not reach the tenant")
	}
}

// TestHTTP2Negotiation pins the stdlib-only h2 path: a TLS listener with
// a self-minted cert negotiates HTTP/2 via ALPN, and the pinned-cert
// client verifies it.
func TestHTTP2Negotiation(t *testing.T) {
	srv := NewServer()
	if _, err := srv.CreateTenant("default", TenantConfig{Scheme: "cop-er", Shards: 2, LLCBytes: 64 * 1024, LLCWays: 8}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cert, certPEM, err := SelfSignedCert()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{
		Handler:   srv.Handler(),
		TLSConfig: &tls.Config{Certificates: []tls.Certificate{cert}},
	}
	go func() { _ = hs.ServeTLS(ln, "", "") }()
	defer hs.Close()
	base := "https://" + ln.Addr().String()

	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(certPEM) {
		t.Fatal("certificate PEM rejected")
	}
	hc := &http.Client{Transport: &http.Transport{
		TLSClientConfig:   &tls.Config{RootCAs: pool},
		ForceAttemptHTTP2: true,
	}}
	resp, err := hc.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.ProtoMajor != 2 {
		t.Fatalf("negotiated %s, want HTTP/2", resp.Proto)
	}

	// The copnet client itself over the same pinned-cert h2 path.
	c, err := Dial(base, WithServerCert(certPEM))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(0, block(9)); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block(9)) {
		t.Fatal("h2 round-trip mangled")
	}
}
