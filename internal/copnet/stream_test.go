package copnet

// Stream-transport tests: per-frame admission against the drain fence,
// stream death with frames in flight, and the length-prefix cap.

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cop/internal/memctrl"
)

// discardWriter is an allocation-free http.ResponseWriter and Flusher that
// keeps the last record written.
type discardWriter struct {
	h    http.Header
	last []byte
}

func newDiscardWriter() *discardWriter { return &discardWriter{h: http.Header{}} }

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(int)     {}
func (d *discardWriter) Flush()              {}
func (d *discardWriter) Write(p []byte) (int, error) {
	d.last = append(d.last[:0], p...)
	return len(p), nil
}

// streamRecord prefixes a request frame with its length.
func streamRecord(frame []byte) []byte {
	return append(appendU32(nil, uint32(len(frame))), frame...)
}

// waitStreams waits for the server's open-stream registry to reach n.
func waitStreams(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.streamMu.Lock()
		got := len(srv.streams)
		srv.streamMu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d open streams, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainEndsIdleStream: an open but idle stream holds no admission, so
// Drain returns at once, and it ends the stream rather than leaving it
// parked; the next frame's reopen then bounces off the fence.
func TestDrainEndsIdleStream(t *testing.T) {
	srv, hs := testServer(t)
	c := testClient(t, hs)
	if err := c.Write(0, block(1)); err != nil {
		t.Fatal(err)
	}
	waitStreams(t, srv, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("drain took %v with an idle stream open", d)
	}
	waitStreams(t, srv, 0)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.sendMu.Lock()
		open := c.sess != nil
		c.sendMu.Unlock()
		if !open {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never saw its stream end")
		}
	}
	err := c.Write(64, block(2))
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("write after drain: %v, want a 503 on reopen", err)
	}
}

// TestFrameRefusedWhileDraining: a frame arriving on an open stream after
// the flip fails as a whole with the server's message, executes nothing,
// and leaves the stream usable.
func TestFrameRefusedWhileDraining(t *testing.T) {
	srv, hs := testServer(t)
	c := testClient(t, hs)
	if err := c.Write(0, block(1)); err != nil {
		t.Fatal(err)
	}
	srv.draining.Store(true)
	err := c.Write(0, block(2))
	srv.draining.Store(false)
	if err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("frame during drain: %v, want a draining refusal", err)
	}
	got, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block(1)) {
		t.Error("the refused frame's write executed")
	}
	waitStreams(t, srv, 1) // the same stream carried all three frames
}

// TestStreamFollowsTenantRemoval: frames on a stream opened before its
// tenant was dropped are refused, not served by the removed memory.
func TestStreamFollowsTenantRemoval(t *testing.T) {
	srv, hs := testServer(t, "default", "gone")
	c := testClient(t, hs, WithTenant("gone"))
	if err := c.Write(0, block(1)); err != nil {
		t.Fatal(err)
	}
	if err := srv.RemoveTenant("gone"); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(0, block(2)); err == nil || !strings.Contains(err.Error(), "no tenant") {
		t.Fatalf("frame for a dropped tenant: %v, want a no-tenant refusal", err)
	}
}

// gateStore blocks every read until released, announcing each arrival.
// Its block is locked: the frame the gate held still runs on the dead
// stream's handler while the next stream serves.
type gateStore struct {
	fixedStore
	mu      sync.Mutex
	entered chan struct{}
	release chan struct{}
}

func (g *gateStore) ReadInto(dst []byte, addr uint64) (memctrl.ReadInfo, error) {
	g.entered <- struct{}{}
	<-g.release
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fixedStore.ReadInto(dst, addr)
}

func (g *gateStore) Write(addr uint64, data []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fixedStore.Write(addr, data)
}

// TestStreamDeathFailsPending: when the stream dies with frames in flight
// — one executing, one queued behind it — both fail, and the next frame
// opens a new stream.
func TestStreamDeathFailsPending(t *testing.T) {
	srv := NewServer()
	g := &gateStore{entered: make(chan struct{}, 1), release: make(chan struct{})}
	if _, err := srv.AddTenant("gate", g); err != nil {
		t.Fatal(err)
	}
	hs := serveH2C(t, srv)
	c := testClient(t, hs, WithTenant("gate"))

	b1, b2 := c.NewBatch(), c.NewBatch()
	p1 := b1.Read(0).Start()
	<-g.entered
	p2 := b2.Write(64, block(3)).Start()
	hs.CloseClientConnections()
	if _, err := p1.Wait(); err == nil {
		t.Error("executing frame survived its stream")
	}
	if _, err := p2.Wait(); err == nil {
		t.Error("queued frame survived its stream")
	}
	close(g.release)

	if err := c.Write(128, block(4)); err != nil {
		t.Fatalf("write on a reopened stream: %v", err)
	}
	if rs, err := b1.Read(128).Do(); err != nil || rs[0].Err != nil || !bytes.Equal(rs[0].Data, block(4)) {
		t.Fatalf("read on a reopened stream: %v", err)
	}
}

// TestOversizePrefixRefused: a length prefix above the frame cap gets a
// failed record naming the cap and ends the stream, and nothing is
// allocated for the claimed length.
func TestOversizePrefixRefused(t *testing.T) {
	srv := NewServer()
	sc := &frameScratch{}
	w := newDiscardWriter()
	body := append(appendU32(nil, maxFrameBytes+1), make([]byte, 64)...)
	srv.serveStream("cap", sc, bytes.NewReader(body), w, http.NewResponseController(w))
	if cap(sc.body) != 0 {
		t.Errorf("refused frame grew the body buffer to %d bytes", cap(sc.body))
	}
	if len(w.last) < streamPrefix {
		t.Fatal("no failed record written")
	}
	n := binary.LittleEndian.Uint32(w.last)
	if n&recordFailed == 0 || !strings.Contains(string(w.last[streamPrefix:]), "exceeds") {
		t.Fatalf("record %q (prefix %#x), want a failed record naming the cap", w.last[streamPrefix:], n)
	}
}
