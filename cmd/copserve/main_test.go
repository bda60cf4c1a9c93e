package main

import (
	"bytes"
	"errors"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cop/internal/copnet"
)

// streamCounter counts the requests that open a client stream.
type streamCounter struct {
	next  http.RoundTripper
	opens atomic.Int64
}

func (s *streamCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/stream") {
		s.opens.Add(1)
	}
	return s.next.RoundTrip(req)
}

// TestServeEdgesAndDrain boots the real command on a plaintext listener
// and checks its edges: a half-sent HTTP/1.1 header is cut off within the
// header timeout, a client stream left idle past that timeout still
// serves its next frame on the same stream, and SIGTERM drains the
// service and makes run return.
func TestServeEdgesAndDrain(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "", "-plain-addr", "127.0.0.1:0", "-shards", "2"}, &out, ready)
	}()
	var base string
	select {
	case base = <-ready:
	case err := <-done:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("copserve did not come up")
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: copserve\r\n")); err != nil {
			t.Error(err)
			return
		}
		start := time.Now()
		conn.SetReadDeadline(start.Add(readHeaderTimeout + 3*time.Second))
		buf := make([]byte, 256)
		for {
			if _, err = conn.Read(buf); err != nil {
				break
			}
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Errorf("half-sent header still open %v later (header timeout %v)", time.Since(start), readHeaderTimeout)
		}
	}()
	go func() {
		defer wg.Done()
		tr := &http.Transport{Protocols: new(http.Protocols)}
		tr.Protocols.SetUnencryptedHTTP2(true)
		counter := &streamCounter{next: tr}
		c, err := copnet.Dial(base, copnet.WithHTTPClient(&http.Client{Transport: counter}))
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		data := bytes.Repeat([]byte{0x5A}, copnet.BlockBytes)
		if err := c.Write(0, data); err != nil {
			t.Error(err)
			return
		}
		time.Sleep(readHeaderTimeout + time.Second)
		got, err := c.Read(0)
		if err != nil {
			t.Errorf("frame after an idle stream: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("frame after an idle stream read back the wrong block")
		}
		if n := counter.opens.Load(); n != 1 {
			t.Errorf("client opened %d streams, want 1 (the idle stream was cut)", n)
		}
	}()
	wg.Wait()

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Errorf("no drained line in the output:\n%s", out.String())
	}
}
