package main

import (
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"

	"cop/internal/copnet"
	"cop/internal/telemetry"
)

const tenantName = "bench"

// service is the served stack under test: a copnet.Server tenant on a
// loopback TLS listener speaking HTTP/2, and one copnet.Client pinned to
// the server's self-signed certificate, as copserve and copload run it.
type service struct {
	srv    *copnet.Server
	hs     *http.Server
	served chan struct{} // closed when ServeTLS returns
	client *copnet.Client
	llc    llcGeometry

	conns atomic.Int64 // connections accepted
	nonH2 atomic.Int64 // requests that did not arrive over HTTP/2
}

func startService(scheme string) (*service, error) {
	s := &service{srv: copnet.NewServer(), served: make(chan struct{})}
	t, err := s.srv.CreateTenant(tenantName, copnet.TenantConfig{Scheme: scheme})
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	if b := t.Batched(); b != nil {
		s.llc.shards = b.NumShards()
		for i := 0; i < s.llc.shards; i++ {
			llc := b.Shard(i).LLC()
			s.llc.lines += llc.Sets() * llc.Ways()
			s.llc.ways = llc.Ways()
		}
	}
	cert, certPEM, err := copnet.SelfSignedCert()
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	handler := s.srv.Handler()
	s.hs = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.ProtoMajor != 2 {
				s.nonH2.Add(1)
			}
			handler.ServeHTTP(w, r)
		}),
		TLSConfig: &tls.Config{Certificates: []tls.Certificate{cert}},
	}
	go func() {
		defer close(s.served)
		_ = s.hs.ServeTLS(countingListener{ln, &s.conns}, "", "")
	}()
	s.client, err = copnet.Dial("https://"+ln.Addr().String(),
		copnet.WithTenant(tenantName), copnet.WithServerCert(certPEM))
	if err == nil && !s.client.Ready() {
		err = errors.New("server not ready over TLS")
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the listener and every connection, waits for the serve
// loop to return, and drains and closes the tenant.
func (s *service) close() {
	_ = s.hs.Close()
	<-s.served
	_ = s.srv.Close()
}

// snapshot is the tenant's telemetry tree as the client sees it.
func (s *service) snapshot() (telemetry.Snapshot, error) {
	snap := s.client.Snapshot()
	if snap.Net == nil || snap.Serve == nil {
		return snap, fmt.Errorf("tenant snapshot lacks its serve sections")
	}
	return snap, nil
}

// checkTransport verifies that every request rode HTTP/2 and that all of
// them shared one connection.
func (s *service) checkTransport() error {
	if n := s.nonH2.Load(); n != 0 {
		return fmt.Errorf("%d requests did not use HTTP/2", n)
	}
	if n := s.conns.Load(); n != 1 {
		return fmt.Errorf("client opened %d connections, want 1", n)
	}
	return nil
}

// llcGeometry is a tenant's last-level cache: total lines across its
// shards, associativity, and the shard count it is striped over.
type llcGeometry struct {
	lines, ways, shards int
}

type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}
