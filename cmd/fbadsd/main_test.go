package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestStalledHeaderClosedAtReadHeaderTimeout: fbadsd's servers carry the
// listener timeouts, and a connection that stops mid-header is closed once
// ReadHeaderTimeout passes, without a response. The test shortens the
// timeout on the built server so it does not wait the full constant.
func TestStalledHeaderClosedAtReadHeaderTimeout(t *testing.T) {
	srv := newHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("server timeouts: read header %v, idle %v; want %v, %v",
			srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	const timeout = 200 * time.Millisecond
	srv.ReadHeaderTimeout = timeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	// The request line and one header, but never the blank line ending them.
	if _, err := io.WriteString(conn, "GET /v9.0/act_1/reachestimate HTTP/1.1\r\nHost: fbadsd\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 1))
	elapsed := time.Since(start)
	var ne net.Error
	if n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("stalled connection read %d byte(s), err %v after %v; want it closed by the server", n, err, elapsed)
	}
	if elapsed < timeout {
		t.Fatalf("stalled connection closed after %v, before ReadHeaderTimeout %v", elapsed, timeout)
	}
}
