package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestParseShardOf: -shard-of takes exactly two unsigned decimal integers
// around one slash; anything else — extra fields, trailing bytes, spaces,
// signs, overflow — is refused rather than starting a shard.
func TestParseShardOf(t *testing.T) {
	for _, tc := range []struct {
		spec         string
		index, count int
		ok           bool
	}{
		{"0/2", 0, 2, true},
		{"1/2", 1, 2, true},
		{"12/100", 12, 100, true},
		{"007/8", 7, 8, true},
		// Out-of-range pairs parse; NewShardBackend refuses them.
		{"3/2", 3, 2, true},
		{"1/2/3", 0, 0, false},
		{"0/2junk", 0, 0, false},
		{" 0/2", 0, 0, false},
		{"0/2 ", 0, 0, false},
		{"0 /2", 0, 0, false},
		{"+1/2", 0, 0, false},
		{"-1/2", 0, 0, false},
		{"1/-2", 0, 0, false},
		{"0x1/2", 0, 0, false},
		{"/2", 0, 0, false},
		{"1/", 0, 0, false},
		{"1", 0, 0, false},
		{"", 0, 0, false},
		{"99999999999999999999/2", 0, 0, false},
	} {
		index, count, err := parseShardOf(tc.spec)
		if ok := err == nil; ok != tc.ok || index != tc.index || count != tc.count {
			t.Errorf("parseShardOf(%q) = %d, %d, %v; want %d, %d, ok %v", tc.spec, index, count, err, tc.index, tc.count, tc.ok)
		}
	}
}

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
