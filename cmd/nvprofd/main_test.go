package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts = header %v idle %v, want %v and %v",
			hs.ReadHeaderTimeout, hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatal("a zero timeout disables it")
	}
}

// TestSlowHeadersDropped holds a connection open mid-headers and checks
// the server closes it once the header timeout passes. The timeout is
// shortened so the test runs quickly; the mechanism is the server's own.
func TestSlowHeadersDropped(t *testing.T) {
	hs := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	hs.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The request line and one header, but never the blank line that
	// ends the headers.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: nvprofd\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server may answer 408 before closing; read to the close.
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("connection still open 5s after the header timeout")
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("connection dropped after %v", waited)
	}
}
