package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// Short stand-ins for readHeaderTimeout and idleTimeout.
const (
	testHeaderTimeout = 100 * time.Millisecond
	testIdleTimeout   = 200 * time.Millisecond
)

// serveLocal runs newHTTPServer with the short timeouts on a loopback port
// and returns its address.
func serveLocal(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", h, testHeaderTimeout, testIdleTimeout)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// A client that stalls mid-header is disconnected once the header timeout
// passes, instead of holding the connection indefinitely.
func TestStalledHeaderIsDisconnected(t *testing.T) {
	addr := serveLocal(t, http.NotFoundHandler())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: hostnetd\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(10 * time.Second))
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server still holds a connection stalled mid-header after 10 s")
	}
	if waited := time.Since(start); waited < testHeaderTimeout {
		t.Fatalf("connection closed after %v, before the %v header timeout", waited, testHeaderTimeout)
	}
}

// A long-poll that outlasts both timeouts still receives its bytes. The
// handler abandons the wait when its request context ends, as the
// ?wait=true result handler does, so a timeout that cancels running
// requests would show as a missing body.
func TestLongPollOutlastsTimeouts(t *testing.T) {
	hold := 3 * (testHeaderTimeout + testIdleTimeout)
	addr := serveLocal(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(hold):
			io.WriteString(w, "result bytes")
		case <-r.Context().Done():
		}
	}))
	start := time.Now()
	resp, err := http.Get("http://" + addr + "/jobs/j1/result?wait=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "result bytes" {
		t.Fatalf("long-poll body %q after %v, want the result bytes", body, time.Since(start))
	}
}
